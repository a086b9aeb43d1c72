import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hmm_frontier import ThetaParams, estimate_theta, theta_to_phipsi
from hmm_frontier.cli import cli_main
from hmm_frontier.params import fallback_direction

from test_experiments import count_calls


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "5", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 6

    def test_empty_path(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "0")
        assert code == 0
        assert out.splitlines() == ["x,y"]

    def test_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "path.csv"
        code, _, _ = run(capsys, "simulate", "--n", "10", "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 11

    def test_invalid_density(self, capsys):
        code, _, err = run(capsys, "simulate", "--f0", "0.9,0.9,0.2")
        assert code == 1
        assert "error" in err


class TestEstimate:
    def test_end_to_end(self, capsys, tmp_path):
        obs_file = tmp_path / "obs.txt"
        path_file = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "2000", "--seed", "4", "--out", str(path_file))
        with open(path_file) as fh:
            rows = list(csv.DictReader(fh))
        obs_file.write_text("\n".join(r["y"] for r in rows))
        out_file = tmp_path / "fit.json"
        code, _, _ = run(
            capsys, "estimate", "--input", str(obs_file),
            "--delta", "0.1", "--epsilon", "0.3", "--zeta", "0.3",
            "--L", "0.3", "--k", "3", "--starts", "1",
            "--out", str(out_file),
        )
        assert code == 0
        result = json.loads(out_file.read_text())
        assert set(result) >= {
            "theta", "estimate", "objective", "converged", "init_fallback", "nfev", "best_start",
        }
        assert isinstance(result["init_fallback"], bool)
        assert result["best_start"] in {"moment", "flip", "witness", "random-0"}
        assert result["nfev"] > result["starts"]
        assert 0 < result["theta"]["p"] <= 1

    def test_reads_csv_input(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "500", "--seed", "9", "--out", str(path_file))
        code, out, _ = run(
            capsys, "estimate", "--input", str(path_file),
            "--delta", "0.1", "--epsilon", "0.3", "--zeta", "0.3",
            "--L", "0.3", "--k", "3", "--starts", "0",
        )
        assert code == 0
        assert json.loads(out)["objective"] >= 0


class TestLbPair:
    def test_oracle(self, capsys):
        code, out, _ = run(
            capsys, "lb-pair", "--kind", "phi1_phi3", "--n", "10000000",
            "--delta", "0.1", "--epsilon", "0.2", "--zeta", "0.1",
            "--c", "0.01", "--k", "3",
        )
        assert code == 0
        pair = json.loads(out)
        assert pair["R"] == pytest.approx(0.07905694, abs=1e-8)
        assert pair["kind"] == "phi1_phi3"

    def test_defaults_are_threshold_probes(self, capsys):
        code, out, err = run(capsys, "lb-pair")
        assert (code, err) == (0, "")
        assert json.loads(out)["R"] == pytest.approx(0.07905694, abs=1e-8)
        assert run(capsys, "lb-pair", "--n", "100000", "--c", "0.001") == (0, out, "")

    def test_empty_box_exit_2(self, capsys):
        code, out, err = run(capsys, "lb-pair", "--kind", "psi1", "--L", "0.9")
        assert code == 2
        assert out == ""
        assert err.startswith("infeasible:") and "box is empty" in err

    def test_infeasible_exit_2(self, capsys):
        code, _, err = run(
            capsys, "lb-pair", "--kind", "phi1_phi3", "--n", "100", "--c", "10",
        )
        assert code == 2
        assert "infeasible" in err


class TestConfigAndErrors:
    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "rate-sweep", "--config", "does-not-exist.json")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert "usage" in err

    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "seed": 8}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 4
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--n", "6")
        assert len(out.splitlines()) == 7

    def test_abbreviated_flag_overrides_config(self, capsys, tmp_path):
        cfg = write(tmp_path, "cfg.json", json.dumps({"n": 3, "seed": 8}))
        code, out, _ = run(capsys, "simulate", "--config", cfg, "--se", "5")
        assert code == 0
        assert out == run(capsys, "simulate", "--n", "3", "--seed", "5")[1]
        assert out != run(capsys, "simulate", "--n", "3", "--seed", "8")[1]

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = write(tmp_path, "cfg.json", json.dumps({"c": 0.5, "n": 10**7}))
        code, out, _ = run(capsys, "lb-pair", "--config", cfg, "--c", "0.01")
        assert code == 0
        assert out == run(capsys, "lb-pair", "--n", "10000000", "--c", "0.01")[1]

    def test_config_lists_and_switches_match_flags(self, capsys, tmp_path):
        sweep = [
            "rate-sweep", "--replicas", "1", "--epsilon", "0.3", "--zeta", "0.3", "--seed", "1",
        ]
        on = write(tmp_path, "on.json", json.dumps({"n-grid": [500], "resample-truths": True}))
        off = write(tmp_path, "off.json", json.dumps({"n_grid": [500], "resample_truths": False}))
        by_flags = run(capsys, *sweep, "--n-grid", "500", "--resample-truths")
        assert by_flags[0] == 0
        switch_off = without_wall_ms(run(capsys, *sweep, "--n-grid", "500"))
        assert without_wall_ms(by_flags) != switch_off
        assert without_wall_ms(run(capsys, *sweep, "--config", on)) == without_wall_ms(by_flags)
        assert without_wall_ms(run(capsys, *sweep, "--config", off)) == switch_off


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def without_wall_ms(result):
    """(exit code, stdout, stderr) of a rate-sweep with the timing column dropped."""
    code, out, err = result
    rows = list(csv.reader(out.splitlines()))
    i = rows[0].index("wall_ms")
    return code, [row[:i] + row[i + 1:] for row in rows], err


def native_params(tmp_path):
    theta = ThetaParams(p=0.45, q=0.45, f0=[0.4, 0.3, 0.3], f1=[0.3, 0.3, 0.4])
    return write(tmp_path, "native.json", theta.to_json())


BAD_INPUTS = {
    "n-grid-not-int": lambda d: ["rate-sweep", "--n-grid", "1000,x"],
    "n-grid-empty": lambda d: [
        "kl-probe", "--params-a", native_params(d), "--params-b", native_params(d), "--n-grid", "",
    ],
    "f0-not-float": lambda d: ["simulate", "--f0", "0.5,x,0.2"],
    "config-n-grid": lambda d: [
        "rate-sweep", "--config", write(d, "c.json", json.dumps({"n-grid": "1000,x"})),
    ],
    "config-n": lambda d: ["simulate", "--config", write(d, "c.json", json.dumps({"n": "x"}))],
    # a prefix of --replicas: parsed as a flag it would be taken as an abbreviation
    "config-unknown-key": lambda d: [
        "rate-sweep", "--config", write(d, "c.json", json.dumps({"replica": 1})),
    ],
    "config-not-object": lambda d: ["simulate", "--config", write(d, "c.json", "[1, 2]")],
    "config-null-value": lambda d: [
        "simulate", "--config", write(d, "c.json", json.dumps({"out": None})),
    ],
    "missing-input": lambda d: ["estimate", "--input", str(d / "missing.txt")],
    "missing-params-a": lambda d: [
        "kl-probe", "--params-a", str(d / "missing.json"), "--params-b", native_params(d),
    ],
    "malformed-params": lambda d: [
        "kl-probe", "--params-a", write(d, "bad.json", '{"phi": [0.1,'),
        "--params-b", native_params(d),
    ],
    "params-missing-key": lambda d: [
        "kl-probe", "--params-a", write(d, "bad.json", '{"p": 0.2, "q": 0.3}'),
        "--params-b", native_params(d),
    ],
    "non-integer-observation": lambda d: [
        "estimate", "--input", write(d, "obs.txt", "1\n2\n1.5\n0\n"),
    ],
    "csv-header-without-y": lambda d: [
        "estimate", "--input", write(d, "obs.csv", "a,b\n0,1\n1,2\n"),
    ],
    "csv-short-row": lambda d: ["estimate", "--input", write(d, "obs.csv", "x,y\n0,1\n1\n")],
    "comment-row": lambda d: ["estimate", "--input", write(d, "obs.txt", "1\n2\n# 3\n1\n")],
    "out-missing-dir": lambda d: ["simulate", "--n", "5", "--out", str(d / "missing-dir" / "x.csv")],
    "params-b-bad-sum": lambda d: [
        "kl-probe", "--params-a", native_params(d), "--params-b", write(
            d, "params-b.json", '{"p": 0.2, "q": 0.3, "f0": [0.5, 0.2, 0.2], "f1": [0.3, 0.3, 0.4]}'
        ),
    ],
    "params-b-zero-emission": lambda d: [
        "kl-probe", "--params-a", native_params(d), "--params-b", write(
            d, "params-b.json", '{"p": 0.2, "q": 0.3, "f0": [0.5, 0.5, 0.0], "f1": [0.3, 0.3, 0.4]}'
        ),
    ],
    "unknown-sweep-target": lambda d: ["rate-sweep", "--n-grid", "300", "--target", "nope"],
    "params-a-nan-phi": lambda d: [
        "kl-probe", "--params-a", write(
            d, "params-a.json",
            '{"phi": [NaN, 0.05, 0.4], "psi1": [0.4, 0.3, 0.3], "psi2": %s}'
            % json.dumps(fallback_direction(3).tolist()),
        ), "--params-b", native_params(d),
    ],
    "params-k3-k4": lambda d: [
        "kl-probe", "--params-a", native_params(d), "--params-b", write(d, "k4.json", ThetaParams(
            p=0.2, q=0.3, f0=[0.4, 0.3, 0.2, 0.1], f1=[0.25] * 4
        ).to_json()),
    ],
    "negative-starts": lambda d: [
        "estimate", "--input", write(d, "obs.txt", "1\n2\n3\n2\n1\n" * 40), "--starts", "-1",
    ],
    "zero-replicas": lambda d: ["rate-sweep", "--replicas", "0"],
    "lb-pair-nan-c": lambda d: ["lb-pair", "--c", "nan"],
    "threshold-probe-nan-c": lambda d: ["threshold-probe", "--c", "nan"],
    **{
        f"negative-seed-{command}": lambda d, command=command, args=args: [
            command, *args(d), "--seed", "-1",
        ]
        for command, args in {
            "simulate": lambda d: [],
            "estimate": lambda d: ["--input", write(d, "obs.txt", "1\n2\n3\n2\n1\n" * 40)],
            "rate-sweep": lambda d: [],
            "kl-probe": lambda d: [
                "--params-a", native_params(d), "--params-b", native_params(d),
            ],
            "equiv-probe": lambda d: [],
            "threshold-probe": lambda d: [],
        }.items()
    },
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_a_named_error(capsys, tmp_path, case):
    code, out, err = run(capsys, *BAD_INPUTS[case](tmp_path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("error:")
    # one message line, followed only by argparse's usage after a bad flag
    assert len(lines) == 1 or lines[1].startswith("usage:")
    if case.startswith("params-b-"):
        assert f"cannot read {tmp_path / 'params-b.json'}: " in err
    if case.startswith("negative-seed-"):
        assert "argument --seed" in err
    if case == "unknown-sweep-target":
        assert "argument --target" in err
    if case == "params-a-nan-phi":
        assert "params-a.json: phi1 must lie in [-1, 1]: phi1=nan" in err


@pytest.mark.parametrize(
    "text, line",
    [("x,y\n0,1\n1\n", 3), ("1\n2\n1.5\n", 3), ("1\n\n2\nx\n", 4)],
    ids=["short-row", "not-an-integer", "after-blank-line"],
)
def test_input_error_names_the_file_line(capsys, tmp_path, text, line):
    code, _, err = run(capsys, "estimate", "--input", write(tmp_path, "obs.csv", text))
    assert code == 1
    assert f"obs.csv: line {line}: " in err
    assert "row" not in err


def test_observation_formats_read_alike(capsys, tmp_path, monkeypatch):
    import hmm_frontier.cli as cli

    symbols = [1, 3, 2, 2, 1, 3, 3, 2, 1, 1, 2, 3] * 25
    read = []

    def recording(observed, *args, **kwargs):
        read.append(observed.tolist())
        return estimate_theta(observed, *args, **kwargs)

    monkeypatch.setattr(cli, "estimate_theta", recording)
    files = {
        "plain.txt": "".join(f"{y}\n" for y in symbols),
        "xy.csv": "x,y\n" + "".join(f"{i % 2},{y}\n" for i, y in enumerate(symbols)),
        "headerless.csv": "".join(f"{i % 2},{y}\n" for i, y in enumerate(symbols)),
        "yx.csv": "y,x\n" + "".join(f"{y},{i % 2}\n" for i, y in enumerate(symbols)),
        "crlf.csv": "x,y\r\n" + "".join(f"{i % 2},{y}\r\n" for i, y in enumerate(symbols)),
        "blank-rows.csv": "\n , \n" + "".join(
            f"{i % 2},{y}\n" + ("  \n" if i % 3 else ",,\n") for i, y in enumerate(symbols)
        ),
        "quoted.csv": '"x","y"\n' + "".join(
            f'"{i % 2}"," {y}"\n' + ('"",""\n' if i % 5 == 0 else "")
            for i, y in enumerate(symbols)
        ),
    }
    outs = []
    for name, text in files.items():
        code, out, _ = run(
            capsys, "estimate", "--input", write(tmp_path, name, text),
            "--epsilon", "0.3", "--zeta", "0.3", "--starts", "0",
        )
        assert code == 0
        outs.append(out)
    assert read == [symbols] * len(files)
    assert outs == [outs[0]] * len(files)


def line_reader_observations(fh):
    """Reference ``--input`` reader: one string per line, kept by ``_has_data``.

    ``cli._observations`` must give the same array, or the same error, for
    every input.
    """
    from hmm_frontier.cli import _LOADTXT, _has_data

    lines = [line for line in fh if _has_data(line)]
    column = -1
    header = next(csv.reader(lines[:1]), [])
    if "y" in header:
        column = header.index("y")
        del lines[0]
    if not lines:
        return np.empty(0, dtype=np.int64)
    try:
        return np.loadtxt(lines, usecols=column, **_LOADTXT)
    except ValueError:
        fh.seek(0)
        numbers = [i for i, line in enumerate(fh, 1) if _has_data(line)][-len(lines):]
        for i, line in zip(numbers, lines):
            try:
                np.loadtxt([line], usecols=column, **_LOADTXT)
            except ValueError:
                where = "the y column" if column >= 0 else "the last column"
                raise ValueError(f"line {i}: no integer symbol in {where}: {line.strip()!r}")
        raise


def _xy(symbols, end="\n"):
    return "".join(f"{i % 2},{y}{end}" for i, y in enumerate(symbols))


READER_CORPUS = {
    "plain": "1\n3\n2\n2\n",
    "xy": "x,y\n" + _xy([1, 3, 2, 2]),
    "yx": "y,x\n3,0\n1,1\n",
    "headerless": _xy([1, 3, 2]),
    "no-final-newline": "x,y\n0,1\n1,3",
    "no-final-newline-blank": "x,y\n0,1\n , ",
    "crlf": "x,y\r\n" + _xy([1, 3, 2], "\r\n"),
    "lone-cr": "x,y\r" + _xy([1, 3, 2], "\r"),
    "mixed-ends": "x,y\r\n0,1\r1,2\n0,3",
    "blank-rows": "\n , \n,,\nx,y\n0,1\n,,\n\t\n1,2\n \x0b\x1c,\n",
    "quoted": '"x","y"\n"0"," 1"\n"",""\n"1","3"\n',
    "quoted-blank-only": '"",""\n" "\n',
    "quoted-comma": 'x,y\n0,"2,3"\n',
    "quoted-comma-last": '0,"2,3"\n',
    "quote-across-lines": 'x,y\n0,"1\n2"\n0,3\n',
    "quote-closed-next-line": '"1\n"\n2\n',
    "nbsp-padding": "x,y\n\xa00,1\xa0\n\xa0\n\xa0,\xa0\n1,3\n",
    "unicode-space-row": "1\n\u2003\n\u3000,\u2003\n2\n",
    "non-ascii-symbol": "x,y\n0,1\n1,\u0663\n",
    "header-only": "x,y\n",
    "header-only-no-newline": "x,y",
    "empty": "",
    "only-blank": " \n,,\n\n",
    "comment-row": "x,y\n# seed 1\n0,1\n",
    "not-an-integer": "1\n2\n1.5\n",
    "short-row": "x,y\n0,1\n1\n",
    "short-row-last-column": "0,1\n1\n",
    "long-row": "x,y\n0,1,7\n1,2\n",
    "header-without-y": "a,b\n0,1\n",
    "error-after-blank": "1\n\n2\nx\n",
    "error-late": "x,y\n" + _xy([1, 2, 3] * 3000) + "0,z\n",
    "signs-and-space": "+1\n 2 \n-1\n",
    "nul-byte": "1\n\x00\n",
}


@pytest.mark.parametrize("name", list(READER_CORPUS))
def test_reader_matches_the_line_reader(tmp_path, name):
    import hmm_frontier.cli as cli

    path = tmp_path / "obs.csv"
    path.write_bytes(READER_CORPUS[name].encode("utf-8"))
    outcomes = []
    for reader in (cli._observations, line_reader_observations):
        try:
            got = cli._read(str(path), reader)
            outcomes.append((got.dtype, got.tolist()))
        except cli.ValidationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_reader_reports_a_bad_byte_where_the_line_reader_did(tmp_path):
    # past the first 8 KiB the decoder reports positions within its chunk
    import hmm_frontier.cli as cli

    path = tmp_path / "obs.csv"
    path.write_bytes(b"1\n" * 10_000 + b"\xff\n")
    messages = []
    for reader in (cli._observations, line_reader_observations):
        with pytest.raises(cli.ValidationError) as err:
            cli._read(str(path), reader)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "position 3616" in messages[0]


# what random input files are drawn from: data, separators, blanks of every
# kind (Unicode ones too), every line end, quotes, comments, header letters,
# NUL and a non-ASCII digit
FUZZ_PIECES = [
    *"0123456789+-,.", " ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003",
    "\n", "\r\n", "\r", '"', "#", "x", "y", "\x00", "\u0663",
]


@pytest.mark.filterwarnings("error::UserWarning")
def test_reader_matches_the_line_reader_on_random_files(tmp_path):
    # the one parse rests on np.loadtxt skipping empty lines and failing on
    # every other blank row; any file where it does not must read alike too
    import hmm_frontier.cli as cli

    rng = np.random.default_rng(17)
    path = tmp_path / "obs.csv"
    weights = np.array([4 if p in "0123456789\n" else 1 for p in FUZZ_PIECES])  # some parse
    for _ in range(2000):
        pieces = rng.choice(FUZZ_PIECES, size=rng.integers(0, 16), p=weights / weights.sum())
        # no header, a y header, or one whose last field reads as a symbol,
        # sometimes after an empty line, which the header test must skip
        header = rng.choice(["", "x,y\n", "y,0\n"], p=[0.5, 0.3, 0.2])
        text = rng.choice(["", "\n"], p=[0.8, 0.2]) + header + "".join(pieces)
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for reader in (cli._observations, line_reader_observations):
            try:
                got = cli._read(str(path), reader)
                outcomes.append((got.dtype, got.tolist()))
            except cli.ValidationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], text


def test_only_blank_rows_and_quotes_take_the_line_reader(tmp_path, monkeypatch):
    import hmm_frontier.cli as cli

    def refused(rows):
        raise AssertionError("read line by line")

    monkeypatch.setattr(cli, "_line_reader", refused)
    path = tmp_path / "path.csv"
    assert cli_main(["simulate", "--n", "3000", "--out", str(path)]) == 0
    assert cli._read(str(path), cli._observations).size == 3000
    for name in ("blank-rows", "quoted"):
        path.write_text(READER_CORPUS[name])
        with pytest.raises(AssertionError, match="line by line"):
            cli._read(str(path), cli._observations)


def test_csv_round_trip_memory(capsys, tmp_path):
    # tracemalloc peaks of a 3e5-step simulate and of estimate on its file:
    # each at most half of the per-line writer's 22.9 MB and reader's 20.1 MB
    path = str(tmp_path / "path.csv")
    theta = ["--p", "0.2", "--q", "0.3", "--f0", "0.5,0.3,0.2", "--f1", "0.2,0.3,0.5"]
    fit = ["--epsilon", "0.3", "--zeta", "0.3", "--out", str(tmp_path / "fit.json")]
    assert cli_main(["simulate", *theta, "--n", "100", "--out", path]) == 0  # warm
    assert cli_main(["estimate", "--input", path, *fit]) == 0
    peaks = []
    for argv in (
        ["simulate", *theta, "--n", "300000", "--seed", "3", "--out", path],
        ["estimate", "--input", path, *fit],
    ):
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 22.9e6 / 2
    assert peaks[1] <= 20.1e6 / 2


class TestProbes:
    def test_equiv_probe(self, capsys):
        code, out, _ = run(
            capsys, "equiv-probe", "--pairs", "50", "--seed", "2",
            "--epsilon", "0.3", "--zeta", "0.3",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["min_ratio"] > 0
        assert summary["pairs_used"] == 50
        assert summary["candidates"] >= 100

    def test_equiv_probe_exhausted_sampler_exits_1(self, capsys):
        """At K=20 on the default box some member needs more than the sampler's
        budget: one error line, never a witness pair."""
        code, out, err = run(capsys, "equiv-probe", "--k", "20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: member ") and "needs more than" in err
        assert len(err.splitlines()) == 1

    def test_non_finite_box_is_one_error_line(self, capsys, tmp_path):
        obs = write(tmp_path, "obs.txt", "1\n2\n3\n2\n1\n" * 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", "--zeta", "inf", "--input", obs)
        assert code == 1
        assert out == ""
        assert err.startswith("error: box bounds must be finite")
        assert len(err.splitlines()) == 1

    def kl_probe(self, capsys, tmp_path, n_grid):
        import hmm_frontier as hf

        pp = hf.theta_to_phipsi(
            hf.ThetaParams(p=0.45, q=0.45, f0=[0.4, 0.3, 0.3], f1=[0.3, 0.3, 0.4])
        )
        b = hf.PhiPsiParams(
            phi1=pp.phi1, phi2=pp.phi2, phi3=pp.phi3,
            psi1=[0.36, 0.3, 0.34], psi2=pp.psi2,
        )
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        fa.write_text(pp.to_json())
        fb.write_text(b.to_json())
        return run(
            capsys, "kl-probe", "--params-a", str(fa), "--params-b", str(fb),
            "--n-grid", n_grid, "--replicas", "50", "--seed", "3",
        )

    def test_kl_probe(self, capsys, tmp_path):
        code, out, _ = self.kl_probe(capsys, tmp_path, "100,200")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,rho,rho_sq_times_n,kl_mean,kl_stderr,ratio"
        assert len(lines) == 3
        # every row is a prefix of one path set: the last row is the one-entry run
        assert self.kl_probe(capsys, tmp_path, "200")[1].splitlines()[1] == lines[2]

    def test_kl_probe_reads_native_params(self, capsys, tmp_path):
        theta = ThetaParams(p=0.45, q=0.45, f0=[0.4, 0.3, 0.3], f1=[0.3, 0.3, 0.4])
        b = ThetaParams(p=0.4, q=0.45, f0=[0.4, 0.3, 0.3], f1=[0.3, 0.3, 0.4])
        b_file = write(tmp_path, "b.json", b.to_json())
        outputs = [
            run(
                capsys, "kl-probe", "--params-a", write(tmp_path, "a.json", text),
                "--params-b", b_file, "--n-grid", "100,200", "--replicas", "20", "--seed", "3",
            )
            for text in (theta.to_json(), theta_to_phipsi(theta).to_json())
        ]
        assert outputs[0][0] == 0
        assert float(outputs[0][1].splitlines()[2].split(",")[1]) > 0  # rho(a, b)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n_grid", ["200,100", "100,100"])
    def test_kl_probe_grid_must_increase(self, capsys, tmp_path, n_grid):
        code, out, err = self.kl_probe(capsys, tmp_path, n_grid)
        assert code == 1
        assert out == ""
        assert "n_grid must be nonempty and strictly increasing" in err

    @pytest.mark.parametrize("n_grid", ["300", "100,200,300"])
    def test_kl_probe_samples_once(self, capsys, tmp_path, monkeypatch, n_grid):
        sampled = count_calls(monkeypatch, "sample_paths")
        scored = count_calls(monkeypatch, "loglik_batch")
        assert self.kl_probe(capsys, tmp_path, n_grid)[0] == 0
        assert len(sampled) == 1
        assert len(scored) == 1

    def test_threshold_probe(self, capsys):
        code, out, _ = run(
            capsys, "threshold-probe", "--kind", "phi1_phi3", "--n", "500",
            "--c", "0", "--replicas", "40", "--seed", "5",
        )
        assert code == 0
        probe = json.loads(out)
        assert 0.0 <= probe["test_error"] <= 1.0

    def test_rate_sweep_csv(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "rate-sweep", "--n-grid", "500", "--replicas", "1",
            "--epsilon", "0.3", "--zeta", "0.3", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("n,replica,seed,")
        assert len(lines) == 2

    def test_rate_sweep_says_why_the_slope_is_missing(self, capsys):
        code, _, err = run(
            capsys, "rate-sweep", "--n-grid", "500", "--replicas", "1",
            "--epsilon", "0.3", "--zeta", "0.3",
        )
        assert code == 0
        assert err == (
            "# slope(loss_phi2) not fitted: need >= 2 usable sample sizes for loss_phi2, got 1\n"
        )


# Runs one command in a fresh interpreter and prints its exit code and whether
# scipy was loaded: no command needs it, the fitting ones included.
FRESH = (
    "import sys; from hmm_frontier.cli import cli_main; "
    "code = cli_main(sys.argv[1:]); print(code, 'scipy' in sys.modules)"
)

TOY_RUNS = {
    "simulate": lambda d: ["simulate", "--n", "10"],
    "kl-probe": lambda d: [
        "kl-probe", "--params-a", native_params(d), "--params-b", native_params(d),
        "--n-grid", "20", "--replicas", "2",
    ],
    "equiv-probe": lambda d: ["equiv-probe", "--pairs", "5"],
    "lb-pair": lambda d: ["lb-pair"],
    "threshold-probe": lambda d: ["threshold-probe", "--replicas", "2"],
    "rate-sweep": lambda d: [
        "rate-sweep", "--n-grid", "300", "--replicas", "1", "--epsilon", "0.3", "--zeta", "0.3",
    ],
    "estimate": lambda d: [
        "estimate", "--input", write(d, "obs.txt", "1\n2\n3\n" * 100),
        "--epsilon", "0.3", "--zeta", "0.3", "--starts", "0",
    ],
}


@pytest.mark.parametrize("command", list(TOY_RUNS))
def test_no_command_loads_scipy(tmp_path, command):
    import hmm_frontier

    src = str(Path(hmm_frontier.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [*TOY_RUNS[command](tmp_path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, *argv], capture_output=True, text=True, env=env, check=False
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    if command == "estimate":
        assert json.loads((tmp_path / "out").read_text())["objective"] >= 0
