import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hmm_frontier import ThetaParams, estimate_theta, theta_to_phipsi
from hmm_frontier.cli import cli_main

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
    assert err.startswith("error:")
    if case.startswith("params-b-"):
        assert f"cannot read {tmp_path / 'params-b.json'}: " in err
    if case.startswith("negative-seed-"):
        assert "argument --seed" in err
    if case == "unknown-sweep-target":
        assert "argument --target" in err


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
