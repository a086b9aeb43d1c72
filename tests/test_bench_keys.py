"""Every output key the benchmark's workloads read is still written.

``perfbench/workloads.py`` runs the CLI and reads named keys of its JSON and
CSV outputs.  JSON outputs are their records' fields, so renaming a field
would otherwise surface only as a failed check when the benchmark runs.
"""

import csv
import json
from pathlib import Path

import pytest

import hmm_frontier.cli as cli
from hmm_frontier import ThetaParams

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _params(tmp_path):
    path = tmp_path / "params.json"
    theta = ThetaParams(p=0.2, q=0.3, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5])
    path.write_text(theta.to_json(), encoding="utf-8")
    return str(path)


def _path(tmp_path):
    path = tmp_path / "path.csv"
    assert cli.cli_main(["simulate", "--n", "400", "--seed", "1", "--out", str(path)]) == 0
    return str(path)


# command, its flags before --out, how to read the output, the keys the workloads read
COMMANDS = {
    "threshold-probe": (
        lambda d: ["--n", "300", "--c", "0", "--replicas", "4"], "json", ["test_error"],
    ),
    "equiv-probe": (
        lambda d: ["--pairs", "5"], "json",
        ["min_ratio", "spread", "pairs_used", "pairs_skipped"],
    ),
    "estimate": (
        lambda d: ["--input", _path(d), "--starts", "0", "--epsilon", "0.3", "--zeta", "0.3"],
        "json", ["converged"],
    ),
    "kl-probe": (
        lambda d: ["--params-a", _params(d), "--params-b", _params(d), "--n-grid", "20",
                   "--replicas", "2"],
        "csv", ["kl_mean"],
    ),
    "rate-sweep": (
        lambda d: ["--n-grid", "500", "--replicas", "1", "--epsilon", "0.3", "--zeta", "0.3"],
        "csv", ["n", "error", "objective"],
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_benchmark_keys_are_written(tmp_path, command):
    flags, kind, keys = COMMANDS[command]
    out = tmp_path / f"out.{kind}"
    assert cli.cli_main([command, *flags(tmp_path), "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        record = json.load(fh) if kind == "json" else next(csv.DictReader(fh))
    assert [k for k in keys if k not in record] == []


def test_keys_are_the_ones_the_workloads_read():
    source = WORKLOADS.read_text(encoding="utf-8")
    keys = {k for _, _, names in COMMANDS.values() for k in names}
    assert [k for k in sorted(keys) if f'"{k}"' not in source] == []
