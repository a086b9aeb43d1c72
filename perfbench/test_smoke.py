"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload prints every metric of BENCHMARK.json with its
unit, traced and untraced, that the correctness checks pass, that a forced
check failure shows in ``failed`` and the exit code, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNIT_NAMES = {"sweep": "fits_per_s", "probe": "obs_per_s", "long-path": "obs_per_s",
              "equiv": "pairs_per_s"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        assert any(line.startswith(f"{UNIT_NAMES[workload]} ") for line in lines)
        # The timings are scaled by the host speed reference, and say so.
        scale = float(next(line for line in lines if line.startswith("host reference")).split()[-1])
        unscaled = next(line for line in lines if line.startswith("unscaled")).split()
        rate = result["metrics"]["throughput_per_s"]["value"]
        assert rate == pytest.approx(float(unscaled[2]) * scale, rel=1e-3)
    assert any(line.startswith("failed_ratio 0 ratio") for line in lines)


def test_forced_check_failure_raises_failed_ratio():
    proc = bench("--workload", "equiv", "--trace", "0", "--scale", "smoke", "--inject-failure")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    ratio = next(line for line in proc.stdout.splitlines() if line.startswith("failed_ratio"))
    assert float(ratio.split()[1]) > 0.0
    assert "forced failure" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "equiv", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_rebinds_every_import_and_restores():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hmm_frontier
    from hmm_frontier import experiments, filter_kl, simulate
    from tracer import TRACED, Tracer

    original = simulate.sample_paths
    with Tracer(TRACED) as tracer:
        for module in (hmm_frontier, simulate, experiments, filter_kl):
            assert module.sample_paths is not original
            assert module.sample_paths.__wrapped__ is original
        experiments.threshold_probe("psi1", hmm_frontier.ConstraintBox(0.1, 0.2, 0.1, 0.3, 3),
                                    50, 1.0, 4, 1)
    for module in (hmm_frontier, simulate, experiments, filter_kl):
        assert module.sample_paths is original
    spans = tracer.summary()
    assert spans["simulate.sample_paths"]["calls"] == 3  # KL paths, then one set per label
    assert spans["filter_kl.loglik_batch"]["calls"] == 6
    root = spans["experiments.threshold_probe"]
    assert abs(sum(s["self_s"] for s in spans.values()) - root["durations"][0]) < 1e-6
