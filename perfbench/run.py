"""Benchmark of the hmm-frontier CLI: one workload per call.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src`` with no install step.  ``--trace 0`` measures the end-to-end metrics
(set-up time, throughput, peak RSS); ``--trace 1`` measures the per-layer
metrics in a separate traced run.  The last line of stdout is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.

The workload runs in one fresh child process with BLAS/OpenMP threads
pinned to 1, so ``ru_maxrss`` is its own and the load never exceeds one
core.  Scratch files go to ``.perfbench_work`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sweep", "probe", "long-path", "equiv")
SETUP_REPEATS = {"full": 3, "smoke": 1}
DEADLINE_S = 170.0  # every run must end within 180 s
# A fresh process imports the CLI and runs one trivial command.
SETUP_CODE = (
    "import sys; from hmm_frontier.cli import cli_main; "
    "sys.exit(cli_main(['simulate', '--n', '10', '--seed', sys.argv[1]]))"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(repeats, seed, env):
    """Median wall time of a fresh process importing the CLI and running it once."""
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(seed + i)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(SETUP_REPEATS), default="full",
                    help="smoke: toy inputs for the benchmark's own test")
    ap.add_argument("--inject-failure", action="store_true",
                    help="record the first correctness check as failed")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "hmm_frontier" / "__init__.py").is_file():
        print(f"error: no hmm_frontier sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    metrics = {}
    if not args.trace:
        setup = setup_seconds(SETUP_REPEATS[args.scale], args.seed, env)
        metrics["setup_s"] = {"value": setup, "unit": "s"}

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    result_path = WORK / f"result-{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", str(WORK / tag), "--result", str(result_path),
    ]
    if args.inject_failure:
        cmd.append("--inject-failure")
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       timeout=DEADLINE_S - (time.perf_counter() - started))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: workload {args.workload} did not finish: {exc}", file=sys.stderr)
        return 1
    finally:
        result_path.unlink(missing_ok=True)

    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  trace {args.trace}"
          f"  ops {result['ops']}  work {result['work']}  cli_wall_s {result['cli_wall_s']:.3f}")
    rates = sorted(result["op_rates"])
    print(f"{result['unit']} per operation: min {rates[0]:.6g}  median {statistics.median(rates):.6g}"
          f"  max {rates[-1]:.6g}  ({len(rates)} operations)")
    if args.trace:
        metrics.update(result["metrics"])
        for name in result["missing"]:
            print(f"missing counter (not exposed by the layer): {name}")
    else:
        # Scale the timings to a host of nominal speed (see hostspeed.py).
        reference = statistics.median(result["reference_s"])
        scale = reference / result["nominal_s"]
        rate = result["metrics"][result["unit"]]
        print(f"host reference {reference:.4f} s, median of {len(result['reference_s'])}"
              f" (nominal {result['nominal_s']} s): scale {scale:.4f}")
        print(f"unscaled {result['unit']} {rate:.6g} 1/s, setup_s {setup:.6g} s")
        metrics["setup_s"]["value"] = setup / scale
        metrics["throughput_per_s"] = {"value": rate * scale, "unit": "1/s"}
        metrics["peak_rss_mb"] = {"value": result["metrics"]["peak_rss_mb"], "unit": "MB"}
        # The workload's own name for its throughput, as the issue tables use it.
        print(f"{result['unit']} {metrics['throughput_per_s']['value']:.6g} 1/s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted})")
    for line in result["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
