"""Child process of the benchmark: runs one workload and writes its result.

Usage (normally started by ``run.py``, which sets PYTHONPATH to ``src`` and
pins BLAS/OpenMP threads to 1):

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 30 \
        --trace 0 --scale full --result out.json

Untraced (``--trace 0``), it runs whole operations until the next one would
end after ``--seconds`` (always at least one), times the host speed
reference around them, and reports peak RSS and throughput: the median over
operations of each one's work over its CLI time.  Traced (``--trace 1``),
it runs that pass with every layer wrapped, then replays its first third of
the operations (at least one) untraced to measure the tracing overhead, and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_S, reference_seconds
from tracer import RESULTS_ONLY, TRACED, Tracer
from workloads import SIZES, WORKLOADS, Run

# Counters the layers do not expose from outside today (ROADMAP item 5).
MISSING = (
    "estimator objective evaluations per fit",
    "params.sample_phipsi rejections per accepted sample",
)


def run_pass(workload, seeds, seconds, tracer, force_fail, ops=None, reference=False):
    """Run whole operations until the next would end after ``seconds`` (at
    least one), or exactly ``ops`` of them when given.  With ``reference``,
    time the host speed reference before each operation and after the last."""
    run = Run(tracer, force_fail)
    start = time.perf_counter()
    while run.ops != ops:
        elapsed = time.perf_counter() - start
        if ops is None and run.ops and elapsed + elapsed / run.ops > seconds:
            break
        if reference:
            run.reference_s.append(reference_seconds())
        work, cli_wall = run.work, run.cli_wall
        workload.op(run.ops, seeds[run.ops], run)
        run.op_cli.append(run.cli_wall - cli_wall)
        run.op_rates.append((run.work - work) / run.op_cli[-1])
        run.ops += 1
    if reference:
        run.reference_s.append(reference_seconds())
    run.wall = time.perf_counter() - start
    return run


class Seeds:
    """CLI seed of each operation, drawn in order from the workload seed."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._drawn = []

    def __getitem__(self, i):
        while len(self._drawn) <= i:
            self._drawn.append(self._rng.randrange(2**31))
        return self._drawn[i]


def pmax10(durations):
    """Highest percentile with at least 10 samples beyond it: (percent, value)."""
    d = sorted(durations)
    if len(d) < 11:
        return 0.0, 0.0
    return 100.0 * (len(d) - 10) / len(d), d[len(d) - 11]


def layer_metrics(tracer, traced, untraced):
    spans = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def span(name):
        return spans.get(name, {"calls": 0, "durations": [], "self_s": 0.0, "attrs": []})

    def ratio(num, den):
        return num / den if den else 0.0

    fit = span("estimator.min_distance_fit")
    pct, value = pmax10(fit["durations"])
    put("estimator.min_distance_fit.calls", fit["calls"], "count")
    put("estimator.min_distance_fit.self_s", fit["self_s"], "s")
    put("estimator.min_distance_fit.s_p50", statistics.median(fit["durations"] or [0.0]), "s")
    put("estimator.min_distance_fit.s_pmax10", value, "s")
    put("estimator.min_distance_fit.s_pmax10_pct", pct, "%")
    for name in ("estimator.moment_init", "estimator.estimate_theta"):
        put(f"{name}.self_s", span(name)["self_s"], "s")
    fits = fit["attrs"]
    put("estimator.fit.converged_ratio", ratio(sum(a["converged"] for a in fits), len(fits)), "ratio")
    put(
        "estimator.fit.init_fallback_ratio",
        ratio(sum(a["init_fallback"] for a in fits), len(fits)),
        "ratio",
    )
    put("estimator.fit.starts_mean", ratio(sum(a["starts"] for a in fits), len(fits)), "count")
    for name in ("simulate.sample_paths", "filter_kl.loglik_batch"):
        s = span(name)
        steps = sum(a["steps"] for a in s["attrs"])
        put(f"{name}.calls", s["calls"], "count")
        put(f"{name}.steps", steps, "count")
        put(f"{name}.self_s", s["self_s"], "s")
        put(f"{name}.ns_per_step", ratio(s["self_s"] * 1e9, steps), "ns")
        put(f"{name}.peak_rss_mb", max((a["rss_mb"] for a in s["attrs"]), default=0.0), "MB")
    counted = span("simulate.empirical_triple_law")
    put("simulate.empirical_triple_law.self_s", counted["self_s"], "s")
    put(
        "simulate.empirical_triple_law.ns_per_obs",
        ratio(counted["self_s"] * 1e9, sum(a["obs"] for a in counted["attrs"])),
        "ns",
    )
    for name in ("simulate.PathSample.to_csv", "filter_kl.kl_estimate"):
        put(f"{name}.self_s", span(name)["self_s"], "s")
    for name in ("params.sample_phipsi", "triple_law.triple_law_phipsi", "triple_law.rho"):
        s = span(name)
        put(f"{name}.calls", s["calls"], "count")
        put(f"{name}.us_per_call", ratio(sum(s["durations"]) * 1e6, s["calls"]), "us")
    put("params.sample_phipsi.self_s", span("params.sample_phipsi")["self_s"], "s")
    for name in (
        "triple_law.equivalence_ratio_probe",
        "experiments.rate_sweep",
        "experiments.threshold_probe",
        "experiments.lower_bound_pair",
        "cli.cli_main",
    ):
        put(f"{name}.self_s", span(name)["self_s"], "s")
    replayed = sum(traced.op_cli[: untraced.ops])
    put("bench.trace_overhead_ratio", replayed / untraced.cli_wall - 1.0, "ratio")
    # Self times partition the traced CLI time; the rest of the pass is checks.
    put(
        "bench.self_time_coverage",
        sum(s["self_s"] for s in spans.values()) / traced.wall,
        "ratio",
    )
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    ap.add_argument("--inject-failure", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import hmm_frontier.cli  # noqa: F401  (loads every layer before wrapping)

    workdir = args.workdir
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](SIZES[args.scale], workdir)
        seeds = Seeds(args.seed)
        if args.trace:
            with Tracer(TRACED) as tracer:
                traced = run_pass(workload, seeds, args.seconds, tracer, args.inject_failure)
            with Tracer(RESULTS_ONLY) as plain:
                # A third of the operations is enough to price the tracing.
                untraced = run_pass(workload, seeds, 0, plain, False, ops=max(1, traced.ops // 3))
            tracer.write(workdir.parent / f"spans-{args.workload}-seed{args.seed}.csv")
            passes = (traced, untraced)
            metrics = layer_metrics(tracer, traced, untraced)
        else:
            with Tracer(RESULTS_ONLY) as tracer:
                run = run_pass(workload, seeds, args.seconds, tracer, args.inject_failure,
                               reference=True)
            passes = (run,)
            # The median over operations: the host's speed drifts in phases of
            # seconds, and a median is not pulled by the operations that ran
            # in a slow phase.
            metrics = {
                workload.unit: statistics.median(run.op_rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir)
    result = {
        "unit": workload.unit,
        "ops": passes[0].ops,
        "work": passes[0].work,
        "cli_wall_s": passes[0].cli_wall,
        "op_rates": passes[0].op_rates,
        "reference_s": passes[0].reference_s,
        "nominal_s": NOMINAL_S,
        "attempted": sum(p.attempted for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "metrics": metrics,
        "missing": MISSING,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
