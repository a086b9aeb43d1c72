"""The four benchmark workloads, each a sequence of CLI operations.

An operation runs one or more ``hmm-frontier`` commands in-process through
``hmm_frontier.cli.cli_main`` and checks their outputs.  Operation ``i`` of a
run draws its CLI seeds from the workload seed alone, so the same workload
seed always gives the same inputs.  The checks read only statistical gates,
never RNG stream bytes, so they keep holding when the samplers change.

Each workload counts its own unit of work, fixed by the command arguments
and not by the implementation: sweep rows fitted (``fits_per_s``),
observations simulated, scored or fitted (``obs_per_s``), or parameter
pairs probed (``pairs_per_s``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

# Criterion 5's box and truth (p, q, f0, f1 of the seeded acceptance test).
SWEEP_BOX = ("0.1", "0.3", "0.3", "0.3", "3")
SWEEP_THETA = ("0.2", "0.3", "0.7,0.2,0.1", "0.1,0.2,0.7")
# Criterion 8 runs on the CLI's default box; criterion 9 has its own.
PROBE_BOX = ("0.1", "0.2", "0.1", "0.3", "3")
EQUIV_BOX = ("0.05", "0.3", "0.3", "0.3", "3")

SIZES = {
    "full": {
        "sweep_grid": (1000, 10000, 100000),
        "probe_hard": (100000, 0.001, 100),  # n, c, replicas
        "probe_contrast": (10000, 1.0, 500),
        "long_n": 300000,
        "equiv_pairs": 1000,
    },
    "smoke": {
        "sweep_grid": (1000, 10000),
        "probe_hard": (2000, 0.0001, 32),
        "probe_contrast": (1000, 1.0, 100),
        "long_n": 3000,
        "equiv_pairs": 100,
    },
}


def box_flags(box):
    return [
        f for pair in zip(("--delta", "--epsilon", "--zeta", "--L", "--k"), box) for f in pair
    ]


class Run:
    """One measured pass: times the CLI calls and tallies the checks."""

    def __init__(self, tracer, force_fail=False):
        self.tracer = tracer
        self.ops = 0
        self.wall = 0.0  # the whole pass, checks included
        self.cli_wall = 0.0  # CLI calls only: the base of the throughput
        self.work = 0
        self.op_cli = []  # CLI time, one per operation
        self.op_rates = []  # work over CLI time, one per operation
        self.reference_s = []  # host speed reference times, around the operations
        self.attempted = 0
        self.failures = []
        self._force_fail = force_fail

    def cli(self, argv):
        """Run one CLI command in-process; returns (exit code, stderr text)."""
        cli_main = sys.modules["hmm_frontier.cli"].cli_main  # the traced binding
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
        except Exception:  # a crash is a failed operation, not a crashed run
            code = -1
            err.write(traceback.format_exc())
        self.cli_wall += time.perf_counter() - start
        return code, err.getvalue()

    def check(self, name, ok, detail=""):
        """Count one checked operation; a failed check counts in failed_ratio."""
        self.attempted += 1
        if self._force_fail:
            self._force_fail = False
            ok, detail = False, f"forced failure ({detail})"
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Sweep:
    """``rate-sweep`` on criterion 5's box; one replica of the n-grid per operation."""

    unit = "fits_per_s"

    def __init__(self, sizes, workdir):
        self.grid = sizes["sweep_grid"]
        self.workdir = workdir

    def op(self, i, seed, run):
        out = self.workdir / f"sweep-{i}.csv"
        before = len(run.tracer.attributes("estimator.min_distance_fit"))
        code, err = run.cli(
            ["rate-sweep", *box_flags(SWEEP_BOX), "--n-grid", ",".join(map(str, self.grid)),
             "--replicas", "1", "--seed", str(seed), "--out", str(out)]
        )
        fits = run.tracer.attributes("estimator.min_distance_fit")[before:]
        rows = _read_csv(out) if code == 0 else []
        run.work += len(rows)
        fitted = iter(fits)
        for n in self.grid:
            row = next((r for r in rows if int(r["n"]) == n), None)
            if row is None:
                run.check("sweep.row", False, f"seed {seed} n={n}: no row (exit {code}) {err[-300:]}")
            elif row["error"]:
                run.check("sweep.row", False, f"seed {seed} n={n}: {row['error']}")
            else:
                fit = next(fitted, None)
                ok = fit is not None and fit["converged"]
                run.check("sweep.row", ok, f"seed {seed} n={n}: fit not converged")
        # The fitted triple-law distance shrinks like n^-1/2 for every truth in
        # the box, so one replica suffices; loss_phi2 depends on the truth too
        # much for a gate on the few truths a run can afford.  Only the ends
        # of the grid are compared: across one decade the expected drop is
        # about 3x and one replica can reverse it (seed 377335574 fits
        # 0.0094, 0.0098, 0.0037), across the whole grid it is about 10x.
        objectives = [float(r["objective"]) for r in rows if not r["error"]]
        if len(objectives) == len(self.grid):
            ok = objectives[-1] < objectives[0]
            run.check("sweep.objective_decreasing", ok, f"seed {seed}: {objectives}")


class Probe:
    """``threshold-probe``: criterion 8's hard pair, then its psi1 contrast."""

    unit = "obs_per_s"

    def __init__(self, sizes, workdir):
        self.cases = (
            ("phi1_phi3", *sizes["probe_hard"], lambda err: err >= 0.3),
            ("psi1", *sizes["probe_contrast"], lambda err: err <= 0.3),
        )
        self.workdir = workdir

    def op(self, i, seed, run):
        for j, (kind, n, c, replicas, gate) in enumerate(self.cases):
            out = self.workdir / f"probe-{i}-{kind}.json"
            code, err = run.cli(
                ["threshold-probe", "--kind", kind, "--n", str(n), "--c", repr(c),
                 "--replicas", str(replicas), "--seed", str(seed + j), *box_flags(PROBE_BOX),
                 "--out", str(out)]
            )
            # KL paths under a, then test paths under a and under b
            run.work += 3 * replicas * n
            if code != 0:
                run.check(f"probe.{kind}", False, f"seed {seed + j}: exit {code} {err[-300:]}")
                continue
            test_error = _read_json(out)["test_error"]
            run.check(f"probe.{kind}", gate(test_error), f"seed {seed + j}: test_error {test_error}")


class LongPath:
    """One long path: ``simulate`` to CSV, ``estimate`` it, ``kl-probe`` criterion 7's pair."""

    unit = "obs_per_s"
    kl_replicas = 2  # the minimum kl-probe accepts

    def __init__(self, sizes, workdir):
        self.n = sizes["long_n"]
        self.workdir = workdir
        # Criterion 7's pair: a fixed psi1 perturbation along psi2.
        psi2 = [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0]
        psi1 = [1 / 3, 1 / 3, 1 / 3]
        for name, shift in (("a", 0.0), ("b", 0.03)):
            params = {
                "phi": [0.2, 0.05, 0.4],
                "psi1": [u + shift * v for u, v in zip(psi1, psi2)],
                "psi2": psi2,
            }
            (workdir / f"params-{name}.json").write_text(json.dumps(params), encoding="utf-8")

    def op(self, i, seed, run):
        n, wd = self.n, self.workdir
        path, fit, kl = wd / f"path-{i}.csv", wd / f"fit-{i}.json", wd / f"kl-{i}.csv"
        p, q, f0, f1 = SWEEP_THETA
        code, err = run.cli(
            ["simulate", "--p", p, "--q", q, "--f0", f0, "--f1", f1, "--n", str(n),
             "--seed", str(seed), "--out", str(path)]
        )
        run.check("long.simulate", code == 0, f"seed {seed}: exit {code} {err[-300:]}")
        if code == 0:
            code, err = run.cli(
                ["estimate", "--input", str(path), *box_flags(SWEEP_BOX), "--seed", str(seed),
                 "--out", str(fit)]
            )
            ok = code == 0 and _read_json(fit)["converged"]
            run.check("long.estimate", ok, f"seed {seed}: exit {code}, not converged {err[-300:]}")
        code, err = run.cli(
            ["kl-probe", "--params-a", str(wd / "params-a.json"),
             "--params-b", str(wd / "params-b.json"), "--n-grid", str(n),
             "--replicas", str(self.kl_replicas), "--seed", str(seed), "--out", str(kl)]
        )
        ok = code == 0 and float(_read_csv(kl)[0]["kl_mean"]) > 0.0
        run.check("long.kl_probe", ok, f"seed {seed}: exit {code}, kl_mean <= 0 {err[-300:]}")
        run.work += (2 + self.kl_replicas) * n  # simulated, fitted, scored


class Equiv:
    """``equiv-probe`` on criterion 9's box."""

    unit = "pairs_per_s"

    def __init__(self, sizes, workdir):
        self.pairs = sizes["equiv_pairs"]
        self.workdir = workdir

    def op(self, i, seed, run):
        out = self.workdir / f"equiv-{i}.json"
        code, err = run.cli(
            ["equiv-probe", *box_flags(EQUIV_BOX), "--pairs", str(self.pairs),
             "--seed", str(seed), "--out", str(out)]
        )
        run.work += self.pairs
        if code != 0:
            run.check("equiv.gates", False, f"seed {seed}: exit {code} {err[-300:]}")
            return
        s = _read_json(out)
        ok = (
            s["min_ratio"] > 0.0
            and s["spread"] < 1e4
            and s["pairs_used"] + s["pairs_skipped"] == self.pairs
        )
        run.check("equiv.gates", ok, f"seed {seed}: {s}")


WORKLOADS = {"sweep": Sweep, "probe": Probe, "long-path": LongPath, "equiv": Equiv}
