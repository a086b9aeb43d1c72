"""The 72-fit bank: a fixed set of minimum-distance fits for comparing estimators.

Four boxes, six truths each (``sample_phipsi(box, [902, i])``), and one
path per truth and sample size n in {1e3, 1e4, 1e5} (``sample_path(theta,
n, [903, i, n])``), each fitted with ``min_distance_fit`` at its defaults.
Run from the repository root:

    PYTHONPATH=src python tests/fit_bank.py > bank.jsonl
    PYTHONPATH=src python tests/fit_bank.py --against bank.jsonl

The first form prints one JSON line per fit (box, truth, n, objective,
``converged``, ``starts``, ``best_start``, ``nfev``, the estimate's phi1,
phi2, phi3, psi1 and psi2 as exact floats, and seconds).  With
``--against FILE`` it also prints, for each fit, the relative difference of
its objective from the same fit in FILE, and then how many fits are worse,
better or the same at 1e-9 relative, how many objectives are bit-identical,
whether ``converged``, ``starts``, ``best_start`` and ``nfev`` agree
everywhere, and how many estimates are bit-identical; it exits 1 when one of
those four differs in some fit, or some objective or estimate is not
bit-identical.  A FILE written before estimates were recorded is compared
on the rest, and the summary says ``estimate not recorded``.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from hmm_frontier import (
    ConstraintBox,
    empirical_triple_law,
    min_distance_fit,
    phipsi_to_theta,
    sample_path,
    sample_phipsi,
)

BOXES = {
    "criterion5": ConstraintBox(0.1, 0.3, 0.3, 0.3, 3),
    "cli-default": ConstraintBox(0.1, 0.2, 0.1, 0.3, 3),
    "criterion9": ConstraintBox(0.05, 0.3, 0.3, 0.3, 3),
    "thin-k4": ConstraintBox(0.02, 0.05, 0.05, 0.3, 4),
}
TRUTHS = 6
SIZES = (10**3, 10**4, 10**5)
SAME = 1e-9
FLAGS = ("converged", "starts", "best_start", "nfev")
ESTIMATE = ("phi1", "phi2", "phi3", "psi1", "psi2")


def run_bank():
    """Yield one record per fit, in a fixed order."""
    for name, box in BOXES.items():
        for i in range(TRUTHS):
            theta = phipsi_to_theta(sample_phipsi(box, [902, i]))
            for n in SIZES:
                path = sample_path(theta, n, [903, i, n])
                t0 = time.perf_counter()
                fit = min_distance_fit(empirical_triple_law(path.observed, box.K), box)
                estimate = {k: np.asarray(getattr(fit.estimate, k)).tolist() for k in ESTIMATE}
                yield {
                    "box": name,
                    "truth": i,
                    "n": n,
                    "objective": fit.objective,
                    "converged": fit.converged,
                    "starts": fit.starts,
                    "best_start": fit.best_start,
                    "nfev": fit.nfev,
                    "estimate": estimate,
                    "seconds": round(time.perf_counter() - t0, 4),
                }


def key(rec) -> tuple:
    return rec["box"], rec["truth"], rec["n"]


def bits(estimate) -> list:
    """The estimate's coordinates as hex strings, so -0.0 and 0.0 differ and NaN matches NaN."""
    return [float(v).hex() for k in ESTIMATE for v in np.ravel(estimate[k])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", help="JSON lines from an earlier run")
    args = parser.parse_args(argv)
    ref = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            ref = {key(rec): rec for rec in map(json.loads, filter(str.strip, fh))}
    worse = better = same = identical = estimates = 0
    recorded = True
    differ = set()
    for rec in run_bank():
        if ref is not None:
            old = ref[key(rec)]
            rel = (rec["objective"] - old["objective"]) / old["objective"]
            rec["rel_diff"] = rel
            worse += rel > SAME
            better += rel < -SAME
            same += abs(rel) <= SAME
            identical += rec["objective"] == old["objective"]
            differ.update(k for k in FLAGS if rec[k] != old[k])
            recorded = recorded and "estimate" in old
            estimates += recorded and bits(rec["estimate"]) == bits(old["estimate"])
        print(json.dumps(rec), flush=True)
    total = worse + better + same
    if ref is not None:
        verdict = f"DIFFER in {', '.join(k for k in FLAGS if k in differ)}" if differ else "agree"
        shown = f"bit-identical {estimates} of {total}" if recorded else "not recorded"
        print(
            f"# worse {worse}  better {better}  same {same} (at {SAME:g} relative);"
            f" bit-identical {identical} of {total};"
            f" {', '.join(FLAGS)} {verdict}; estimate {shown}",
            file=sys.stderr,
        )
    moved = ref is not None and (identical < total or (recorded and estimates < total))
    return 1 if differ or moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
