"""The V-scan bank: fixed log-likelihood scans for checking a change to the scan.

Criterion 7's pair (a, and b = a with psi1 moved 0.03 along psi2) scores
paths drawn under a by ``sample_paths(theta_a, n, R, [904, R, n])``:
``loglik_batch([a, b], y, [n // 3, n])`` and ``loglik_batch(a, y)`` at
R x n = 2 x 3e5, 100 x 1e5, 500 x 1e4, 1 x 100,001 and 4000 x 1000,
``loglik_batch([a, b], y, range(997, n + 1, 997))`` at 2 x 3e5 (blocks of
256 steps, 6 symbols a step, so its 300 checkpoints fall at every offset
within a step), and
``v_recursion(a, y)`` on one path of n = 10, 5000 and 100,001 steps.  At
K = 4 and K = 8 a pair of the same shape (psi1 uniform, psi2 along symbols
1 and 2, b's psi1 moved 0.03 along psi2) scores the same two calls at
R x n = 20 x 50,000 and 300 x 3000.  The sampler cases hash the bytes of
``sample_paths(theta, n, R, [905, R, n])`` (symbols, and states where
kept) under a's theta at R x n = 100 x 1e5, 500 x 1e4 and, with states,
1 x 3e5, under the K = 8 pair's a at 20 x 50,000, and at K = 300 (uint16
symbols, with states) at 10 x 10,000.  Two more thetas with a's emissions
set the other reset bit: a's p and q swapped (q < p, so a reset sets 1)
and p = q = a's p (no reset); each is sampled with states at
3 x 100,003 and 4000 x 1000, whose transition draws end inside a 64-step
word and, at 4000 paths, span 65 steps.  Run from the repository root:

    PYTHONPATH=src python tests/scan_bank.py > bank.jsonl
    PYTHONPATH=src python tests/scan_bank.py --against bank.jsonl

The first form prints one JSON line per case: the totals and prefixes of
``loglik_batch`` as exact floats, or the log-likelihood of ``v_recursion``
with a SHA-256 of its V and filter trajectories and the largest |V|, or a
SHA-256 of the sampled bytes.  With ``--against FILE`` it prints, for each
case, "identical" or the largest relative difference from the same case in
FILE (and which hashes differ), or "new" for a case FILE lacks, and exits 1
when some case differs.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from hmm_frontier import (
    PhiPsiParams,
    ThetaParams,
    loglik_batch,
    phipsi_to_theta,
    sample_paths,
    v_recursion,
)

PSI2 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
A = PhiPsiParams(phi1=0.2, phi2=0.05, phi3=0.4, psi1=np.full(3, 1.0 / 3.0), psi2=PSI2)
B = PhiPsiParams(phi1=0.2, phi2=0.05, phi3=0.4, psi1=A.psi1 + 0.03 * PSI2, psi2=PSI2)
BATCHES = ((2, 300_000), (100, 100_000), (500, 10_000), (1, 100_001), (4000, 1000))
# (R, n, every): a checkpoint every 997 steps
DENSE = (2, 300_000, 997)
TRAJECTORIES = (10, 5000, 100_001)
WIDE_BATCHES = ((20, 50_000), (300, 3000))
# (R, n, keep states) of the sampler cases under a's theta
SAMPLES = ((100, 100_000, False), (500, 10_000, False), (1, 300_000, True))
# (R, n) of the cases under the thetas whose resets set 1 or never happen
RESET_SAMPLES = ((3, 100_003), (4000, 1000))


def wide_pair(k):
    """The K-symbol pair of the wider cases."""
    psi2 = np.r_[1.0, -1.0, np.zeros(k - 2)] / np.sqrt(2.0)
    a = PhiPsiParams(phi1=0.2, phi2=0.05, phi3=0.2, psi1=np.full(k, 1.0 / k), psi2=psi2)
    return a, PhiPsiParams(phi1=0.2, phi2=0.05, phi3=0.2, psi1=a.psi1 + 0.03 * psi2, psi2=psi2)


def paths(rows, n, a=A):
    return sample_paths(phipsi_to_theta(a), n, rows, [904, rows, n], hidden=False).observed


def wide_theta(k):
    """A K-symbol theta with every mass distinct (K = 300 needs uint16 symbols)."""
    f0 = np.linspace(1.0, 2.0, k)
    return ThetaParams(p=0.2, q=0.3, f0=f0 / f0.sum(), f1=f0[::-1] / f0.sum())


def sample_record(case, theta, rows, n, hidden):
    ps = sample_paths(theta, n, rows, [905, rows, n], hidden=hidden)
    rec = {"case": case, "observed_sha256": hashlib.sha256(ps.observed.tobytes()).hexdigest()}
    if hidden:
        rec["hidden_sha256"] = hashlib.sha256(ps.hidden.tobytes()).hexdigest()
    return rec


def batch_record(case, a, b, y):
    n = y.shape[1]
    total, prefix = loglik_batch([a, b], y, [n // 3, n])
    return {
        "case": case,
        "total": total.tolist(),
        "prefix": prefix.tolist(),
        "total_a": loglik_batch(a, y).tolist(),
    }


def sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def run_bank():
    """Yield one record per case, in a fixed order."""
    for rows, n in BATCHES:
        yield batch_record(f"loglik_batch-{rows}x{n}", A, B, paths(rows, n))
    rows, n, every = DENSE
    total, prefix = loglik_batch([A, B], paths(rows, n), range(every, n + 1, every))
    yield {
        "case": f"loglik_batch-{rows}x{n}-every-{every}",
        "total": total.tolist(),
        "prefix": prefix.tolist(),
    }
    for n in TRAJECTORIES:
        tr = v_recursion(A, paths(1, n)[0])
        yield {
            "case": f"v_recursion-{n}",
            "loglik": tr.loglik,
            "v_sha256": sha256(tr.v),
            "predfilter_sha256": sha256(tr.predfilter),
            "max_abs_v": float(np.abs(tr.v).max()),
        }
    for k in (4, 8):
        a, b = wide_pair(k)
        for rows, n in WIDE_BATCHES:
            yield batch_record(f"loglik_batch-k{k}-{rows}x{n}", a, b, paths(rows, n, a))
    theta_a = phipsi_to_theta(A)
    for rows, n, hidden in SAMPLES:
        yield sample_record(f"sample_paths-{rows}x{n}", theta_a, rows, n, hidden)
    swapped = ThetaParams(p=theta_a.q, q=theta_a.p, f0=theta_a.f0, f1=theta_a.f1)
    equal = ThetaParams(p=theta_a.p, q=theta_a.p, f0=theta_a.f0, f1=theta_a.f1)
    for name, theta in (("q<p", swapped), ("p=q", equal)):
        for rows, n in RESET_SAMPLES:
            yield sample_record(f"sample_paths-{name}-{rows}x{n}", theta, rows, n, True)
    theta_k8 = phipsi_to_theta(wide_pair(8)[0])
    yield sample_record("sample_paths-k8-20x50000", theta_k8, 20, 50_000, False)
    yield sample_record("sample_paths-k300-10x10000", wide_theta(300), 10, 10_000, True)


def compare(rec, old) -> str:
    """"identical", or how ``rec`` differs from ``old``: its largest relative difference."""
    if rec == old:
        return "identical"
    worst = 0.0
    for name, value in rec.items():
        if not isinstance(value, str):
            got, want = np.asarray(value, dtype=float), np.asarray(old[name], dtype=float)
            rel = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
            worst = max(worst, float(rel.max()))
    moved = [name for name, value in rec.items() if isinstance(value, str) and value != old[name]]
    return f"largest relative difference {worst:.3e}" + "".join(f"; {m} differs" for m in moved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", help="JSON lines from an earlier run")
    args = parser.parse_args(argv)
    ref = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            ref = {rec["case"]: rec for rec in map(json.loads, filter(str.strip, fh))}
    differ = 0
    for rec in run_bank():
        if ref is None:
            print(json.dumps(rec), flush=True)
            continue
        old = ref.get(rec["case"])
        verdict = "new" if old is None else compare(rec, old)
        differ += verdict not in ("identical", "new")
        print(f"{rec['case']}: {verdict}", flush=True)
    if ref is not None:
        print(f"# {differ} of {len(ref)} cases differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
