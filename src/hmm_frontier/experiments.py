"""Rate sweeps, two-point hypothesis constructions, and threshold probes.

The two-point constructions produce explicit parameter pairs whose triple
laws are nearly indistinguishable at sample size n: for each target
component (phi1/phi3 jointly, phi2, psi1, psi2) the pair is separated by
roughly c / (sqrt(n) * box-dependent factors) while matching the moment
coordinates that would otherwise dominate the statistical distance — in
particular the phi1_phi3 and phi2 pairs share the value of r(phi) exactly.
Sweeps drive the estimator across a grid of sample sizes and fit log-log
slopes of median losses; threshold probes run likelihood-ratio tests on
the constructed pairs to locate the learnability frontier empirically.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import DegenerateFitError, FrontierError, InfeasiblePairError, ValidationError
from .estimator import LossRecord, losses, min_distance_fit
from .filter_kl import KLEstimate, increasing_grid, llr_paths
from .params import (
    ConstraintBox,
    PhiPsiParams,
    box_member,
    exists_witness,
    phipsi_to_theta,
    r_of_phi,
    sample_phipsi,
)
from .simulate import derive_seed, empirical_triple_law, sample_paths
from .triple_law import rho

PAIR_KINDS = ("phi1_phi3", "phi2", "psi1", "psi2")


@dataclass(frozen=True, eq=False)
class HypothesisPair:
    """Two nearly indistinguishable parameters with their separation record."""

    a: PhiPsiParams
    b: PhiPsiParams
    kind: str
    R: float
    S: float
    separation: LossRecord
    rho_ab: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "R": self.R,
                "S": self.S,
                "rho": self.rho_ab,
                "a": json.loads(self.a.to_json()),
                "b": json.loads(self.b.to_json()),
                "separation": {
                    k: getattr(self.separation, k) for k in ("phi1", "phi2", "phi3", "psi1", "psi2")
                },
            }
        )


def lower_bound_pair(kind: str, n: int, box: ConstraintBox, c: float) -> HypothesisPair:
    """Build the two-point pair of the given kind at sample size n.

    Feasibility inequalities are checked and never silently clipped:
    R <= delta <= 1/6 for phi1_phi3, R <= epsilon <= 1/3 for phi2,
    K > 2 for psi2, plus the compatibility condition on zeta.  An empty box
    raises NoMemberError; a member outside the box, InfeasiblePairError
    naming the member and the first rule that ``box_member`` finds broken.
    """
    if kind not in PAIR_KINDS:
        raise ValidationError(f"unknown pair kind {kind!r}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0.0 <= c < math.inf:
        raise ValidationError(f"c must be finite and >= 0: {c}")
    if not box.compatibility_ok:
        raise InfeasiblePairError(
            f"zeta={box.zeta} exceeds compatibility bound {box.compatibility_bound}"
        )
    witness = exists_witness(box)  # raises NoMemberError on an empty box
    d, e, z = box.delta, box.epsilon, box.zeta
    psi1, psi2 = witness.psi1, witness.psi2
    root_n = math.sqrt(n)
    S = 0.0

    if kind == "phi1_phi3":
        if d > 1.0 / 6.0 + 1e-15:
            raise InfeasiblePairError(f"need delta <= 1/6, got {d}")
        R = c / (e * e * z**3 * root_n)
        if R > d + 1e-15:
            raise InfeasiblePairError(f"need R <= delta: R={R}, delta={d}")
        S = (2.0 - 6.0 * d - R) * R / (6.0 * d - 9.0 * d * d)
        a = (1.0 - 3.0 * d, e, z * math.sqrt(1.0 + S), psi1, psi2)
        b = (1.0 - 3.0 * d - R, e, z, psi1, psi2)
    elif kind == "phi2":
        if e > 1.0 / 3.0 + 1e-15:
            raise InfeasiblePairError(f"need epsilon <= 1/3, got {e}")
        R = c / (d * e * z * z * root_n)
        if R > e + 1e-15:
            raise InfeasiblePairError(f"need R <= epsilon: R={R}, epsilon={e}")
        a = (1.0 - 3.0 * d, e, z * math.sqrt(1.0 + R / e), psi1, psi2)
        b = (1.0 - 3.0 * d, e + R, z, psi1, psi2)
    elif kind == "psi1":
        R = c / root_n
        a = (0.0, e, z, psi1, psi2)
        b = (0.0, e, z, psi1 + R * psi2, psi2)
    else:  # psi2
        if box.K <= 2:
            raise InfeasiblePairError("psi2 construction requires K > 2")
        R = c / (root_n * d * e * z * z)
        if R >= 2.0:
            raise InfeasiblePairError(f"need R < 2, got R={R}")
        h = np.zeros(box.K)
        h[0] = 1.0 / math.sqrt(2.0)
        h[2] = -1.0 / math.sqrt(2.0)
        alpha = R / (2.0 - R)
        tilde = (psi2 + alpha * h) / (1.0 + alpha)
        tilde = tilde / np.linalg.norm(tilde)
        a = (1.0 - 3.0 * d, e, z, psi1, psi2)
        b = (1.0 - 3.0 * d, e, z, psi1, tilde)
    members = []
    for name, coords in (("a", a), ("b", b)):
        try:
            members.append(box_member(*coords, box))
        except ValidationError as exc:
            raise InfeasiblePairError(f"{kind} member {name} {exc}") from exc
    a, b = members
    if kind in ("phi1_phi3", "phi2"):
        gap = abs(r_of_phi(a.phi) - r_of_phi(b.phi))
        if gap > 1e-12:
            raise InfeasiblePairError(f"r-equality violated by {gap:.3e}")
    return HypothesisPair(
        a=a, b=b, kind=kind, R=R, S=S,
        separation=losses(b, a), rho_ab=rho(a, b),
    )


_FIT_COLUMNS = (*(f"loss_{f.name}" for f in fields(LossRecord)), "objective")
SWEEP_COLUMNS = (
    "n", "replica", "seed", "delta", "epsilon", "zeta", "L", "K",
    *_FIT_COLUMNS, "wall_ms", "error",
)


def rate_sweep(box: ConstraintBox, n_grid, replicas: int, seed, *, resample_truths=False):
    """Run the estimator over the (n, replica) grid of an increasing ``n_grid``.

    The truth is fixed per sweep by default (drawn once from the box; as
    every row's truth, a failed draw raises).  ``resample_truths`` draws a
    new truth per replica instead, once for every n, and not the fixed one.
    Returns row dicts, deterministic given the seed; failures, a replica's
    failed draw among them, fill the error column and the sweep continues.
    """
    n_grid = increasing_grid(n_grid, "n_grid")
    if replicas < 1:
        raise ValidationError(f"replicas must be >= 1: {replicas}")
    if resample_truths:
        truths = []
        for rep in range(replicas):
            try:
                truths.append(sample_phipsi(box, derive_seed(seed, 1, rep)))
            except FrontierError as exc:  # raised again in each of the replica's rows
                truths.append(exc)
    else:
        truths = [sample_phipsi(box, derive_seed(seed, 0))] * replicas
    rows = []
    for n in n_grid:
        for rep, truth_r in enumerate(truths):
            seed_int = int(derive_seed(seed, n, rep).generate_state(1)[0])
            row = {
                "n": n, "replica": rep, "seed": seed_int,
                "delta": box.delta, "epsilon": box.epsilon, "zeta": box.zeta,
                "L": box.L, "K": box.K, "error": "", **dict.fromkeys(_FIT_COLUMNS, math.nan),
            }
            t0 = time.perf_counter()
            try:
                if isinstance(truth_r, FrontierError):
                    raise truth_r
                theta = phipsi_to_theta(truth_r)
                path = sample_paths(theta, n, 1, seed_int, hidden=False)
                phat = empirical_triple_law(path.observed[0], box.K)
                fit = min_distance_fit(phat, box)
                rec = losses(fit.estimate, truth_r)
                row.update(zip(_FIT_COLUMNS, (*astuple(rec), fit.objective)))
            except FrontierError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            row["wall_ms"] = (time.perf_counter() - t0) * 1000.0
            rows.append(row)
    return rows


def sweep_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow({k: row.get(k, "") for k in SWEEP_COLUMNS})
    return buf.getvalue()


def slope_fit(rows, column: str):
    """OLS fit of log(median loss) against log(n); returns (slope, intercept, R^2)."""
    by_n = {}
    for row in rows:
        val = row.get(column)
        if val is None or isinstance(val, str) or not math.isfinite(val):
            continue
        by_n.setdefault(row["n"], []).append(float(val))
    points = []
    for n, vals in sorted(by_n.items()):
        med = float(np.median(vals))
        if med > 0.0:
            points.append((math.log(n), math.log(med)))
    if len(points) < 2:
        raise DegenerateFitError(
            f"need >= 2 usable sample sizes for {column}, got {len(points)}"
        )
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # equal medians leave only rounding in ss_tot: the flat line fits exactly
    flat = ss_tot <= y.size * (8.0 * np.finfo(float).eps * float(np.abs(y).max())) ** 2
    r2 = 1.0 if flat else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class ThresholdProbe:
    """Distinguishability record for one constructed pair at one sample size."""

    kind: str
    n: int
    c: float
    rho_ab: float
    kl_mean: float
    kl_stderr: float
    test_error: float
    separation: LossRecord


def threshold_probe(
    kind: str, box: ConstraintBox, n: int, c: float, replicas: int, seed
) -> ThresholdProbe:
    """Likelihood-ratio testing on a constructed pair.

    Samples ``replicas`` paths under each hypothesis (label l with
    ``derive_seed(seed, 1 + l)``), classifies each path by the sign of the
    log-likelihood ratio (exact ties broken by a fair coin seeded with
    ``derive_seed(seed, 3)``), and reports the average error rate with the
    MC KL estimate read off the label-0 paths, drawn under ``a``.
    """
    pair = lower_bound_pair(kind, n, box, c)
    rng = np.random.default_rng(derive_seed(seed, 3))
    errors = 0
    for label, truth in enumerate((pair.a, pair.b)):
        diff = llr_paths(pair.a, pair.b, truth, [n], replicas, derive_seed(seed, 1 + label))[:, 0]
        if label == 0:
            kl = KLEstimate.of(diff)
        pick_b = (diff < 0) | ((diff == 0) & (rng.random(replicas) < 0.5))
        errors += int(np.sum(pick_b != bool(label)))
    return ThresholdProbe(
        kind=kind, n=n, c=c, rho_ab=pair.rho_ab,
        kl_mean=kl.mean, kl_stderr=kl.stderr,
        test_error=errors / (2.0 * replicas),
        separation=pair.separation,
    )


__all__ = [
    "PAIR_KINDS",
    "SWEEP_COLUMNS",
    "HypothesisPair",
    "ThresholdProbe",
    "lower_bound_pair",
    "rate_sweep",
    "sweep_rows_to_csv",
    "slope_fit",
    "threshold_probe",
]
