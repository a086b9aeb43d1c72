"""Parametrizations of the two-state multinomial HMM.

Two coordinate systems are supported and interconverted:

* native coordinates ``(p, q, f0, f1)`` -- transition probabilities of the
  hidden chain plus the two emission densities on ``{1..K}``;
* frontier coordinates ``(phi1, phi2, phi3, psi1, psi2)`` in which the
  distance to the i.i.d. subcase is a simple scalar function of ``phi``:

      phi1 = (q - p) / (p + q)        psi1 = (q f0 + p f1) / (p + q)
      phi2 = 1 - p - q                psi2 = (f0 - f1) / ||f0 - f1||
      phi3 = ||f0 - f1||

The map is invertible (up to label switching) and the inverse is explicit.
This module owns r(phi) and the label-switch sign rule, ``leading_sign``.
Constraint boxes describe the parameter classes over which minimax sweeps
run; membership is checked inequality by inequality with signed slack.

All types are immutable values; all operations are pure and only consume
randomness through an explicit seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateChainError,
    NoMemberError,
    ValidationError,
)

DENSITY_TOL = 1e-12
ZERO_TOL = 1e-12

_MAX_REJECTIONS = 10_000


def _as_density(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"{name} must be a 1-d vector of length >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(arr < -DENSITY_TOL):
        raise ValidationError(f"{name} has a negative entry: min={arr.min()}")
    if abs(arr.sum() - 1.0) > DENSITY_TOL:
        raise ValidationError(f"{name} does not sum to 1 (sum={float(arr.sum())!r})")
    arr = np.clip(arr, 0.0, None)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ThetaParams:
    """Native parameters (p, q, f0, f1) of the two-state chain."""

    p: float
    q: float
    f0: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0) or not (0.0 < self.q <= 1.0):
            raise ValidationError(
                f"transition probabilities must lie in (0, 1]: p={self.p}, q={self.q}"
            )
        object.__setattr__(self, "f0", _as_density(self.f0, "f0"))
        object.__setattr__(self, "f1", _as_density(self.f1, "f1"))
        if self.f0.size != self.f1.size:
            raise ValidationError("f0 and f1 must have equal length")

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "q": self.q, "f0": self.f0.tolist(), "f1": self.f1.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "ThetaParams":
        d = json.loads(text)
        return cls(p=d["p"], q=d["q"], f0=d["f0"], f1=d["f1"])


@dataclass(frozen=True, eq=False)
class PhiPsiParams:
    """Frontier coordinates (phi1, phi2, phi3, psi1, psi2).

    ``degenerate`` marks the i.i.d. limit f0 = f1 (phi3 = 0), where psi2 is
    not identified and is filled with a canonical placeholder direction.
    """

    phi1: float
    phi2: float
    phi3: float
    psi1: np.ndarray
    psi2: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        if abs(self.phi1) > 1.0 + ZERO_TOL or abs(self.phi2) > 1.0 + ZERO_TOL:
            raise ValidationError(
                f"phi1, phi2 must lie in [-1, 1]: phi1={self.phi1}, phi2={self.phi2}"
            )
        if self.phi3 < 0.0:
            raise ValidationError(f"phi3 must be nonnegative: {self.phi3}")
        object.__setattr__(self, "psi1", _as_density(self.psi1, "psi1"))
        psi2 = np.asarray(self.psi2, dtype=float)
        if psi2.shape != self.psi1.shape:
            raise ValidationError("psi1 and psi2 must have equal length")
        if abs(float(np.linalg.norm(psi2)) - 1.0) > DENSITY_TOL:
            raise ValidationError(f"psi2 must have unit norm: {float(np.linalg.norm(psi2))!r}")
        if abs(float(psi2.sum())) > DENSITY_TOL:
            raise ValidationError(f"psi2 entries must sum to 0: {float(psi2.sum())!r}")
        psi2 = psi2.copy()
        psi2.setflags(write=False)
        object.__setattr__(self, "psi2", psi2)
        viol = emission_margin(self.phi1, self.phi3, self.psi1, psi2)
        if viol < -DENSITY_TOL:
            raise ValidationError(
                f"emission nonnegativity violated (margin {viol:.3e})"
            )

    @property
    def phi(self) -> np.ndarray:
        return np.array([self.phi1, self.phi2, self.phi3])

    def to_json(self) -> str:
        return json.dumps(
            {
                "phi": [self.phi1, self.phi2, self.phi3],
                "psi1": self.psi1.tolist(),
                "psi2": self.psi2.tolist(),
                "degenerate": self.degenerate,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PhiPsiParams":
        d = json.loads(text)
        return cls(
            phi1=d["phi"][0],
            phi2=d["phi"][1],
            phi3=d["phi"][2],
            psi1=d["psi1"],
            psi2=d["psi2"],
            degenerate=bool(d.get("degenerate", False)),
        )


def r_of_phi(phi) -> float:
    """r(phi) = (1 - phi1^2) phi2 phi3^2 / 4; vanishes exactly on the i.i.d. set."""
    phi1, phi2, phi3 = phi
    return 0.25 * (1.0 - phi1 * phi1) * phi2 * phi3 * phi3


def emission_margin(phi1, phi3, psi1, psi2) -> float:
    """Smallest slack in the emission nonnegativity condition.

    Both induced emission densities are entrywise nonnegative iff

        psi1(k) - phi1*phi3*psi2(k)/2 - phi3*|psi2(k)|/2 >= 0   for all k.
    """
    vals = psi1 - 0.5 * phi1 * phi3 * psi2 - 0.5 * phi3 * np.abs(psi2)
    return float(vals.min())


@dataclass(frozen=True)
class ConstraintBox:
    """Box (delta, epsilon, zeta, L, K) delimiting the parameter class.

    Membership means: p, q >= delta; |1-p-q| in [epsilon, 1-L];
    ||f0-f1|| >= zeta.  ``compatibility_ok`` flags whether zeta is small
    enough for the two-point lower-bound constructions to be guaranteed
    feasible (zeta <= sqrt(2*floor(K/2)) / (4K)).
    """

    delta: float
    epsilon: float
    zeta: float
    L: float
    K: int

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0) or not (0.0 < self.epsilon < 1.0):
            raise ValidationError("delta and epsilon must lie in (0, 1)")
        if self.zeta <= 0.0:
            raise ValidationError("zeta must be positive")
        if not (0.0 < self.L <= 1.0):
            raise ValidationError("L must lie in (0, 1]")
        if self.K < 2:
            raise ValidationError("K must be an integer >= 2")

    @property
    def compatibility_bound(self) -> float:
        return math.sqrt(2 * (self.K // 2)) / (4 * self.K)

    @property
    def compatibility_ok(self) -> bool:
        return self.zeta <= self.compatibility_bound + ZERO_TOL

    @property
    def phi2_max(self) -> float:
        """Largest |phi2| compatible with the box (spectral gap and p,q >= delta)."""
        return min(1.0 - 2.0 * self.delta, 1.0 - self.L)


def fallback_direction(K: int) -> np.ndarray:
    """Canonical unit direction with zero sum: +1 on odd k < K, -1 on even k."""
    v = np.zeros(K)
    for k in range(1, K + 1):
        if k % 2 == 1 and k < K:
            v[k - 1] = 1.0
        elif k % 2 == 0:
            v[k - 1] = -1.0
    v /= math.sqrt(2 * (K // 2))
    return v


def stationary_dist(p: float, q: float) -> np.ndarray:
    """Stationary distribution (P(X=0), P(X=1)) = (q, p) / (p + q)."""
    if p + q <= 0.0:
        raise DegenerateChainError("p + q must be positive")
    return np.array([q / (p + q), p / (p + q)])


def theta_to_phipsi(theta: ThetaParams) -> PhiPsiParams:
    """Forward change of variables; flags the degenerate case f0 = f1."""
    p, q = theta.p, theta.q
    diff = theta.f0 - theta.f1
    # exact difference of two densities sums to 0; remove cancellation noise
    # so the unit direction below satisfies the zero-sum invariant tightly
    diff = diff - diff.mean()
    phi3 = float(np.linalg.norm(diff))
    phi1 = (q - p) / (p + q)
    phi2 = 1.0 - p - q
    psi1 = (q * theta.f0 + p * theta.f1) / (p + q)
    if phi3 == 0.0:
        return PhiPsiParams(
            phi1=phi1,
            phi2=phi2,
            phi3=0.0,
            psi1=psi1,
            psi2=fallback_direction(theta.f0.size),
            degenerate=True,
        )
    return PhiPsiParams(phi1=phi1, phi2=phi2, phi3=phi3, psi1=psi1, psi2=diff / phi3)


def phipsi_to_theta(pp: PhiPsiParams) -> ThetaParams:
    """Inverse change of variables.

    Raises ConstraintViolationError (with the offending index) if the
    reconstructed emissions have an entry below -1e-12.
    """
    p = 0.5 * (1.0 - pp.phi2) * (1.0 - pp.phi1)
    q = 0.5 * (1.0 - pp.phi2) * (1.0 + pp.phi1)
    half = 0.5 * pp.phi3 * pp.psi2
    center = pp.psi1 - pp.phi1 * half
    f0 = center + half
    f1 = center - half
    for name, f in (("f0", f0), ("f1", f1)):
        k = int(np.argmin(f))
        if f[k] < -DENSITY_TOL:
            raise ConstraintViolationError(
                f"{name}[{k}] = {f[k]:.3e} is negative", index=k
            )
    return ThetaParams(p=p, q=q, f0=np.clip(f0, 0.0, None), f1=np.clip(f1, 0.0, None))


def switch_labels(pp: PhiPsiParams) -> PhiPsiParams:
    """Label-switch map (phi1, psi2) -> (-phi1, -psi2); leaves the law invariant."""
    return PhiPsiParams(
        phi1=-pp.phi1,
        phi2=pp.phi2,
        phi3=pp.phi3,
        psi1=pp.psi1,
        psi2=-pp.psi2,
        degenerate=pp.degenerate,
    )


def leading_sign(v) -> float:
    """The label-switch rule: sign of the first entry above ZERO_TOL in magnitude, or +1."""
    for x in v:
        if abs(x) > ZERO_TOL:
            return 1.0 if x > 0 else -1.0
    return 1.0


def canonicalize(pp: PhiPsiParams) -> PhiPsiParams:
    """Resolve label switching: first nonzero coordinate of psi2 made positive."""
    return pp if leading_sign(pp.psi2) > 0 else switch_labels(pp)


@dataclass(frozen=True)
class MembershipCheck:
    name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class MembershipReport:
    """Per-inequality membership verdicts with signed slack (>= 0 means pass)."""

    checks: tuple[MembershipCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> MembershipCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _membership_slacks(phi1, phi2, phi3, psi1, psi2, box: ConstraintBox):
    r = r_of_phi((phi1, phi2, phi3))
    return [
        ("min_transition", 0.5 * (1.0 - phi2) * (1.0 - abs(phi1)) - box.delta),
        ("max_transition", 1.0 - 0.5 * (1.0 - phi2) * (1.0 + abs(phi1))),
        ("phi2_magnitude", abs(phi2) - box.epsilon),
        ("phi3_magnitude", phi3 - box.zeta),
        ("emission_nonneg", emission_margin(phi1, phi3, psi1, psi2)),
        ("spectral_gap", (1.0 - box.L) - abs(phi2)),
        ("r_lower_bound", abs(r) - box.delta * box.epsilon * box.zeta**2 / 4.0),
    ]


def validate_phipsi(pp: PhiPsiParams, box: ConstraintBox) -> MembershipReport:
    """Check membership of pp in the spectral-gap-restricted box, with slacks.

    The ``r_lower_bound`` entry is a consistency check implied by the other
    inequalities; it is reported alongside them.
    """
    checks = tuple(
        MembershipCheck(name, slack >= -ZERO_TOL, float(slack))
        for name, slack in _membership_slacks(
            pp.phi1, pp.phi2, pp.phi3, pp.psi1, pp.psi2, box
        )
    )
    return MembershipReport(checks=checks)


def exists_witness(box: ConstraintBox) -> PhiPsiParams:
    """Deterministic member of the box: uniform psi1, odd/even psi2, smallest phi.

    Raises NoMemberError when even this construction fails validation.
    """
    K = box.K
    if box.epsilon > box.phi2_max + ZERO_TOL:
        raise NoMemberError(
            f"epsilon={box.epsilon} exceeds max |phi2|={box.phi2_max}: box is empty"
        )
    try:
        pp = PhiPsiParams(
            phi1=0.0,
            phi2=box.epsilon,
            phi3=box.zeta,
            psi1=np.full(K, 1.0 / K),
            psi2=fallback_direction(K),
        )
    except ValidationError as exc:
        raise NoMemberError(f"witness construction invalid: {exc}") from exc
    if not validate_phipsi(pp, box).all_pass:
        raise NoMemberError("witness construction fails box membership")
    return pp


def sample_phipsi(box: ConstraintBox, seed) -> PhiPsiParams:
    """Random member of the box via rejection sampling, seeded and deterministic.

    Falls back to the deterministic witness after 10,000 rejections.
    """
    witness = exists_witness(box)  # raises NoMemberError on an empty box
    rng = np.random.default_rng(seed)
    K = box.K
    b1 = (1.0 - box.delta) / (1.0 + box.delta)
    hi2 = box.phi2_max
    for _ in range(_MAX_REJECTIONS):
        phi1 = rng.uniform(-b1, b1)
        phi2 = rng.uniform(box.epsilon, hi2) * (1.0 if rng.random() < 0.5 else -1.0)
        phi3 = rng.uniform(box.zeta, math.sqrt(2.0))
        psi1 = rng.dirichlet(np.ones(K))
        w = rng.standard_normal(K)
        w -= w.mean()
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            continue
        psi2 = w / norm
        if all(s >= 0.0 for _, s in _membership_slacks(phi1, phi2, phi3, psi1, psi2, box)):
            return PhiPsiParams(phi1=phi1, phi2=phi2, phi3=phi3, psi1=psi1, psi2=psi2)
    return witness
