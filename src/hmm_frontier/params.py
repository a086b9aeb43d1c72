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
This module owns r(phi), the label-switch sign rule ``leading_sign``, and
the rules of a frontier point.  Constraint boxes describe the parameter
classes over which minimax sweeps run; membership is checked with signed
slack, and ``box_member`` and ``sample_members`` build and draw members.

All types are immutable values; all operations are pure and only consume
randomness through an explicit seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateChainError,
    NoMemberError,
    SamplerExhaustedError,
    ValidationError,
)

DENSITY_TOL = 1e-12
ZERO_TOL = 1e-12

_MAX_REJECTIONS = 10_000
# Candidates per block of ``sample_members``: part of the seed contract.
SAMPLER_BLOCK = 256
# Most blocks ``sample_members`` checks at once: a round's arrays grow with it,
# so the cap bounds the sampler's memory.
_ROUND_BLOCKS = 8


def _vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"{name} must be a 1-d vector of length >= 2")
    return arr


def _require(rules) -> None:
    """ValidationError for the first of ``rules``, (message, holds, value shown), that fails."""
    for message, holds, shown in rules:
        if not holds:
            raise ValidationError(message.format(float(shown)))


def _row_min(v):
    """``v.min(axis=-1)``, NaN included.  Stacked rows take it one column at a
    time: over many short rows numpy's reduction costs far more than K - 1
    elementwise minima, while one row is cheaper reduced."""
    if v.ndim < 2:
        return v.min(axis=-1)
    low = v[..., 0]
    for k in range(1, v.shape[-1]):
        low = np.minimum(low, v[..., k])
    return low


def _density_rules(name: str, v):
    """The rules of a density over rows ``v`` of shape ``(..., K)``, which NaN and +-inf fail."""
    low = _row_min(v)
    yield f"{name} has a negative or NaN entry: min={{}}", low >= -DENSITY_TOL, low
    total = v.sum(axis=-1)
    yield f"{name} does not sum to 1 (sum={{!r}})", np.abs(total - 1.0) <= DENSITY_TOL, total


def _as_density(v, name: str) -> np.ndarray:
    arr = _vector(v, name)
    _require(_density_rules(name, arr))
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

    Its one rule set, ``_phipsi_rules``, which NaN and +-inf fail, is also the
    box sampler's test; ``box_member`` builds a point that must lie in a box.

    ``degenerate`` is phi3 = 0, the i.i.d. limit f0 = f1, where psi2 is not
    identified; ``theta_to_phipsi`` then fills in a canonical placeholder.
    """

    phi1: float
    phi2: float
    phi3: float
    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self):
        psi1 = _vector(self.psi1, "psi1")
        psi2 = np.array(self.psi2, dtype=float)
        if psi2.shape != psi1.shape:
            raise ValidationError("psi1 and psi2 must have equal length")
        _require(_phipsi_rules(self.phi1, self.phi2, self.phi3, psi1, psi2))
        for name, arr in (("psi1", np.clip(psi1, 0.0, None)), ("psi2", psi2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def phi(self) -> np.ndarray:
        return np.array([self.phi1, self.phi2, self.phi3])

    @property
    def degenerate(self) -> bool:
        return self.phi3 == 0.0

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
        )


def require_same_k(pps) -> None:
    """ValidationError unless the frontier points ``pps`` share one alphabet size K."""
    sizes = sorted({pp.psi1.size for pp in pps})
    if len(sizes) > 1:
        raise ValidationError(f"hypotheses have different alphabet sizes: K = {sizes}")


def r_of_phi(phi) -> float:
    """r(phi) = (1 - phi1^2) phi2 phi3^2 / 4; vanishes exactly on the i.i.d. set."""
    phi1, phi2, phi3 = phi
    return 0.25 * (1.0 - phi1 * phi1) * phi2 * phi3 * phi3


def emission_margin(phi1, phi3, psi1, psi2):
    """Smallest slack in the emission nonnegativity condition.

    Both induced emission densities are entrywise nonnegative iff

        psi1(k) - phi1*phi3*psi2(k)/2 - phi3*|psi2(k)|/2 >= 0   for all k.

    phi of shape ``(...)`` and psi of shape ``(..., K)`` give margins of shape ``(...)``.
    """
    phi1 = np.asarray(phi1)[..., None]
    phi3 = np.asarray(phi3)[..., None]
    vals = psi1 - 0.5 * phi1 * phi3 * psi2 - 0.5 * phi3 * np.abs(psi2)
    return _row_min(vals)


def _phipsi_rules(phi1, phi2, phi3, psi1, psi2, margin=None):
    """The invariants of ``PhiPsiParams`` over stacked rows, phi of shape ``(...)``
    and psi of shape ``(..., K)``, in order, as ``_require`` reads them.  NaN
    fails every test, and the emission margin comes after the coordinates are
    found finite, so one row raises no floating-point warning.  ``margin`` is
    these rows' ``emission_margin`` if a caller has it already."""
    yield "phi1 must lie in [-1, 1]: phi1={}", np.abs(phi1) <= 1.0 + ZERO_TOL, phi1
    yield "phi2 must lie in [-1, 1]: phi2={}", np.abs(phi2) <= 1.0 + ZERO_TOL, phi2
    yield "phi3 must be finite and nonnegative: {}", (phi3 >= 0.0) & (phi3 < np.inf), phi3
    yield from _density_rules("psi1", psi1)
    norm = np.sqrt((psi2 * psi2).sum(axis=-1))  # np.linalg.norm's own sum, without its overhead
    yield "psi2 must have unit norm: {!r}", np.abs(norm - 1.0) <= DENSITY_TOL, norm
    total = psi2.sum(axis=-1)
    yield "psi2 entries must sum to 0: {!r}", np.abs(total) <= DENSITY_TOL, total
    if margin is None:
        margin = emission_margin(phi1, phi3, psi1, psi2)
    yield "emission nonnegativity violated (margin {:.3e})", margin >= -DENSITY_TOL, margin


def _phipsi_holds(phi1, phi2, phi3, psi1, psi2, margin=None) -> np.ndarray:
    """Where each stacked row would make a ``PhiPsiParams``; ``margin`` as in ``_phipsi_rules``."""
    rules = _phipsi_rules(phi1, phi2, phi3, psi1, psi2, margin)
    return np.logical_and.reduce([ok for _, ok, _ in rules])


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
        bounds = (self.delta, self.epsilon, self.zeta, self.L)
        if not all(math.isfinite(x) for x in bounds):
            raise ValidationError(
                f"box bounds must be finite: delta={self.delta}, epsilon={self.epsilon}, "
                f"zeta={self.zeta}, L={self.L}"
            )
        if not (0.0 < self.delta < 1.0) or not (0.0 < self.epsilon < 1.0):
            raise ValidationError("delta and epsilon must lie in (0, 1)")
        if self.zeta <= 0.0:
            raise ValidationError("zeta must be positive")
        if not (0.0 < self.L <= 1.0):
            raise ValidationError("L must lie in (0, 1]")
        if isinstance(self.K, bool) or not isinstance(self.K, (int, np.integer)) or self.K < 2:
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
    """Forward change of variables; at f0 = f1 (phi3 = 0) psi2 is ``fallback_direction``."""
    p, q = theta.p, theta.q
    diff = theta.f0 - theta.f1
    # exact difference of two densities sums to 0; remove cancellation noise
    # so the unit direction below satisfies the zero-sum invariant tightly
    diff = diff - diff.mean()
    phi3 = float(np.linalg.norm(diff))
    phi1 = (q - p) / (p + q)
    phi2 = 1.0 - p - q
    psi1 = (q * theta.f0 + p * theta.f1) / (p + q)
    psi2 = fallback_direction(theta.f0.size) if phi3 == 0.0 else diff / phi3
    return PhiPsiParams(phi1=phi1, phi2=phi2, phi3=phi3, psi1=psi1, psi2=psi2)


def phipsi_to_theta(pp: PhiPsiParams) -> ThetaParams:
    """Inverse change of variables; ``ThetaParams`` refuses an emission entry
    below -1e-12 and clips the rest to nonnegative."""
    p = 0.5 * (1.0 - pp.phi2) * (1.0 - pp.phi1)
    q = 0.5 * (1.0 - pp.phi2) * (1.0 + pp.phi1)
    half = 0.5 * pp.phi3 * pp.psi2
    center = pp.psi1 - pp.phi1 * half
    return ThetaParams(p=p, q=q, f0=center + half, f1=center - half)


def switch_labels(pp: PhiPsiParams) -> PhiPsiParams:
    """Label-switch map (phi1, psi2) -> (-phi1, -psi2); leaves the law invariant."""
    return PhiPsiParams(
        phi1=-pp.phi1,
        phi2=pp.phi2,
        phi3=pp.phi3,
        psi1=pp.psi1,
        psi2=-pp.psi2,
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


SLACK_NAMES = (
    "min_transition",
    "max_transition",
    "phi2_magnitude",
    "phi3_magnitude",
    "emission_nonneg",
    "spectral_gap",
    "r_lower_bound",
)


def _membership_slacks(phi1, phi2, phi3, psi1, psi2, box: ConstraintBox) -> np.ndarray:
    """The signed slacks named in SLACK_NAMES, stacked on the first axis: phi of
    shape ``(...)`` and psi of shape ``(..., K)`` give shape ``(7, ...)``.  A point
    is in the box where all are >= -ZERO_TOL.  At a ``PhiPsiParams``,
    ``emission_nonneg`` never fails first (the point refused a negative margin),
    nor does ``r_lower_bound``, which the other inequalities imply."""
    r = r_of_phi((phi1, phi2, phi3))
    return np.stack(
        [
            0.5 * (1.0 - phi2) * (1.0 - np.abs(phi1)) - box.delta,
            1.0 - 0.5 * (1.0 - phi2) * (1.0 + np.abs(phi1)),
            np.abs(phi2) - box.epsilon,
            np.asarray(phi3) - box.zeta,
            emission_margin(phi1, phi3, psi1, psi2),
            (1.0 - box.L) - np.abs(phi2),
            np.abs(r) - box.delta * box.epsilon * box.zeta**2 / 4.0,
        ]
    )


def _phi1_bound(phi2, box: ConstraintBox):
    """Largest |phi1| that the transition inequalities allow at phi2 (elementwise)."""
    c = 1.0 - phi2
    return np.maximum(np.minimum(1.0 - 2.0 * box.delta / c, 2.0 / c - 1.0), 0.0)


def _phi3_max(phi1, psi1: np.ndarray, psi2: np.ndarray):
    """Largest phi3 with nonnegative emissions; phi1 of shape (..., 1) gives (...)."""
    den = phi1 * psi2 + np.abs(psi2)
    ratios = np.divide(2.0 * psi1, den, out=np.full(den.shape, np.inf), where=den > 0.0)
    return np.minimum.reduce(ratios, axis=-1)


def box_member(phi1, phi2, phi3, psi1, psi2, box: ConstraintBox) -> PhiPsiParams:
    """The frontier point with these coordinates, which must lie in ``box``; else a
    ValidationError ``outside the box: <rule>`` names the first rule of
    ``PhiPsiParams``, an alphabet size other than ``box.K``, or the first
    inequality of SLACK_NAMES that fails."""
    try:
        pp = PhiPsiParams(float(phi1), float(phi2), float(phi3), psi1, psi2)
    except ValidationError as exc:
        raise ValidationError(f"outside the box: {exc}") from exc
    if pp.psi1.size != box.K:
        raise ValidationError(f"outside the box: K={pp.psi1.size}, the box has K={box.K}")
    ok = _membership_slacks(pp.phi1, pp.phi2, pp.phi3, pp.psi1, pp.psi2, box) >= -ZERO_TOL
    if not ok.all():
        raise ValidationError(f"outside the box: {SLACK_NAMES[int(ok.argmin())]}")
    return pp


def exists_witness(box: ConstraintBox) -> PhiPsiParams:
    """Deterministic member of the box: uniform psi1, odd/even psi2, smallest phi.

    Raises NoMemberError when even this construction is no member.
    """
    if box.epsilon > box.phi2_max + ZERO_TOL:
        raise NoMemberError(
            f"epsilon={box.epsilon} exceeds max |phi2|={box.phi2_max}: box is empty"
        )
    try:
        return box_member(
            0.0, box.epsilon, box.zeta, np.full(box.K, 1.0 / box.K), fallback_direction(box.K), box
        )
    except ValidationError as exc:
        raise NoMemberError(f"the witness is {exc}") from exc


@dataclass(frozen=True, eq=False)
class MemberSample:
    """Box members from ``sample_members`` as stacked coordinates.

    ``phi1``, ``phi2`` and ``phi3`` have shape ``(count,)``, ``psi1`` and
    ``psi2`` shape ``(count, K)``.  ``candidates`` counts the candidates
    examined up to and including the last member, so ``candidates - count``
    of them were rejected.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    phi3: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    candidates: int

    def member(self, i: int) -> PhiPsiParams:
        return PhiPsiParams(
            phi1=float(self.phi1[i]),
            phi2=float(self.phi2[i]),
            phi3=float(self.phi3[i]),
            psi1=self.psi1[i],
            psi2=self.psi2[i],
        )


def _draw_round(rng, box: ConstraintBox, blocks: int):
    """The coordinates of ``blocks`` blocks of candidates, drawn block after block."""
    K, B = box.K, SAMPLER_BLOCK
    b1 = (1.0 - box.delta) / (1.0 + box.delta)
    alpha = np.ones(K)
    draws = []
    for _ in range(blocks):
        phi1 = rng.uniform(-b1, b1, B)
        phi2 = rng.uniform(box.epsilon, box.phi2_max, B)
        phi2 = np.where(rng.random(B) < 0.5, phi2, -phi2)
        phi3 = rng.uniform(box.zeta, math.sqrt(2.0), B)
        draws.append((phi1, phi2, phi3, rng.dirichlet(alpha, B), rng.standard_normal((B, K))))
    phi1, phi2, phi3, psi1, w = (np.concatenate(part) for part in zip(*draws))
    w -= w.mean(axis=1, keepdims=True)
    # a row too short to normalize fails the unit-norm check of the caller
    psi2 = w / np.maximum(np.linalg.norm(w, axis=1), 1e-12)[:, None]
    return phi1, phi2, phi3, psi1, psi2


def sample_members(box: ConstraintBox, count: int, seed) -> MemberSample:
    """``count`` random members of the box by block rejection sampling, seeded
    and deterministic.

    Candidates come from one ``default_rng(seed)`` stream in blocks of
    ``SAMPLER_BLOCK``.  Each block draws, in this order, as vectors of that
    length: phi1 uniform on [-b1, b1] with b1 = (1 - delta) / (1 + delta);
    |phi2| uniform on [epsilon, phi2_max]; the phi2 signs (+ where a uniform
    is below 1/2); phi3 uniform on [zeta, sqrt(2)].  Then psi1 ~ Dirichlet(1)
    as B x K, and standard normal B x K rows, centred and normalized into psi2.
    A candidate is a member when ``box_member`` would accept it (all seven
    slacks >= -ZERO_TOL, and the rules of ``PhiPsiParams``); members are
    taken in draw order, so the first m members for any ``count`` >= m are
    the same.

    Blocks are checked a round at a time: one block first, then as many as
    the acceptance so far says the rest needs, at most ``_ROUND_BLOCKS``.
    ``SAMPLER_BLOCK`` is part of the seed contract; like the path sampler's
    draw budget, the round size is not: any rounds take the same members and
    ``candidates``, and an exhausted budget names the same member.

    Raises NoMemberError on an empty box, and SamplerExhaustedError when one
    member needs more than ``_MAX_REJECTIONS`` candidates.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1: {count}")
    exists_witness(box)  # raises NoMemberError on an empty box
    rng = np.random.default_rng(seed)
    parts = []
    taken = drawn = since = 0  # ``since``: candidates since the last member
    blocks = 1
    while taken < count:
        coords = _draw_round(rng, box, blocks)
        n = blocks * SAMPLER_BLOCK
        slacks = _membership_slacks(*coords, box)
        ok = (slacks >= -ZERO_TOL).all(axis=0)
        ok &= _phipsi_holds(*coords, margin=slacks[SLACK_NAMES.index("emission_nonneg")])
        pos = np.flatnonzero(ok)[: count - taken]
        # candidates each member took, and at least n - pos[-1] for a member still wanted
        ends = pos if len(pos) == count - taken else np.append(pos, n)
        over = np.diff(ends, prepend=-1 - since) > _MAX_REJECTIONS
        if over.any():
            raise SamplerExhaustedError(
                f"member {taken + int(over.argmax())} of {count} needs more than "
                f"{_MAX_REJECTIONS} candidates: the box has too few members for "
                f"rejection sampling (K={box.K})"
            )
        if len(pos):
            parts.append(tuple(c[pos] for c in coords))
            taken += len(pos)
            since = n - 1 - int(pos[-1])
        else:
            since += n
        drawn += n
        # the blocks the rest should take at the acceptance so far, rounded up
        wanted = -(-(count - taken) * drawn // (taken * SAMPLER_BLOCK)) if taken else _ROUND_BLOCKS
        blocks = min(max(wanted, 1), _ROUND_BLOCKS)
    return MemberSample(
        *(np.concatenate(part) for part in zip(*parts)), candidates=drawn - since
    )


def sample_phipsi(box: ConstraintBox, seed) -> PhiPsiParams:
    """Random member of the box: member 0 of ``sample_members(box, 1, seed)``."""
    return sample_members(box, 1, seed).member(0)


__all__ = [
    "ThetaParams",
    "PhiPsiParams",
    "r_of_phi",
    "ConstraintBox",
    "stationary_dist",
    "theta_to_phipsi",
    "phipsi_to_theta",
    "switch_labels",
    "canonicalize",
    "exists_witness",
    "MemberSample",
    "sample_members",
    "sample_phipsi",
]
