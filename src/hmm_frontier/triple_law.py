"""Law of three consecutive observations and associated moment geometry.

The K x K x K tensor of probabilities of ``(Y_1, Y_2, Y_3)`` identifies the
two-state model up to label switching.  In frontier coordinates the tensor
decomposes as

    psi1^3 + r (psi2 psi2 psi1 + psi1 psi2 psi2)
           + phi2 r psi2 psi1 psi2 - phi1 phi2 phi3 r psi2 psi2 psi2

with r = r(phi) = (1 - phi1^2) phi2 phi3^2 / 4.  ``moment_tensor`` is the one
builder of this expansion in m = (m1, m2, m3); ``triple_tensor`` gives it
m = (r, phi2 r, phi1 phi2 phi3 r), which is invertible back to phi wherever
r != 0, and a max-of-five-terms pseudo-distance ``rho`` built from m and
psi is equivalent (up to constants) to the Euclidean distance between
triple-law tensors.  This module provides both directions, the distance,
a numerical probe of the equivalence constants, and the structural factors
of the pointwise moduli of continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbeError, NonInvertibleMomentError, ValidationError
from .params import (
    ConstraintBox,
    PhiPsiParams,
    ThetaParams,
    r_of_phi,
    sample_members,
    stationary_dist,
    switch_labels,
)

ENTRY_TOL = 1e-14
# Pairs the equivalence probe scores per stack: bounds its memory, not its results.
_PROBE_CHUNK = 64


@dataclass(frozen=True, eq=False)
class TripleLaw:
    """Joint law of three consecutive observations as a dense K^3 tensor."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValidationError(f"probs must be a K x K x K tensor, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probs contains non-finite entries")
        if np.any(arr < -ENTRY_TOL):
            raise ValidationError(f"probs has a negative entry: min={arr.min()}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def total_mass(self) -> float:
        return float(self.probs.sum())

    def distance(self, other: "TripleLaw") -> float:
        """Euclidean (Frobenius) distance between the two tensors."""
        return float(np.linalg.norm(self.probs - other.probs))


@dataclass(frozen=True)
class MomentVector:
    """Coefficients m = (r, phi2 r, phi1 phi2 phi3 r) of the triple law."""

    m1: float
    m2: float
    m3: float


def m_of_phi(phi) -> MomentVector:
    phi1, phi2, phi3 = phi
    r = r_of_phi(phi)
    return MomentVector(m1=r, m2=phi2 * r, m3=phi1 * phi2 * phi3 * r)


def phi_of_m(m: MomentVector) -> np.ndarray:
    """Invert m back to (phi1, phi2, phi3); requires m1 != 0 and m2 > 0.

    The discriminant 4 m1^2 m2 + m3^2 is nonnegative on the image of
    m_of_phi, and the inverse is exact there.
    """
    if m.m1 == 0.0 or m.m2 <= 0.0:
        raise NonInvertibleMomentError(
            f"moment vector not invertible: m1={m.m1}, m2={m.m2}"
        )
    disc = 4.0 * m.m1 * m.m1 * m.m2 + m.m3 * m.m3
    if disc <= 0.0:
        raise NonInvertibleMomentError(f"nonpositive discriminant {disc}")
    root = math.sqrt(disc)
    return np.array([m.m3 / root, m.m2 / m.m1, root / m.m2])


def triple_law_theta(theta: ThetaParams) -> TripleLaw:
    """Triple law in native coordinates.

    p3 = pi(0) g (x) f0 (x) g + pi(1) h (x) f1 (x) h with
    g = (1-p) f0 + p f1 and h = q f0 + (1-q) f1.
    """
    pi = stationary_dist(theta.p, theta.q)
    g = (1.0 - theta.p) * theta.f0 + theta.p * theta.f1
    h = theta.q * theta.f0 + (1.0 - theta.q) * theta.f1
    t = pi[0] * np.einsum("a,b,c->abc", g, theta.f0, g) + pi[1] * np.einsum(
        "a,b,c->abc", h, theta.f1, h
    )
    return TripleLaw(probs=t)


def moment_tensor(m1, m2, m3, psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """psi1^3 + m1 (psi2 psi2 psi1 + psi1 psi2 psi2) + m2 psi2 psi1 psi2 - m3 psi2^3, the
    one builder of the expansion; m arrays of shape ``(..., 1, 1, 1)``, with psi
    of shape ``(K,)`` or ``(..., K)``, give a stack."""
    a, b = psi1, psi2
    outer = "...a,...b,...c->...abc"
    return (
        np.einsum(outer, a, a, a)
        + m1 * (np.einsum(outer, b, b, a) + np.einsum(outer, a, b, b))
        + m2 * np.einsum(outer, b, a, b)
        - m3 * np.einsum(outer, b, b, b)
    )


def triple_tensor(phi1, phi2, phi3, psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """Unvalidated ``triple_law_phipsi`` tensor; phi arrays of shape
    ``(..., 1, 1, 1)``, with psi of shape ``(K,)`` or ``(..., K)``, give a
    stack of shape ``(..., K, K, K)``."""
    m = m_of_phi((phi1, phi2, phi3))
    return moment_tensor(m.m1, m.m2, m.m3, psi1, psi2)


def triple_law_phipsi(pp: PhiPsiParams) -> TripleLaw:
    """Triple law in frontier coordinates via the rank-one expansion."""
    return TripleLaw(probs=triple_tensor(pp.phi1, pp.phi2, pp.phi3, pp.psi1, pp.psi2))


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> over the last axis, one BLAS dot per row as ``np.dot`` and
    ``np.linalg.norm`` take it, so a row's value does not depend on the stack."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _rho_stack(a, b) -> np.ndarray:
    """rho between stacks ``a`` and ``b`` of (phi1, phi2, phi3, psi1, psi2),
    phi of shape ``(...)`` and psi of shape ``(..., K)``; the one writing of
    the five terms."""
    ma = m_of_phi(a[:3])
    mb = m_of_phi(b[:3])
    s = np.where(_row_dot(a[4], b[4]) >= 0.0, 1.0, -1.0)
    d1 = a[3] - b[3]
    d2 = a[4] - s[..., None] * b[4]
    return np.maximum.reduce(
        [
            np.abs(ma.m1 - mb.m1),
            np.abs(ma.m2 - mb.m2),
            np.abs(ma.m3 - s * mb.m3),
            np.sqrt(_row_dot(d1, d1)),
            np.maximum(np.abs(ma.m1), np.abs(mb.m1)) * np.sqrt(_row_dot(d2, d2)),
        ]
    )


def rho(a: PhiPsiParams, b: PhiPsiParams) -> float:
    """Max-of-five pseudo-distance, invariant under label switching.

    The third moment and the psi2 direction enter with the sign of
    <psi2, psi2~> (sign(0) = +1), which absorbs the switch symmetry.
    """
    coords = [(p.phi1, p.phi2, p.phi3, p.psi1, p.psi2) for p in (a, b)]
    return float(_rho_stack(*coords))


@dataclass(frozen=True)
class RatioProbeSummary:
    """Empirical range of ||Delta p3|| / rho over randomly sampled pairs."""

    min_ratio: float
    max_ratio: float
    pairs_used: int
    pairs_skipped: int
    candidates: int

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio


def equivalence_ratio_probe(
    box: ConstraintBox, pair_count: int, seed
) -> RatioProbeSummary:
    """Probe the constants in the two-sided comparison of rho with the tensor norm.

    Pair i is members 2i and 2i + 1 of one ``sample_members(box, 2 *
    pair_count, seed)`` call, so the pairs of a smaller probe with the same
    seed are a prefix of a larger one's; ``candidates`` is that call's.
    Pairs with rho = 0 (e.g. label-switched copies) are skipped; if every
    pair degenerates a DegenerateProbeError is raised.
    """
    if pair_count < 1:
        raise ValidationError("pair_count must be >= 1")
    sample = sample_members(box, 2 * pair_count, seed)
    coords = (sample.phi1, sample.phi2, sample.phi3, sample.psi1, sample.psi2)
    cells = (slice(None), None, None, None)
    dist, d = [], []
    for lo in range(0, 2 * pair_count, 2 * _PROBE_CHUNK):
        chunk = [c[lo : lo + 2 * _PROBE_CHUNK] for c in coords]
        t = triple_tensor(*(c[cells] for c in chunk[:3]), *chunk[3:])
        diff = (t[0::2] - t[1::2]).reshape(len(t) // 2, -1)
        dist.append(np.sqrt(_row_dot(diff, diff)))
        d.append(_rho_stack(*([c[i::2] for c in chunk] for i in (0, 1))))
    dist, d = np.concatenate(dist), np.concatenate(d)
    used = d != 0.0
    if not used.any():
        raise DegenerateProbeError("all sampled pairs had rho = 0")
    ratios = dist[used] / d[used]
    return RatioProbeSummary(
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        pairs_used=int(used.sum()),
        pairs_skipped=int((~used).sum()),
        candidates=sample.candidates,
    )


@dataclass(frozen=True)
class ModulusBounds:
    """Structural factors of the pointwise moduli of continuity.

    Unspecified multiplicative constants are normalized out: ``applicable_*``
    flags the smallness condition on eta and ``omega_*`` the rate factor.
    Calibrating constants against simulations is an experiment, not a
    return value.
    """

    applicable_1: bool
    applicable_2: bool
    applicable_3: bool
    omega_1: float
    omega_2: float
    omega_3: float


def modulus_bounds(phi, eta: float) -> ModulusBounds:
    if not (0.0 <= eta <= 1.0):
        raise ValidationError(f"eta must lie in [0, 1]: {eta}")
    phi1, phi2, phi3 = phi
    s = 1.0 - phi1 * phi1
    if eta == 0.0:
        return ModulusBounds(False, False, False, 0.0, 0.0, 0.0)
    gate_13 = s * phi2 * phi2 * phi3**3
    gate_2 = s * abs(phi2) * phi3 * phi3

    def rate(den: float) -> float:
        return eta / den if den > 0.0 else math.inf

    return ModulusBounds(
        applicable_1=eta < gate_13,
        applicable_2=eta < gate_2,
        applicable_3=eta < gate_13,
        omega_1=rate(phi2 * phi2 * phi3**3),
        omega_2=rate(s * abs(phi2) * phi3 * phi3),
        omega_3=rate(s * phi2 * phi2 * phi3 * phi3),
    )


__all__ = [
    "TripleLaw",
    "MomentVector",
    "RatioProbeSummary",
    "ModulusBounds",
    "r_of_phi",
    "m_of_phi",
    "phi_of_m",
    "triple_law_theta",
    "moment_tensor",
    "triple_tensor",
    "triple_law_phipsi",
    "rho",
    "equivalence_ratio_probe",
    "modulus_bounds",
    "switch_labels",
]
