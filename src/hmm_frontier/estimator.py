"""Minimum-distance estimation of frontier parameters from the triple law.

The estimator minimizes the Euclidean distance between the model triple-law
tensor and an (empirical) target tensor over the constraint box by
derivative-free simplex descent in unconstrained coordinates (psi1 through
a softmax, psi2 demeaned and normalized, the scalars clipped into the box)
from several starts: the closed-form moment-contraction initializer, its
phi2-sign flip, the box witness, and random box members (the keywords
``random_starts`` and ``seed`` of ``min_distance_fit``,
``min_distance_fits`` and ``estimate_theta``).

The descent is a lockstep Nelder-Mead (``_nelder_mead``): one loop moves a
stack of simplexes, one row per (target, start), and scores each step's
trial points of every row in one call of the batched objective.  Each row
takes exactly the steps, values and evaluation count that
``scipy.optimize.minimize(method="Nelder-Mead")`` takes on its own, and the
objective rounds every row as it would alone, so a fit is the same bit for
bit whether it runs alone (``min_distance_fit``) or stacked with other
targets (``min_distance_fits``).  scipy is not needed at run time; the
tests use it as the reference.

The grid floor, the minimum distance over a 2 x 9 x 9 x 9 grid of
(sign phi2, |phi2|, phi1, phi3) with psi frozen at the best fit, backs the
convergence diagnostic objective <= 2 * grid floor.  That is all
``FitResult.converged`` means: a start stuck in a local minimum less than
twice the floor still counts as converged (on a bank of 72 fits, 9 fits
without random starts ended up to 10 % above the default's objective and
were all flagged converged).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleMomentError, ValidationError
from .params import (
    ConstraintBox,
    PhiPsiParams,
    ThetaParams,
    canonicalize,
    exists_witness,
    fallback_direction,
    leading_sign,
    phipsi_to_theta,
    sample_phipsi,
    switch_labels,
    validate_phipsi,
)
from .simulate import derive_seed, empirical_triple_law
from .triple_law import (
    MomentVector,
    TripleLaw,
    _row_dot,
    moment_tensor,
    phi_of_m,
    triple_tensor,
)

_SIGN_TOL = 1e-12
_SIMPLEX_STEP = 0.05
_MAX_EVALS = 2000  # objective evaluations per simplex start
_FATOL = 1e-12
_XATOL = 1e-10
# Nelder-Mead trial points a * centroid - b * worst vertex: expansion, outside
# and inside contraction
_TRIAL_A = np.array([3.0, 1.5, 0.5])[:, None, None]
_TRIAL_B = np.array([2.0, 0.5, -0.5])[:, None, None]
_PENALTY = 10.0  # weight of the phi3-infeasibility penalty in the objective
_GRID_POINTS = 9  # grid-floor points per scalar coordinate


@dataclass(frozen=True, eq=False)
class FitResult:
    """Best fit found, with the coarse-grid near-minimality diagnostic.

    ``nfev`` counts objective evaluations summed over the starts;
    ``best_start`` names the start the estimate came from: ``moment``,
    ``flip``, ``witness`` or ``random-<i>``.
    """

    estimate: PhiPsiParams
    objective: float
    grid_floor: float
    starts: int
    converged: bool
    init_fallback: bool
    nfev: int
    best_start: str


def moment_init(phat: TripleLaw, box: ConstraintBox):
    """Closed-form initializer from tensor contractions.

    The first-coordinate marginal gives psi1; the lag-1 and lag-2 pair
    residuals are rank-one with common direction psi2 and eigenvalues
    m1 and m2; m3 is the residual from ``moment_tensor(m1, m2, 0)``
    contracted against -psi2^(x3).  Returns ``(params, used_fallback)``:
    when the inferred moments are non-invertible (m1 ~ 0, m2 <= 0, or
    ``phi_of_m`` rejects them) or project outside the box, a box-center
    parameter with the same psi1 is returned instead, flagged.
    """
    pn = phat.probs
    mass = float(pn.sum())
    if mass <= 0.0:
        raise ValidationError("triple law has no mass")
    pn = pn / mass
    psi1 = pn.sum(axis=(1, 2))
    psi1 = np.clip(psi1, 0.0, None)
    psi1 = psi1 / psi1.sum()

    r12 = pn.sum(axis=2) - np.outer(psi1, psi1)
    r12 = 0.5 * (r12 + r12.T)
    vals, vecs = np.linalg.eigh(r12)
    i = int(np.argmax(np.abs(vals)))
    m1 = float(vals[i])
    v = vecs[:, i]
    v = v - v.mean()
    norm = float(np.linalg.norm(v))
    v = fallback_direction(box.K) if norm < _SIGN_TOL else v / norm
    v = leading_sign(v) * v  # the fallback direction already leads with +1

    r13 = pn.sum(axis=1) - np.outer(psi1, psi1)
    m2 = float(v @ r13 @ v)
    resid = pn - moment_tensor(m1, m2, 0.0, psi1, v)
    m3 = -float(np.einsum("abc,a,b,c->", resid, v, v, v))

    if abs(m1) < 1e-10 or m2 <= 0.0:
        return _box_center(box, psi1), True
    try:
        pp = _project(*phi_of_m(MomentVector(m1=m1, m2=m2, m3=m3)), psi1, v, box)
    except NonInvertibleMomentError:
        pp = None
    if pp is None:
        return _box_center(box, psi1), True
    return pp, False


def _phi1_bound(phi2, box: ConstraintBox):
    """Largest |phi1| allowed at phi2 (elementwise on arrays)."""
    b = np.minimum(1.0 - 2.0 * box.delta / (1.0 - phi2), 2.0 / (1.0 - phi2) - 1.0)
    return np.maximum(b, 0.0)


def _phi3_max(phi1, psi1: np.ndarray, psi2: np.ndarray):
    """Largest phi3 with nonnegative emissions; phi1 of shape (..., 1) gives (...)."""
    den = phi1 * psi2 + np.abs(psi2)
    ratios = np.divide(2.0 * psi1, den, out=np.full(den.shape, np.inf), where=den > 0.0)
    return ratios.min(axis=-1)


def _clip(phi1, phi2, phi3, psi1, psi2, box: ConstraintBox):
    """Clamp phi2, then phi1, then phi3 into the box at fixed psi.

    Elementwise over rows: phi of shape ``(...)`` with psi of shape
    ``(..., K)``.  Also returns ``hi``, the largest phi3 with nonnegative
    emissions; no phi3 in the box is feasible when ``hi < zeta``.
    """
    # np.minimum(np.maximum(...)) is np.clip without its per-call overhead
    s = np.where(phi2 >= 0.0, 1.0, -1.0)
    phi2 = s * np.minimum(np.maximum(np.abs(phi2), box.epsilon), box.phi2_max)
    b1 = _phi1_bound(phi2, box)
    phi1 = np.minimum(np.maximum(phi1, -b1), b1)
    hi = _phi3_max(np.asarray(phi1)[..., None], psi1, psi2)
    phi3 = np.minimum(np.maximum(phi3, box.zeta), np.maximum(hi, box.zeta))
    return phi1, phi2, phi3, hi


def _project(phi1, phi2, phi3, psi1, psi2, box: ConstraintBox):
    """Clip scalar coordinates into the box; None when no feasible phi3 exists."""
    phi1, phi2, phi3, hi = _clip(phi1, phi2, phi3, psi1, psi2, box)
    if hi < box.zeta:
        return None
    try:
        pp = PhiPsiParams(
            phi1=float(phi1), phi2=float(phi2), phi3=float(phi3), psi1=psi1, psi2=psi2
        )
    except ValidationError:
        return None
    if not validate_phipsi(pp, box).all_pass:
        return None
    return pp


def _box_center(box: ConstraintBox, psi1: np.ndarray) -> PhiPsiParams:
    """Mid-box parameter reusing the marginal psi1 when feasible."""
    psi2 = fallback_direction(box.K)
    phi2 = 0.5 * (box.epsilon + box.phi2_max)
    pp = _project(0.0, phi2, box.zeta, psi1, psi2, box)
    if pp is not None:
        return pp
    w = exists_witness(box)
    return _project(0.0, phi2, box.zeta, w.psi1, w.psi2, box) or w


def _encode(pp: PhiPsiParams) -> np.ndarray:
    return np.concatenate(
        [[pp.phi1, pp.phi2, pp.phi3], np.log(pp.psi1 + 1e-12), pp.psi2]
    )


def _decode(Z: np.ndarray, box: ConstraintBox):
    """Map rows of unconstrained coordinates to box-feasible arrays plus a penalty."""
    K = box.K
    u = Z[:, 3 : 3 + K]
    w = Z[:, 3 + K : 3 + 2 * K]
    eu = np.exp(u - u.max(axis=1, keepdims=True))
    psi1 = eu / eu.sum(axis=1, keepdims=True)
    w = w - w.sum(axis=1, keepdims=True) / K
    norm = np.sqrt(_row_dot(w, w))[:, None]
    ok = norm > _SIGN_TOL
    if ok.all():
        psi2 = w / norm
    else:
        psi2 = np.where(ok, w / np.where(ok, norm, 1.0), fallback_direction(K))
    phi1, phi2, phi3, hi = _clip(Z[:, 0], Z[:, 1], Z[:, 2], psi1, psi2, box)
    return phi1, phi2, phi3, psi1, psi2, np.maximum(0.0, box.zeta - hi)


def _objective(Z: np.ndarray, targets: np.ndarray, box: ConstraintBox) -> np.ndarray:
    """Distance of each decoded row of Z, shape ``(B, 3 + 2K)``, to its target
    in ``targets``, shape ``(B, K, K, K)``, plus the phi3-infeasibility
    penalty.  Every row is rounded as it would be alone (B = 1)."""
    phi1, phi2, phi3, psi1, psi2, pen = _decode(Z, box)
    cells = (slice(None), None, None, None)
    t = triple_tensor(phi1[cells], phi2[cells], phi3[cells], psi1, psi2)
    d = (t - targets).reshape(len(Z), -1)
    return np.sqrt(_row_dot(d, d)) + _PENALTY * pen


def _nelder_mead(f, simplexes, maxfev: int, fatol: float, xatol: float):
    """Nelder-Mead descent of a stack of simplexes in lockstep, one row per simplex.

    ``simplexes`` has shape ``(B, N + 1, N)``; ``f(points, rows)`` returns
    the objective of row ``rows[i]`` at ``points[i]``.  Each row follows
    ``scipy.optimize.minimize(method="Nelder-Mead")`` with that initial
    simplex and the same ``maxfev``, ``fatol`` and ``xatol`` bit for bit:
    the non-adaptive coefficients, the same stopping rules, and the same
    partial step when the budget runs out (a refused expansion or
    contraction changes nothing; a shrink has moved the vertex whose call
    is refused).  Rows leave the stack when they stop.  Returns every
    row's final simplex and vertex values, sorted best first as scipy's
    ``final_simplex``, and its evaluation count.
    """
    sim = np.array(simplexes, dtype=float)
    B, N1, N = sim.shape
    rows = np.arange(B)
    fsim = f(sim.reshape(-1, N), np.repeat(rows, N1)).reshape(B, N1)
    fsim[:, maxfev:] = np.inf  # calls past the budget are refused
    nfev = np.full(B, min(N1, maxfev))
    for _ in range(2):  # scipy sorts twice before its first step; ties may move
        sim, fsim = _sort_rows(sim, fsim)
    out_sim, out_fsim, evals = np.empty_like(sim), np.empty_like(fsim), np.empty_like(nfev)
    vertex = np.arange(1, N1)
    while rows.size:
        stop = (nfev >= maxfev) | (
            (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
            & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol)
        )
        if stop.any():
            done = rows[stop]
            out_sim[done], out_fsim[done], evals[done] = sim[stop], fsim[stop], nfev[stop]
            go = ~stop
            rows, sim, fsim, nfev = rows[go], sim[go], fsim[go], nfev[go]
            if not rows.size:
                break
        xbar = sim[:, :-1].sum(axis=1) / N
        worst = sim[:, -1]
        xr = 2.0 * xbar - worst  # reflection, rho = 1
        # expansion (chi = 2), outside and inside contraction (psi = 0.5) as
        # a * xbar - b * worst, rounded as scipy's own expressions
        trials = _TRIAL_A * xbar - _TRIAL_B * worst
        here = np.arange(rows.size)
        # every trial point is scored in the reflection's call, which costs
        # less than a second call on the few-row stack of one fit; nfev
        # counts only the calls scipy would make
        scores = f(np.concatenate([xr[None], trials]).reshape(-1, N), np.tile(rows, 4))
        fxr, ftrials = scores[: rows.size], scores[rows.size :].reshape(3, -1)
        nfev += 1
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~accept & (fxr < fsim[:, -1])
        trial = np.where(expand, 0, np.where(outside, 1, 2))
        x2 = trials[trial, here]
        second = ~accept & (nfev < maxfev)
        f2 = np.where(second, ftrials[trial, here], np.inf)
        nfev += second
        # the expansion point wins over the reflection when below it, the
        # outside contraction is taken when not above the reflection, the
        # inside one when below the worst vertex; a refused contraction or
        # one not taken shrinks the simplex toward its best vertex
        better = np.where(outside, f2 <= fxr, f2 < np.where(expand, fxr, fsim[:, -1]))
        take = accept | (second & (expand | better))
        use_xr = accept | (expand & ~better)
        sim[take, -1] = np.where(use_xr[:, None], xr, x2)[take]
        fsim[take, -1] = np.where(use_xr, fxr, f2)[take]
        shrink = second & ~take
        if shrink.any():
            base = sim[shrink, :1]
            pts = base + 0.5 * (sim[shrink, 1:] - base)  # sigma = 0.5
            # vertex j moves, then is scored; out of budget, the first vertex
            # whose call is refused has moved all the same
            left = (maxfev - nfev[shrink])[:, None]
            called = vertex <= left
            sim[shrink, 1:] = np.where((vertex <= left + 1)[..., None], pts, sim[shrink, 1:])
            if called.any():
                fvals = fsim[shrink, 1:]
                owners = np.broadcast_to(rows[shrink, None], called.shape)
                fvals[called] = f(pts[called], owners[called])
                fsim[shrink, 1:] = fvals
                nfev[shrink] += called.sum(axis=1)
        sim, fsim = _sort_rows(sim, fsim)
    return out_sim, out_fsim, evals


def _sort_rows(sim, fsim):
    """Order each row's vertices by value, as scipy's per-simplex argsort does."""
    ind = np.argsort(fsim, axis=1)
    r = np.arange(len(ind))[:, None]
    return sim[r, ind], fsim[r, ind]


def min_distance_fits(
    phats: Sequence[TripleLaw], box: ConstraintBox, *, random_starts: int = 3, seed=0
) -> list[FitResult]:
    """Fit every target in ``phats``; all their starts descend as one stack.

    Starts per target: the moment initializer, its phi2-sign flip, the
    deterministic box witness, and ``random_starts`` random members, member
    i seeded with ``derive_seed(seed, 7, i)``.  Each result is canonicalized;
    ties in the objective break toward the lexicographically smaller
    canonical (phi1, phi2, phi3).  A target's result does not depend on the
    other targets in ``phats``.
    """
    witness = exists_witness(box)  # raises NoMemberError on an empty box
    if not phats:
        return []
    randoms = [
        (f"random-{i}", sample_phipsi(box, derive_seed(seed, 7, i))) for i in range(random_starts)
    ]
    owner, origin, z0, fallbacks = [], [], [], []
    for t, phat in enumerate(phats):
        init, used_fallback = moment_init(phat, box)
        fallbacks.append(used_fallback)
        flipped = _project(init.phi1, -init.phi2, init.phi3, init.psi1, init.psi2, box)
        for name, pp in [("moment", init), ("flip", flipped), ("witness", witness), *randoms]:
            if pp is not None:
                owner.append(t)
                origin.append(name)
                z0.append(_encode(pp))
    owner = np.array(owner)
    targets = np.stack([phat.probs for phat in phats])
    z0 = np.stack(z0)
    simplexes = np.concatenate([z0[:, None], z0[:, None] + _SIMPLEX_STEP * np.eye(z0.shape[1])], 1)
    final, _, nfev = _nelder_mead(
        lambda Z, rows: _objective(Z, targets[owner[rows]], box),
        simplexes, _MAX_EVALS, _FATOL, _XATOL,
    )
    # each start offers its end point, then its initial point
    decoded = _decode(np.concatenate([final[:, 0], z0]), box)
    results = []
    for t, phat in enumerate(phats):
        rows = np.flatnonzero(owner == t)
        best = None
        for row in rows:
            for c in (row, len(z0) + row):
                phi1, phi2, phi3, psi1, psi2, pen = (v[c] for v in decoded)
                if pen > 0.0:
                    continue
                cand = _project(phi1, phi2, phi3, psi1, psi2, box)
                if cand is None:
                    continue
                cand = canonicalize(cand)
                obj = float(
                    np.linalg.norm(triple_tensor(*cand.phi, cand.psi1, cand.psi2) - phat.probs)
                )
                key = (obj, cand.phi1, cand.phi2, cand.phi3)
                if best is None or _better(key, best[0]):
                    best = (key, cand, origin[row])
        if best is None:
            raise ValidationError("no feasible candidate found")
        (objective_value, *_), estimate, best_start = best
        floor = _grid_floor(phat.probs, estimate, box)
        results.append(
            FitResult(
                estimate=estimate,
                objective=objective_value,
                grid_floor=floor,
                starts=rows.size,
                converged=objective_value <= 2.0 * floor + 1e-9,
                init_fallback=fallbacks[t],
                nfev=int(nfev[rows].sum()),
                best_start=best_start,
            )
        )
    return results


def min_distance_fit(
    phat: TripleLaw, box: ConstraintBox, *, random_starts: int = 3, seed=0
) -> FitResult:
    """Fit one target: ``min_distance_fits([phat], box, ...)[0]``."""
    return min_distance_fits([phat], box, random_starts=random_starts, seed=seed)[0]


def _better(key_a, key_b) -> bool:
    if abs(key_a[0] - key_b[0]) > 1e-12:
        return key_a[0] < key_b[0]
    return key_a[1:] < key_b[1:]


def _grid_floor(target: np.ndarray, best: PhiPsiParams, box: ConstraintBox) -> float:
    """Min objective over a coarse scalar grid with psi frozen at the best fit.

    Each axis spans its box range given the axes before it; phi1 rows with
    no feasible phi3 are left out.
    """
    g = _GRID_POINTS
    psi1, psi2 = best.psi1, best.psi2
    mags = np.linspace(box.epsilon, box.phi2_max, g)
    phi2 = np.stack([mags, -mags])  # (2, g)
    b1 = _phi1_bound(phi2, box)
    phi1 = np.linspace(-b1, b1, g, axis=-1)  # (2, g, g)
    hi = _phi3_max(phi1[..., None], psi1, psi2)  # (2, g, g)
    phi3 = np.linspace(box.zeta, hi, g, axis=-1)  # (2, g, g, g)
    grid = np.broadcast_arrays(phi1[..., None], phi2[..., None, None], phi3)
    t = triple_tensor(*(x[..., None, None, None] for x in grid), psi1, psi2)
    d = np.sqrt(np.square(t - target).sum(axis=(-3, -2, -1)))
    return float(np.where(hi[..., None] >= box.zeta, d, np.inf).min())


def estimate_theta(observed, box: ConstraintBox, *, random_starts: int = 3, seed=0):
    """Full pipeline: empirical triple law, minimum-distance fit, plug-in theta."""
    phat = empirical_triple_law(observed, box.K)
    fit = min_distance_fit(phat, box, random_starts=random_starts, seed=seed)
    return phipsi_to_theta(fit.estimate), fit


@dataclass(frozen=True)
class LossRecord:
    """Label-switch-aware losses between an estimate and the truth.

    Relative losses are None when the corresponding truth component is 0.
    """

    phi1: float
    phi2: float
    phi3: float
    psi1: float
    psi2: float
    rel_phi1sq: float | None
    rel_phi2: float | None
    rel_phi3: float | None
    pq: float
    f: float


def losses(est: PhiPsiParams, truth: PhiPsiParams) -> LossRecord:
    loss_phi1 = min(abs(est.phi1 - truth.phi1), abs(est.phi1 + truth.phi1))
    loss_psi2 = min(
        float(np.linalg.norm(est.psi2 - truth.psi2)),
        float(np.linalg.norm(est.psi2 + truth.psi2)),
    )

    def rel(num, den):
        return None if den == 0.0 else abs(num / den - 1.0)

    te = phipsi_to_theta(est)
    theta_losses = []
    for t in (truth, switch_labels(truth)):
        tt = phipsi_to_theta(t)
        theta_losses.append(
            (
                max(abs(te.p - tt.p), abs(te.q - tt.q)),
                max(
                    float(np.linalg.norm(te.f0 - tt.f0)),
                    float(np.linalg.norm(te.f1 - tt.f1)),
                ),
            )
        )
    pq, f = min(theta_losses, key=lambda x: max(x))
    return LossRecord(
        phi1=loss_phi1,
        phi2=abs(est.phi2 - truth.phi2),
        phi3=abs(est.phi3 - truth.phi3),
        psi1=float(np.linalg.norm(est.psi1 - truth.psi1)),
        psi2=loss_psi2,
        rel_phi1sq=rel(1.0 - est.phi1**2, 1.0 - truth.phi1**2),
        rel_phi2=rel(est.phi2, truth.phi2),
        rel_phi3=rel(est.phi3, truth.phi3),
        pq=pq,
        f=f,
    )


__all__ = [
    "FitResult",
    "LossRecord",
    "moment_init",
    "min_distance_fit",
    "min_distance_fits",
    "estimate_theta",
    "losses",
]
