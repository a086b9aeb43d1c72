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
stack of simplexes, one row per (target, start).  A step scores the four
trial points of every row (expansion, reflection, outside and inside
contraction) in one call of the batched objective and takes each row's new
vertex by one index over them; only a shrink calls the objective again.
Each row takes exactly the steps, values and evaluation count that
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
without random starts ended 0.01-11.1 % above the default's objective and
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
    _phi1_bound,
    _phi3_max,
    box_member,
    canonicalize,
    exists_witness,
    fallback_direction,
    leading_sign,
    phipsi_to_theta,
    sample_phipsi,
    switch_labels,
)
from .simulate import derive_seed, empirical_triple_law
from .triple_law import (
    MomentVector,
    TripleLaw,
    _row_dot,
    m_of_phi,
    moment_tensor,
    phi_of_m,
    triple_tensor,
)

_SIGN_TOL = 1e-12
_SIMPLEX_STEP = 0.05
_MAX_EVALS = 2000  # objective evaluations per simplex start
_FATOL = 1e-12
_XATOL = 1e-10
# Nelder-Mead trial points a * centroid - b * worst vertex: expansion,
# reflection, outside and inside contraction
_TRIAL_A = np.array([3.0, 2.0, 1.5, 0.5])[:, None, None]
_TRIAL_B = np.array([2.0, 1.0, 0.5, -0.5])[:, None, None]
# The step's new vertex by (kind, win), kind 0-3 for expand, accept, outside
# and inside contraction: one of the trial points above, or a shrink.  A
# losing expansion leaves the reflection, a losing contraction shrinks.
_SHRINK, _REFUSED = 4, 5
_OUTCOME = np.array([[1, 0], [1, 1], [_SHRINK, 2], [_SHRINK, 3]])
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
    parameter with the same psi1 is returned instead, flagged.  A target of
    another alphabet size than ``box.K`` is refused with a ValidationError.
    """
    if phat.probs.shape[0] != box.K:
        raise ValidationError(f"the target has K={phat.probs.shape[0]}, the box has K={box.K}")
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

    pp = None
    if abs(m1) >= 1e-10:
        try:
            pp = _project(*phi_of_m(MomentVector(m1=m1, m2=m2, m3=m3)), psi1, v, box)
        except NonInvertibleMomentError:
            pass
    if pp is None:
        return _box_center(box, psi1), True
    return pp, False


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
    phi3 = np.maximum(np.minimum(phi3, hi), box.zeta)
    return phi1, phi2, phi3, hi


def _project(phi1, phi2, phi3, psi1, psi2, box: ConstraintBox):
    """Clip scalar coordinates into the box; None when the result is no box member."""
    phi1, phi2, phi3, _ = _clip(phi1, phi2, phi3, psi1, psi2, box)
    try:
        return box_member(phi1, phi2, phi3, psi1, psi2, box)
    except ValidationError:
        return None


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
    eu = np.exp(u - np.maximum.reduce(u, axis=1, keepdims=True))
    psi1 = eu / np.add.reduce(eu, axis=1, keepdims=True)
    w = w - np.add.reduce(w, axis=1, keepdims=True) / K
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
    m = m_of_phi((phi1, phi2, phi3))
    cells = (slice(None), None, None, None)
    t = moment_tensor(m.m1[cells], m.m2[cells], m.m3[cells], psi1, psi2)
    t -= targets
    d = t.reshape(len(Z), -1)
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

    A step writes every row's four trial points (expansion, reflection,
    outside and inside contraction) into one array and scores them in one
    call of ``f``; ``nfev`` counts only the calls scipy would make.  Where
    the reflection falls among the best, second worst and worst values
    gives the row's kind of step, and whether that step's trial point wins
    gives its outcome (``_OUTCOME``): the new vertex, taken by one index
    over the four points, or a shrink, the only other call of ``f``.
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
    ranks = np.array([0, N1 - 2, N1 - 1])  # the best, second worst and worst vertex
    stacked = 0  # rows.size when the per-step index arrays below were built
    while rows.size:
        # the rows are sorted, so scipy's max |fsim[0] - fsim[1:]| is
        # fsim[-1] - fsim[0]; the vertex spread is needed only where that is small
        stop = fsim[:, -1] - fsim[:, 0] <= fatol
        if stop.any():
            stop &= np.maximum.reduce(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= xatol
        stop |= nfev >= maxfev
        if stop.any():
            done = rows[stop]
            out_sim[done], out_fsim[done], evals[done] = sim[stop], fsim[stop], nfev[stop]
            go = ~stop
            rows, sim, fsim, nfev = rows[go], sim[go], fsim[go], nfev[go]
            if not rows.size:
                break
        if rows.size != stacked:
            stacked = rows.size
            here = np.arange(stacked)
            tiled = np.tile(rows, 4)
            # column 3 stays True: a row that passes no test contracts inside
            below = np.ones((stacked, 4), dtype=bool)
            # row 1 stays 1: the reflection is accepted as it is; integers,
            # not booleans, so that a row of wins can index _OUTCOME
            wins = np.ones((4, stacked), dtype=np.uint8)
        xbar = np.add.reduce(sim[:, :-1], axis=1) / N
        # expansion (chi = 2), reflection (rho = 1), outside and inside
        # contraction (psi = 0.5) as a * xbar - b * worst, rounded as scipy's
        # own expressions
        trials = _TRIAL_A * xbar - _TRIAL_B * sim[:, -1]
        # every trial point is scored in the reflection's call, which costs
        # less than a second call on the few-row stack of one fit
        ftrials = f(trials.reshape(-1, N), tiled).reshape(4, -1)
        fxr = ftrials[1]
        nfev += 1
        np.less(fxr[:, None], fsim.take(ranks, axis=1), out=below[:, :3])
        kind = below.argmax(axis=1)  # 0 expand, 1 accept, 2 and 3 contract
        # the expansion wins when below the reflection, the outside
        # contraction when not above it, the inside one when below the worst vertex
        np.less(ftrials[0], fxr, out=wins[0])
        np.less_equal(ftrials[2], fxr, out=wins[2])
        np.less(ftrials[3], fsim[:, -1], out=wins[3])
        outcome = _OUTCOME[kind, wins[kind, here]]
        second = kind != 1
        nfev += second
        refused = nfev > maxfev
        if refused.any():  # a refused call changes nothing
            nfev[refused] = maxfev
            outcome[refused] = _REFUSED
        take = here[outcome < _SHRINK]
        pick = outcome[take]
        sim[take, -1] = trials[pick, take]
        fsim[take, -1] = ftrials[pick, take]
        shrink = outcome == _SHRINK
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
    ind = fsim.argsort(axis=1)
    ind += np.arange(0, ind.size, ind.shape[1])[:, None]  # into the flattened stack
    return sim.reshape(-1, sim.shape[2]).take(ind, axis=0), fsim.take(ind)


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
    if random_starts < 0:
        raise ValidationError(f"random_starts must be >= 0: {random_starts}")
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
    targets = np.stack([phat.probs for phat in phats])[owner]  # one per start
    z0 = np.stack(z0)
    simplexes = np.concatenate([z0[:, None], z0[:, None] + _SIMPLEX_STEP * np.eye(z0.shape[1])], 1)
    final, _, nfev = _nelder_mead(
        lambda Z, rows: _objective(Z, targets.take(rows, axis=0), box),
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
                cand = _project(*(v[c] for v in decoded[:5]), box)
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
    """Label-switch-aware losses between an estimate and the truth."""

    phi1: float
    phi2: float
    phi3: float
    psi1: float
    psi2: float
    pq: float
    f: float


def losses(est: PhiPsiParams, truth: PhiPsiParams) -> LossRecord:
    loss_phi1 = min(abs(est.phi1 - truth.phi1), abs(est.phi1 + truth.phi1))
    loss_psi2 = min(
        float(np.linalg.norm(est.psi2 - truth.psi2)),
        float(np.linalg.norm(est.psi2 + truth.psi2)),
    )

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
