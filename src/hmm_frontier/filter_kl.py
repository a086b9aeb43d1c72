"""Prediction filter, V recursion, log-likelihoods, and KL rate probes.

The exact likelihood is computed two independent ways:

* ``forward_filter`` -- the classical forward recursion on the prediction
  filter P_k(x) = P(X_{k+1} = x | Y_{1:k}) in native coordinates, kept as
  the oracle the V recursion is tested against;
* the recursion on V_k = phi3 (P_k(0) - P_k(1) - phi1) in frontier
  coordinates, whose predictive density for the next symbol is
  psi1(y) + V_k psi2(y) / 2.  One scan (``_v_scan``) runs it for H stacked
  hypotheses over the rows of an R x n symbol matrix: ``loglik_batch``
  scores many paths under one or several hypotheses in one pass (with
  optional prefix checkpoints), and ``v_recursion`` runs it on one path and
  also returns the V and filter trajectories.

Each step is a linear-fractional map of V, so a run of steps composes into
one 2 x 2 map.  A path set of fewer than ``_SCAN_ROW_CUT`` rows is cut along
time into blocks of ``_SCAN_BLOCK`` steps, scanned side by side in two
passes: the first composes each block's map, the maps are chained to give
every block its exact entry V, and the second reruns the step update from
those entries.  That makes about 2 * ``_SCAN_BLOCK`` Python iterations
instead of n, and sums the log densities block by block.  With one block
(n <= ``_SCAN_BLOCK``, or at least ``_SCAN_ROW_CUT`` rows, where numpy's
work per step already dominates its call overhead) the scan is the plain
step loop.

The two log-likelihoods agree to high accuracy; the V form makes the
near-i.i.d. regime numerically transparent (V stays O(m1)).  On top of
these sit ``llr_paths`` (one path sample under one hypothesis, scored under
two at every requested prefix length), the Monte-Carlo KL estimator between
two path laws built on it, and the structural n * rho^2 factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError, ValidationError
from .params import (
    PhiPsiParams,
    ThetaParams,
    phipsi_to_theta,
    require_same_k,
    stationary_dist,
    theta_to_phipsi,
)
from .simulate import require_symbols, sample_paths
from .triple_law import r_of_phi, rho

LOG_FLOOR = 1e-300
# Time blocks of the V scan (module docstring).  At _SCAN_ROW_CUT rows or more
# a step is already vector-bound and blocking only adds work (H=2, R=500,
# n=5e4: 1.9 s in one block, 2.4 s in blocks).  Neither constant is part of
# the seed contract.
_SCAN_BLOCK = 2048
_SCAN_ROW_CUT = 256


def increasing_grid(values, name: str) -> tuple:
    """``values`` as a tuple of sizes; ValidationError unless nonempty, strictly
    increasing and positive, so a bad grid is refused before any work."""
    grid = tuple(int(v) for v in values)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{name} must be nonempty and strictly increasing")
    if grid[0] < 1:
        raise ValidationError(f"{name} must hold positive sizes: {grid[0]}")
    return grid


@dataclass(frozen=True, eq=False)
class FilterTrace:
    """Filter trajectory: V_k, P_k(1), and the path log-likelihood.

    ``impossible`` is set (with loglik = -inf) when an observation had zero
    predictive probability; no exception is raised in that case.
    """

    v: np.ndarray
    predfilter: np.ndarray
    loglik: float
    impossible: bool = False


def forward_filter(theta: ThetaParams, observed) -> FilterTrace:
    """Exact log-likelihood via the prediction-filter recursion.

    P_0 is the stationary law; each step conditions on Y_k and propagates
    through the transition matrix.  The k = 1 step uses P(X_1 = x) directly.
    """
    y = require_symbols(observed, theta.f0.size)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("observed must be a nonempty vector")
    p, q = theta.p, theta.q
    f = np.vstack([theta.f0, theta.f1])  # f[x, symbol-1]
    pred = stationary_dist(p, q)
    loglik = 0.0
    impossible = False
    pred1 = np.empty(y.size)
    for k, sym in enumerate(y):
        like = f[:, sym - 1] * pred
        mass = like.sum()
        if mass <= 0.0:
            impossible = True
            loglik = -np.inf
            # condition on an impossible event: freeze the filter uniformly
            post = np.array([0.5, 0.5])
        else:
            loglik += np.log(max(mass, LOG_FLOOR))
            post = like / mass
        pred = np.array(
            [post[0] * (1.0 - p) + post[1] * q, post[0] * p + post[1] * (1.0 - q)]
        )
        pred1[k] = pred[1]
    pp = theta_to_phipsi(theta)
    v = pp.phi3 * (1.0 - 2.0 * pred1 - pp.phi1)
    return FilterTrace(v=v, predfilter=pred1, loglik=float(loglik), impossible=impossible)


def require_positive_emissions(pp: PhiPsiParams) -> None:
    """ValidationError unless both emission densities of ``pp`` are strictly positive."""
    theta = phipsi_to_theta(pp)
    if min(theta.f0.min(), theta.f1.min()) <= 0.0:
        raise ValidationError("the V recursion requires strictly positive emissions")


def _coefficients(pps) -> np.ndarray:
    """The 4 x H x K table of the V maps' alpha, beta, gamma and delta, by symbol.

    ValidationError unless the hypotheses share K and every emission of each
    is strictly positive, so a caller can refuse them before drawing paths.
    """
    require_same_k(pps)
    tables = []
    for pp in pps:
        require_positive_emissions(pp)
        phi1, phi2, phi3 = pp.phi
        psi1, psi2, r = pp.psi1, pp.psi2, r_of_phi(pp.phi)
        tables.append((phi2 * (psi1 - phi1 * phi3 * psi2), 2.0 * r * psi2, 0.5 * psi2, psi1))
    return np.stack(tables, axis=1)


def _v_scan(pps, y: np.ndarray, checkpoints=None, keep_v: bool = False):
    """The V recursion of H hypotheses over the rows of an R x n symbol matrix.

    Each step is the map V -> (alpha V + beta) / (gamma V + delta), whose
    denominator is the predictive density, with the four coefficients
    gathered by the step's symbols from K-long tables, so no R x n float
    array is built.  ``y`` has passed ``require_symbols`` and keeps its own
    integer dtype: each step's ``symbol - 1`` indexes the tables in that
    dtype, so a uint8 matrix is never widened.  Fewer than
    ``_SCAN_ROW_CUT`` rows of more than ``_SCAN_BLOCK`` steps run in blocks
    of ``_SCAN_BLOCK`` steps; otherwise the whole path is one block.  Returns the H x R log-likelihoods, the
    H x R x len(checkpoints) prefix log-likelihoods and the H x R x n
    trajectory of V (None unless ``keep_v``).
    """
    cps = () if checkpoints is None else increasing_grid(checkpoints, "checkpoints")
    if cps and cps[-1] > y.shape[1]:
        raise ValidationError(f"checkpoints must lie in [1, {y.shape[1]}]")
    coef = _coefficients(pps)
    n = y.shape[1]
    length = _SCAN_BLOCK if y.shape[0] < _SCAN_ROW_CUT and n > _SCAN_BLOCK else n
    return _block_scan(coef, y, length, cps, keep_v)


def _block_scan(coef, y, length, cps=(), keep_v=False):
    """``_v_scan`` with time cut into blocks of ``length`` steps (the last may be shorter).

    Pass 1 composes each block's steps into one 2 x 2 matrix of the
    linear-fractional map, the maps are chained to give each block its exact
    entry V (block 0 enters at V_0 = 0, the stationary filter), and pass 2
    reruns the step update from those entries, so the positivity check sees
    every step.  Each block sums its own log densities; the block sums are
    added left to right.  With one block this is the plain step loop, bit
    for bit.
    """
    rows, n = y.shape
    full, rem = divmod(n, length)
    blocks, tail = full + (rem > 0), full * length
    # a view, block-major like the state below: y is never copied
    ys = y[:, :tail].reshape(rows, full, length).transpose(1, 0, 2)
    h = coef.shape[1]
    m00, m01, m10 = _compose(coef, ys[: blocks - 1])
    # The state is H x (blocks * R), block-major, so the blocks still running
    # are a prefix of the columns and every step works on 2-D arrays.
    v = np.zeros((h, blocks * rows))
    for j in range(1, blocks):
        part = slice((j - 1) * rows, j * rows)
        u = v[:, part]
        v[:, j * rows : (j + 1) * rows] = (m00[:, part] * u + m01[:, part]) / (
            m10[:, part] * u + 1.0
        )
    # Pass 2: the step update in every block from its entry V; a shorter last
    # block drops out after its ``rem`` steps.
    total = np.zeros(v.shape)
    trace = np.empty((h, rows, n)) if keep_v else None
    prefix = np.empty((h, rows, len(cps)))
    reads = {}  # in-block step -> (checkpoint index, block) read after it
    for ci, cp in enumerate(cps):
        j, k = divmod(cp - 1, length)
        reads.setdefault(k, []).append((ci, j))
    for live, steps in ((blocks, range(rem)), (full, range(rem, length))):
        u, run = v[:, : live * rows], total[:, : live * rows]
        for k in steps:
            sym = (
                ys[:, :, k] if live == full else np.concatenate((ys[:, :, k], y[None, :, tail + k]))
            )
            alpha, beta, gamma, delta = np.take(
                coef, np.subtract(sym, 1, order="C").ravel(), axis=2
            )
            den = delta + gamma * u
            if not (den > 0.0).all():  # a NaN density fails too
                _degenerate(coef, y, length, rows, k, den)
            run += np.log(np.maximum(den, LOG_FLOOR))
            np.divide(alpha * u + beta, den, out=u)
            if keep_v:
                by_time = u.reshape(h, live, rows).transpose(0, 2, 1)
                trace[:, :, k : live * length : length] = by_time
            for ci, j in reads.get(k, ()):
                prefix[:, :, ci] = total[:, j * rows : (j + 1) * rows]
    sums = np.cumsum(total.reshape(h, blocks, rows), axis=1)
    for ci, cp in enumerate(cps):
        j = (cp - 1) // length
        if j:
            prefix[:, :, ci] += sums[:, j - 1]
    return sums[:, -1], prefix, trace


def _compose(coef, ys):
    """Pass 1: each block's steps composed into one 2 x 2 matrix of the map.

    ``ys`` is the blocks x R x length symbol array.  Entry (i, j) of the
    product of the steps' matrices [[alpha, beta], [gamma, delta]] shrinks
    like the product of the predictive densities, so each step divides the
    product by its (1, 1) entry, the density of the block's path entering at
    V = 0.  That entry is then exactly 1, so it is not stored: the step uses
    1 in its place.  Returns the other three entries, each H x (blocks * R).
    """
    m00 = np.ones((coef.shape[1], ys.shape[0] * ys.shape[1]))
    m01, m10 = np.zeros(m00.shape), np.zeros(m00.shape)
    for k in range(ys.shape[2] if len(ys) else 0):
        idx = np.subtract(ys[:, :, k], 1, order="C").ravel()
        alpha, beta, gamma, delta = np.take(coef, idx, axis=2)
        den = gamma * m01 + delta
        top = alpha * m00 + beta * m10
        m10 *= delta
        m10 += gamma * m00
        m10 /= den
        m01 *= alpha
        m01 += beta
        m01 /= den
        top /= den
        m00 = top
    return m00, m01, m10


def _degenerate(coef, y, length, rows, k, den):
    """Raise NumericalDegeneracyError at the first bad step; step ``k`` of some block was bad."""
    bad = ~(den > 0.0)
    j = int(np.argmax(bad.reshape(bad.shape[0], -1, rows).any(axis=(0, 2))))
    if j:
        # a failure in an earlier block comes first: rescan those blocks in order
        _block_scan(coef, y[:, : j * length], j * length)
    step = j * length + k + 1
    first = den[:, j * rows : (j + 1) * rows][bad[:, j * rows : (j + 1) * rows]][0]
    raise NumericalDegeneracyError(
        f"predictive density {first} is not positive at step {step}", step=step
    )


def v_recursion(pp: PhiPsiParams, observed) -> FilterTrace:
    """Exact log-likelihood via the scalar V recursion in frontier coordinates.

    V_1 = 2 m1 psi2(Y_1) / psi1(Y_1) and, for k >= 2,

        V_k = (phi2 [psi1(Y_k) - phi1 phi3 psi2(Y_k)] V_{k-1}
               + 2 r psi2(Y_k)) / (psi1(Y_k) + psi2(Y_k) V_{k-1} / 2).

    The denominator is the predictive density of Y_k; if it is ever
    not positive (or NaN) a NumericalDegeneracyError carrying the step index
    is raised (this cannot happen when emissions are bounded away from zero
    and |phi2| is small).
    """
    y = require_symbols(observed, pp.psi1.size)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("observed must be a nonempty vector")
    loglik, _, v = _v_scan([pp], y[None, :], keep_v=True)
    v = v[0, 0]
    if pp.phi3 > 0.0:
        pred1 = 0.5 * (1.0 - pp.phi1 - v / pp.phi3)
    else:
        pred1 = np.full(y.size, 0.5 * (1.0 - pp.phi1))
    return FilterTrace(v=v, predfilter=pred1, loglik=float(loglik[0, 0]))


def loglik_batch(pp, observed: np.ndarray, checkpoints=None):
    """Log-likelihoods of many equal-length paths via the V recursion.

    ``observed`` is an R x n integer matrix of symbols in {1..K}, of any
    integer dtype (never widened).  If ``checkpoints`` (strictly
    increasing prefix lengths in [1, n]) is given, also returns an
    R x len(checkpoints) matrix of prefix log-likelihoods.  ``pp`` is one
    ``PhiPsiParams`` or a sequence of H, scored in one pass; then every
    result gains a leading axis of length H, row h as if scored alone.
    """
    single = isinstance(pp, PhiPsiParams)
    pps = [pp] if single else pp
    y = require_symbols(observed, pps[0].psi1.size)
    if y.ndim != 2 or y.shape[1] == 0:
        raise ValidationError("observed must be a nonempty R x n matrix")
    loglik, prefix, _ = _v_scan(pps, y, checkpoints)
    if single:
        loglik, prefix = loglik[0], prefix[0]
    return loglik if checkpoints is None else (loglik, prefix)


@dataclass(frozen=True)
class KLEstimate:
    """Monte-Carlo estimate of K(P_a^(n); P_b^(n)) with its standard error."""

    mean: float
    stderr: float

    @classmethod
    def of(cls, llr: np.ndarray) -> "KLEstimate":
        """Mean and standard error of per-path log-likelihood ratios."""
        return cls(mean=float(llr.mean()), stderr=float(llr.std(ddof=1) / np.sqrt(llr.size)))


def llr_paths(a: PhiPsiParams, b: PhiPsiParams, truth, lengths, replicates: int, seed):
    """R x len(lengths) log p_a - log p_b on R paths drawn under ``truth`` with ``seed``.

    Column j scores the length-``lengths[j]`` prefixes of the same paths.
    """
    if replicates < 2:
        raise ValidationError("replicates must be >= 2")
    lengths = increasing_grid(lengths, "n_grid")
    _coefficients([a, b])  # refuse a zero emission before drawing the paths
    paths = sample_paths(phipsi_to_theta(truth), lengths[-1], replicates, seed, hidden=False)
    _, (la, lb) = loglik_batch([a, b], paths.observed, lengths)
    return la - lb


def kl_estimate(a: PhiPsiParams, b: PhiPsiParams, n_grid, replicates: int, seed) -> list:
    """One ``KLEstimate`` per length in ``n_grid``, all off one ``llr_paths`` sample under ``a``.

    The estimates along a grid are therefore correlated.  Every replicate
    counts: ``loglik_batch`` raises rather than return a non-finite value.
    """
    return [KLEstimate.of(col) for col in llr_paths(a, b, a, n_grid, replicates, seed).T]


def kl_rho_bound(a: PhiPsiParams, b: PhiPsiParams, n: int) -> float:
    """Structural factor n * rho(a, b)^2 of the KL upper bound."""
    d = rho(a, b)
    return n * d * d


__all__ = [
    "FilterTrace",
    "KLEstimate",
    "forward_filter",
    "llr_paths",
    "v_recursion",
    "loglik_batch",
    "kl_estimate",
    "kl_rho_bound",
    "require_positive_emissions",
]
