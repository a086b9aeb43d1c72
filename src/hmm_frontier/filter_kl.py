"""Prediction filter, V recursion, log-likelihoods, and KL rate probes.

The exact likelihood is computed two independent ways:

* ``forward_filter`` -- the classical forward recursion on the prediction
  filter P_k(x) = P(X_{k+1} = x | Y_{1:k}) in native coordinates, kept as
  the oracle the V recursion is tested against;
* the recursion on V_k = phi3 (P_k(0) - P_k(1) - phi1) in frontier
  coordinates, whose predictive density for the next symbol is
  psi1(y) + V_k psi2(y) / 2.  One step loop (``_compose``) runs it for H
  stacked hypotheses over the rows of an R x n symbol matrix:
  ``loglik_batch`` scores many paths under one or several hypotheses in one
  pass (with optional prefix checkpoints), and ``v_recursion`` runs it on
  one path and also returns the V and filter trajectories.

Each step is a linear-fractional map of V, so a run of steps composes into
one 2 x 2 map.  A long path is cut along time into blocks of L steps
(``_block_length``, from H, R and n), run side by side from V = 0 in one
pass that composes each block's map and sums its log densities, s symbols
a Python step through a table of the precomposed maps of every s-tuple
(``_tuple_width``, from K: s = 6 at K = 3).  The maps are chained to give
every block its exact entry V, and one log per block corrects its sum, so
a long path costs about L / s + n / L Python steps instead of n.  With one
block (n <= 2048) the scan is the step loop, one symbol a step, which
``v_recursion`` always runs.  The step loop takes each density's exact log
and rescans a path whose blocked pass meets a density below ``LOG_FLOOR``.

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
    r_of_phi,
    require_same_k,
    require_size,
    stationary_dist,
    theta_to_phipsi,
)
from .simulate import require_symbols, sample_paths
from .triple_law import rho

LOG_FLOOR = 1e-300


def increasing_grid(values, name: str) -> tuple:
    """``values`` as a tuple of sizes; ValidationError unless each entry passes
    ``require_size`` and the grid is nonempty, strictly increasing and positive,
    so a bad grid is refused before any work."""
    grid = tuple(require_size(v, f"{name} entry") for v in values)
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
    y = require_symbols(observed, theta.f0.size, 1)
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
            loglik += np.log(mass)
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

    ValidationError unless there are hypotheses, they share K and each has only
    positive emissions, so a caller can refuse them before drawing paths.
    """
    if not pps:
        raise ValidationError("no hypotheses to score")
    require_same_k(pps)
    tables = []
    for pp in pps:
        require_positive_emissions(pp)
        phi1, phi2, phi3 = pp.phi
        psi1, psi2, r = pp.psi1, pp.psi2, r_of_phi(pp.phi)
        tables.append((phi2 * (psi1 - phi1 * phi3 * psi2), 2.0 * r * psi2, 0.5 * psi2, psi1))
    return np.stack(tables, axis=1)


def _block_length(h, rows, n):
    """The V scan's block length for H x R paths of n steps; not part of the seed contract.

    One block, the step loop, runs n <= 2048 steps.  Else the shortest power of
    two L with 8 L^2 >= n (about L / s tuple steps against n / L chaining steps)
    and, up to 2048, at most 2^15 cached columns h*rows*n/L a step.  At K = 3
    (s = 6) that was within about 10 % of the best L at every shape timed, from
    one path of 1e5 steps to 4000 paths of 3000; one block took 1.8-4x as long
    on the widest stacks timed (h*rows from 1000 to 8000).
    """
    if n <= 2048:
        return n
    length = 1
    while 8 * length * length < n or (length < 2048 and length << 15 < h * rows * n):
        length *= 2
    return length


def _block_scan(coef, y, length, cps=()):
    """The V scan: H x R log-likelihoods and H x R x len(cps) prefixes, ``length`` steps a block.

    Each step is the map V -> (alpha V + beta) / (gamma V + delta), whose
    denominator is the predictive density, with the four coefficients
    gathered by the step's symbols (blocked: the codes of its s-symbol
    tuples) from small tables, so no R x n float array is built.  ``y`` has
    passed ``require_symbols`` and keeps its own integer dtype, read one
    step's symbols at a time into a buffer of one step's width, so a uint8
    matrix is never widened.  Time is cut into blocks (the last may be shorter), whose
    maps from ``_compose`` are chained to give each block its exact entry
    V_e (block 0 enters at V_0 = 0, the stationary filter).  The product of
    a block's densities is the lower row of its unnormalized product applied
    to (V_e, 1), so its log-likelihood is its sum from V = 0 plus
    log(m10 V_e + 1), and a checkpoint takes its block's sum and m10 at its
    step.  The block log-likelihoods are added left to right.  One block is
    the plain step loop, whose sums and checkpoint sums are returned as they
    are.  If a blocked pass meets a tuple's density from V = 0 below
    ``LOG_FLOOR`` or an entry correction that is not positive and finite,
    the whole path is scanned once more as one block, whose step loop raises
    at its first bad step or scores the path.
    """
    rows, n = y.shape
    h, blocks = coef.shape[1], -(-n // length)
    if blocks == 1:  # no chain to run, and no correction to add
        (total, *_), at, _ = _compose(coef, y, n, cps)
        return total[:, 0], at[0].transpose(0, 2, 1)
    try:
        (total, m00, m01, m10), at, _ = _compose(coef, y, length, cps)
    except NumericalDegeneracyError:
        return _block_scan(coef, y, n, cps)
    ve = np.zeros((blocks, h, rows))  # block-major, so each step is a plain view
    for u, out, a, b, c in zip(ve, ve[1:], *(m.swapaxes(0, 1) for m in (m00, m01, m10))):
        np.divide(a * u + b, c * u + 1.0, out=out)
    # the entry corrections at the blocks' ends, then at the checkpoints
    js = [(cp - 1) // length for cp in cps]
    corr = np.concatenate((m10, at[1]), axis=1) * ve[list(range(blocks)) + js].swapaxes(0, 1)
    corr += 1.0
    if not ((corr > 0.0) & (corr < np.inf)).all():  # a NaN V_e fails too
        return _block_scan(coef, y, n, cps)
    ll = np.concatenate((total, at[0]), axis=1) + np.log(corr)
    sums = np.cumsum(ll[:, :blocks], axis=1)
    before = np.concatenate((np.zeros((h, 1, rows)), sums[:, :-1]), axis=1)
    return sums[:, -1], (ll[:, blocks:] + before[:, js]).transpose(0, 2, 1)


def _tuple_width(k):
    """Symbols a step of a blocked pass takes at K symbols: the largest s with (K+1)^s <= 4096.

    At K = 3 (s = 6) the probe's path sets scored about 3x faster than one
    symbol a step and 1.3x faster than s = 4.  At K = 8 and 16 one symbol
    more, past the bound, was faster still; the bound keeps the table to
    128 KiB per hypothesis.
    """
    width = 1
    while (k + 1) ** (width + 1) <= 4096:
        width += 1
    return width


def _degeneracy(den, step, blocks):
    """The error at ``step`` with densities ``den``: the step loop's names the step
    and its first bad density; a blocked pass's, which ``_block_scan`` catches, neither."""
    if blocks > 1:
        return NumericalDegeneracyError(f"a density is below {LOG_FLOOR} in a blocked pass")
    first = den[~(den > 0.0)][0]
    msg = f"predictive density {first} is not positive at step {step}"
    return NumericalDegeneracyError(msg, step=step)


def _compose(coef, y, length, cps=(), keep_v=False):
    """The step loop: every block of ``length`` steps side by side, each from V = 0.

    Entry (i, j) of the product of a block's step matrices [[alpha, beta],
    [gamma, delta]] shrinks like the product of its densities, so each step
    divides it by its (1, 1) entry den = delta + gamma m01, the density of the
    block's path from V = 0.  That entry is then exactly 1 and is not stored,
    and m01 is that path's V, updated by the step loop's own expressions.
    One block steps one symbol at a time, checks den > 0 and adds its exact
    log into the sum: the plain step loop.  More blocks step s symbols at a
    time (``_tuple_width``) through precomposed maps: column
    ((y1 (K+1) + y2) (K+1) + ...) of a 4 x H x (K+1)^s table holds
    M(y_s)...M(y1), so den is the product of the tuple's s densities, and
    one below ``LOG_FLOOR`` (a subnormal product has lost precision) or NaN
    fails the pass.  Symbol 0, the identity map, pads a short last tuple and
    a shorter last block, so every block runs the same steps.  A checkpoint
    reads its block after its tuple's code with the symbols past it set to
    0: at a tuple's end, the step's own arithmetic.  Returns the sums, m00,
    m01 and m10 (1 and 0 with one block, which needs neither) as one
    4 x H x blocks x R array, the sums and m10 at the checkpoints
    (2 x H x len(cps) x R; one block's m10 is unused), and the V trajectory
    (one block; None unless ``keep_v``).
    """
    rows, n = y.shape
    full, rem = divmod(n, length)
    blocks, tail = full + (rem > 0), full * length
    # a view, block-major like the state below: y is never copied
    ys = y[:, :tail].reshape(rows, full, length).transpose(1, 0, 2)
    h, base = coef.shape[1], coef.shape[2] + 1
    table = np.concatenate((np.zeros((4, h, 1)), coef), axis=2)  # column s is symbol s's
    table[[0, 3], :, 0] = 1.0  # symbol 0, the padding: the identity
    width = 1 if blocks == 1 else _tuple_width(base - 1)
    alpha, beta, gamma, delta = table[:, :, None]
    for _ in range(width - 1):  # column code * (K+1) + s: symbol s's map after code's
        m00, m01, m10, m11 = table[:, :, :, None]
        table = np.stack(
            (alpha * m00 + beta * m10, alpha * m01 + beta * m11,
             gamma * m00 + delta * m10, gamma * m01 + delta * m11)
        ).reshape(4, h, -1)
    # one block's densities need only be positive (>= the least double)
    floor = LOG_FLOOR if blocks > 1 else np.finfo(float).smallest_subnormal
    # The state is H x (blocks * R), block-major, so every step works on 2-D arrays.
    state = np.zeros((4, h, blocks * rows))  # the sums, m00, m01 and m10
    state[1] = 1.0
    run, a, v, c = state
    at = np.zeros((2, h, len(cps), rows))
    trace = np.empty((h, rows, n)) if keep_v else None
    # a tuple's first in-block step -> (checkpoint index, its block's columns,
    # the weight of the checkpoint's symbol in the tuple's code)
    reads = {}
    for ci, cp in enumerate(cps):
        j, k = divmod(cp - 1, length)
        reads.setdefault(k - k % width, []).append(
            (ci, slice(j * rows, (j + 1) * rows), base ** (width - 1 - k % width))
        )
    idx = np.empty((blocks, rows), np.intp)  # a step's codes, the tail block's last
    code = idx.reshape(-1)
    for t in range(0, length, width):
        idx[:full] = ys[:, :, t]
        idx[full:] = y[:, tail + t] if t < rem else 0
        for k in range(t + 1, t + width):  # Horner: the next symbol, or 0 past the block
            idx *= base
            if k < length:
                idx[:full] += ys[:, :, k]
            if k < rem:
                idx[full:] += y[:, tail + k]
        alpha, beta, gamma, delta = np.take(table, code, axis=2)
        den = delta + gamma * v
        if not den.min() >= floor:  # a NaN density fails too
            raise _degeneracy(den, t + 1, blocks)
        for ci, part, cut in reads.get(t, ()):
            p = np.take(table, code[part] // cut * cut, axis=2)
            den_p = p[3] + p[2] * v[:, part]
            if not den_p.min() >= floor:  # a tuple's first symbols: a blocked pass only
                raise _degeneracy(den_p, cps[ci], blocks)
            at[0, :, ci] = run[:, part] + np.log(den_p)
            at[1, :, ci] = (p[2] * a[:, part] + p[3] * c[:, part]) / den_p
        run += np.log(den)
        if blocks > 1:
            top = alpha * a + beta * c
            c *= delta
            c += gamma * a
            c /= den
            np.divide(top, den, out=a)
        v *= alpha
        v += beta
        v /= den
        if keep_v:
            trace[:, :, t] = v
    return state.reshape(4, h, blocks, rows), at, trace


def v_recursion(pp: PhiPsiParams, observed) -> FilterTrace:
    """Exact log-likelihood via the scalar V recursion in frontier coordinates.

    V_1 = 2 m1 psi2(Y_1) / psi1(Y_1) and, for k >= 2,

        V_k = (phi2 [psi1(Y_k) - phi1 phi3 psi2(Y_k)] V_{k-1}
               + 2 r psi2(Y_k)) / (psi1(Y_k) + psi2(Y_k) V_{k-1} / 2).

    The denominator is the predictive density of Y_k; if it is ever
    not positive (or NaN) a NumericalDegeneracyError carrying the step index
    is raised (this cannot happen when emissions are bounded away from zero
    and |phi2| is small).  The path runs as ``_compose``'s one block, V kept.
    """
    y = require_symbols(observed, pp.psi1.size, 1)
    state, _, v = _compose(_coefficients([pp]), y[None, :], y.size, keep_v=True)
    v = v[0, 0]
    if pp.phi3 > 0.0:
        pred1 = 0.5 * (1.0 - pp.phi1 - v / pp.phi3)
    else:
        pred1 = np.full(y.size, 0.5 * (1.0 - pp.phi1))
    return FilterTrace(v=v, predfilter=pred1, loglik=float(state[0, 0, 0, 0]))


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
    coef = _coefficients(pps)
    y = require_symbols(observed, coef.shape[2], 2)
    cps = () if checkpoints is None else increasing_grid(checkpoints, "checkpoints")
    if cps and cps[-1] > y.shape[1]:
        raise ValidationError(f"checkpoints must lie in [1, {y.shape[1]}]")
    loglik, prefix = _block_scan(coef, y, _block_length(coef.shape[1], *y.shape), cps)
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


def llr_paths(a: PhiPsiParams, b: PhiPsiParams, truth, lengths, replicas: int, seed):
    """R x len(lengths) log p_a - log p_b on R paths drawn under ``truth`` with ``seed``.

    Column j scores the length-``lengths[j]`` prefixes of the same paths.
    """
    replicas = require_size(replicas, "replicas", 2)
    lengths = increasing_grid(lengths, "n_grid")
    _coefficients([a, b])  # refuse a zero emission before drawing the paths
    paths = sample_paths(phipsi_to_theta(truth), lengths[-1], replicas, seed, hidden=False)
    _, (la, lb) = loglik_batch([a, b], paths.observed, lengths)
    return la - lb


def kl_estimate(a: PhiPsiParams, b: PhiPsiParams, n_grid, replicas: int, seed) -> list:
    """One ``KLEstimate`` per length in ``n_grid``, all off one ``llr_paths`` sample under ``a``.

    The estimates along a grid are therefore correlated.  Every replica
    counts: ``loglik_batch`` raises rather than return a non-finite value.
    """
    return [KLEstimate.of(col) for col in llr_paths(a, b, a, n_grid, replicas, seed).T]


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
