"""Exact sampling of the hidden chain and observations, and empirical triple law.

The hidden chain starts from its stationary distribution; observations are
conditionally independent given the hidden states.  All sampling is driven
by explicit seeds (``derive_seed`` builds ``SeedSequence([master_seed, *keys])``;
the path of sweep row ``(n, rep)`` uses ``[seed, n, rep]``), so results are
reproducible regardless of scheduling.  Within one ``sample_paths`` seed the
stream is: ``count`` initial uniforms, then ``(n-1)*count`` transition
uniforms time-major, then ``count*n`` emission uniforms path-major.

``sample_paths`` runs no loop over time steps.  Each transition step flips,
resets or keeps the previous state, and every reset sets the same bit
[q < p], so a block of steps is two compares, one running xor and one
running maximum (``_scan_block``).  A symbol counts the inner cdf
thresholds of its state that its uniform reaches; both states' compares
are made and the state bit selects one, so no threshold is gathered per
symbol (``_emit``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .params import ThetaParams, stationary_dist
from .triple_law import TripleLaw


@dataclass(frozen=True, eq=False)
class PathSample:
    """Simulated trajectories: hidden states in {0,1}, symbols in {1..K}.

    ``hidden`` and ``observed`` are read-only integer arrays of shape (n,)
    for one path or (R, n) for R paths of common length n, kept in the dtype
    they are given (``sample_paths`` stores uint8 states and the narrowest
    unsigned type that holds K); ``len()`` is n.  ``hidden`` is None when
    the states were not kept (``sample_paths(..., hidden=False)``).
    """

    hidden: np.ndarray | None
    observed: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.observed)
        h = None if self.hidden is None else np.asarray(self.hidden)
        arrays = [y] if h is None else [h, y]
        if (h is not None and h.shape != y.shape) or y.ndim not in (1, 2):
            raise ValidationError("hidden and observed must have equal shapes (n,) or (R, n)")
        if y.size and any(a.dtype.kind not in "iu" for a in arrays):
            dtypes = " and ".join(str(a.dtype) for a in arrays)
            raise ValidationError(f"paths must be integer arrays, got {dtypes}")
        # np.asarray returns an array as is: freezing never copies R x n arrays
        for a in arrays:
            a.setflags(write=False)
        object.__setattr__(self, "hidden", h)
        object.__setattr__(self, "observed", y)

    def __len__(self) -> int:
        return self.observed.shape[-1]

    def to_csv(self) -> str:
        """The path as CSV text: an ``x,y`` header, then one ``state,symbol`` row per step.

        Each row is looked up in a table of the rows ``"{x},{y}\\n"`` as
        NUL-padded bytes, indexed by (state, symbol), so the text costs a few
        bytes per step and no Python object per row.
        """
        if self.hidden is None:
            raise ValidationError("to_csv writes states; this sample holds no hidden states")
        if self.hidden.ndim != 1:
            raise ValidationError("to_csv writes one path; select a row first")
        x, y = self.hidden, self.observed
        if not x.size:
            return "x,y\n"
        if x.min() < 0 or x.max() > 1 or y.min() < 0 or y.max() > np.iinfo(np.uint16).max:
            raise ValidationError("to_csv writes states in {0, 1} and symbols in {0..65535}")
        symbols = range(int(y.max()) + 1)
        table = np.array([[f"{s},{v}\n" for v in symbols] for s in (0, 1)], dtype=bytes)
        rows = table[x, y].view(np.uint8)
        return "x,y\n" + rows[rows != 0].tobytes().decode("ascii")


def derive_seed(master_seed, *keys) -> np.random.SeedSequence:
    """Child seed for a replica or stage, stable across thread scheduling."""
    return np.random.SeedSequence([int(master_seed), *[int(k) for k in keys]])


def sample_path(theta: ThetaParams, n: int, seed) -> PathSample:
    """Stationary trajectory of length n; deterministic given the seed.

    The path is row 0 of ``sample_paths(theta, n, 1, seed)``.
    """
    batch = sample_paths(theta, n, 1, seed)
    return PathSample(hidden=batch.hidden[0], observed=batch.observed[0])


# Uniforms per draw: a transition draw takes max(1, _DRAW_BLOCK // count) steps
# of every path, an emission draw the next _DRAW_BLOCK symbols in path-major
# order.  The budget bounds the temporaries; the stream order does not depend on it.
_DRAW_BLOCK = 1 << 18


def sample_paths(
    theta: ThetaParams, n: int, count: int, seed, *, hidden: bool = True
) -> PathSample:
    """Vectorized sampler: `count` independent stationary paths of length n.

    Returns one ``PathSample`` whose arrays have shape (count, n): hidden
    states as uint8, symbols as the narrowest unsigned type that holds K
    (uint8 for K <= 255).  The hidden chain is scanned in blocks of time
    steps (``_scan_block``) into the symbol array, whose dtype also holds
    0/1.  Each emission draw then reads its own states as a bool mask and
    overwrites them with its symbols (``_emit``): 1 plus the number of
    inner thresholds of its state's emission cdf that its uniform reaches.
    Neither loop runs per time step; the emission loop runs once per inner
    threshold, K - 1 times per draw.

    With ``hidden=True`` one uint8 copy of the states is taken before the
    emissions, so the sample costs 2 bytes per symbol; with ``hidden=False``
    ``PathSample.hidden`` is None and the sample costs 1 byte per symbol
    for K <= 255.  The uniforms and the symbols are the same either way.
    """
    if n < 0 or count < 0:
        raise ValidationError("n and count must be >= 0")
    rng = np.random.default_rng(seed)
    observed = np.empty((count, n), dtype=np.min_scalar_type(theta.f0.size))
    if n == 0 or count == 0:
        states = observed.astype(np.uint8) if hidden else None
        return PathSample(hidden=states, observed=observed)
    observed[:, 0] = rng.random(count) < stationary_dist(theta.p, theta.q)[1]
    lo, hi = sorted((theta.p, theta.q))
    steps = max(1, _DRAW_BLOCK // count)
    # the code 2k + c of a reset at step k of a draw, c = [q < p] the bit every reset sets
    codes = 2 * np.arange(1, min(steps, n - 1) + 1, dtype=np.int32)[:, None]
    codes += theta.q < theta.p
    for k0 in range(1, n, steps):
        k1 = min(k0 + steps, n)
        u = rng.random((k1 - k0, count))
        observed[:, k0:k1] = _scan_block(u, observed[:, k0 - 1], lo, hi, codes[:k1 - k0]).T
        del u  # free this draw before the next one is made
    states = observed.astype(np.uint8) if hidden else None
    # inner thresholds only: u < 1 never reaches the last cdf entry
    thresholds = np.vstack([np.cumsum(theta.f0), np.cumsum(theta.f1)])[:, :-1]
    flat = observed.reshape(-1)  # a view whose order is the emission stream's
    for i in range(0, flat.size, _DRAW_BLOCK):
        y = flat[i:i + _DRAW_BLOCK]
        state = y.astype(bool)  # the draw's states, which _emit overwrites
        _emit(rng.random(y.size), state, thresholds, y)
    return PathSample(hidden=states, observed=observed)


def _scan_block(u, state, lo, hi, codes):
    """Hidden states (0/1 ints) for one (steps, count) block of transition uniforms.

    Step k sends the previous bit x to ``u < p`` if x = 0 and to ``u >= q``
    if x = 1.  With lo = min(p, q) and hi = max(p, q) that is three maps of
    x: the flip where u < lo, a reset where lo <= u < hi, and the identity
    where u >= hi.  Every reset sets the same bit c = [q < p].  The state
    after step k is the bit set at the last reset r <= k (or the carried
    ``state``) xor the flips in (r, k].  ``codes`` holds 2k + c for each
    step k = 1..steps; at a reset, its code xor the flips up to r is
    2r + (c xor flips up to r), so one running maximum carries both the
    last reset and its bit.
    """
    flip = u < lo
    reset = u < hi
    reset ^= flip  # lo <= u < hi: u < lo implies u < hi
    parity = np.logical_xor.accumulate(flip, axis=0)
    enc = codes ^ parity
    enc *= reset
    # the carried bit (0 or 1) stands until the block's first reset (2r >= 2)
    np.maximum(enc[0], state, out=enc[0])
    np.maximum.accumulate(enc, axis=0, out=enc)
    enc &= 1
    enc ^= parity
    return enc


def _emit(u, state, thresholds, out):
    """Write one emission draw's symbols into ``out``.

    The symbol of uniform ``u[i]`` is 1 plus the number of inner cdf
    thresholds of its state (row ``state[i]`` of the (2, K-1)
    ``thresholds``) that it reaches, ``u[i] >= t``.  So a uniform equal to
    a cdf entry reaches it, and a zero-mass symbol, whose entry repeats the
    one before, is never drawn.  For each threshold both states' compares
    are made and the state bit selects one in place, so nothing is gathered
    per symbol.
    """
    reached = np.empty(u.shape, dtype=bool)
    other = np.empty(u.shape, dtype=bool)
    out.fill(1)
    for t0, t1 in thresholds.T:
        np.greater_equal(u, t0, out=reached)
        np.greater_equal(u, t1, out=other)
        other ^= reached
        other &= state
        reached ^= other  # u >= t1 where the state is 1, u >= t0 where it is 0
        out += reached


def require_symbols(observed, K: int, ndim: int) -> np.ndarray:
    """``observed`` as a nonempty ``ndim``-axis integer array of symbols in {1..K}.

    The one check of a symbol array, which copies none: ValidationError for
    another shape, no symbol, a non-integer dtype (a float symbol is refused,
    not truncated) or an entry outside {1..K}.  Callers check this before any
    ``symbol - 1``, which would wrap a 0 in an unsigned dtype.
    """
    y = np.asarray(observed)
    if y.ndim != ndim or not y.size:
        shape = "vector" if ndim == 1 else "R x n matrix"
        raise ValidationError(f"observed must be a nonempty {shape}, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        raise ValidationError(f"observed symbols must be integers, got dtype {y.dtype}")
    if not (y.min() >= 1 and y.max() <= K):
        raise ValidationError(f"observed symbols out of range {{1..{K}}}")
    return y


def empirical_triple_law(observed, K: int) -> TripleLaw:
    """p_hat(a,b,c) = (#consecutive triples equal to (a,b,c)) / n.

    The divisor is n, not n - 2, so the total mass is (n-2)/n exactly;
    downstream distance computations never renormalize.
    """
    y = require_symbols(observed, K, 1)
    n = y.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    if not np.can_cast(y.dtype, np.int64):
        y = y.astype(np.int64)  # uint64 would promote the sums below to float
    # Horner's rule in one int64 buffer: ((y0 - 1) K + y1 - 1) K + y2 - 1
    idx = y[:-2].astype(np.int64)
    idx -= 1
    idx *= K
    idx += y[1:-1]
    idx -= 1
    idx *= K
    idx += y[2:]
    idx -= 1
    counts = np.bincount(idx, minlength=K**3).astype(float)
    return TripleLaw(probs=(counts / n).reshape(K, K, K))


__all__ = [
    "PathSample",
    "derive_seed",
    "sample_path",
    "sample_paths",
    "empirical_triple_law",
    "require_symbols",
]
