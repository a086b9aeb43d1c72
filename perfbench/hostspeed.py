"""Host speed reference: a fixed piece of work that uses no hmm_frontier code.

The benchmark's host is a share of a machine whose speed changes by up to
about 1.7x over minutes, as other tenants come and go.  The worker times
this reference between operations, and ``run.py`` scales the time-based
end-to-end metrics to a host on which it takes ``NOMINAL_S``.  A change to
the program moves the operations and not the reference, so it still shows.

The work mixes what the layers do: interpreted per-step Python, numpy calls
on tiny arrays (where call overhead dominates), and numpy on an array of
200 000 elements (vector-bound, like batch simulation).
"""

from __future__ import annotations

import time

import numpy as np

# Scale point: about the reference's time on a 2.1 GHz Xeon vCPU.
NOMINAL_S = 0.2


def reference_seconds() -> float:
    """Wall time of one pass of the reference work."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(400_000):
        table[i % 97] = acc
        acc = (acc * 31 + i) % 1_000_003
    a = np.full((3, 3), 0.1)
    for _ in range(15_000):
        a = np.tanh(a @ a + 0.1)
    x = np.linspace(0.0, 1.0, 200_000)  # 1.6 MB, in place: no mark on peak RSS
    for _ in range(40):
        np.exp(-x, out=x)
        np.cumsum(x, out=x)
        x /= x[-1]
    return time.perf_counter() - start
