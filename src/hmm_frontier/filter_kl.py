"""Prediction filter, V recursion, log-likelihoods, and KL rate probes.

The exact likelihood is computed two independent ways:

* ``forward_filter`` -- the classical forward recursion on the prediction
  filter P_k(x) = P(X_{k+1} = x | Y_{1:k}) in native coordinates, kept as
  the oracle the V recursion is tested against;
* the recursion on V_k = phi3 (P_k(0) - P_k(1) - phi1) in frontier
  coordinates, whose predictive density for the next symbol is
  psi1(y) + V_k psi2(y) / 2.  One loop (``_v_scan``) runs it over the rows
  of an R x n symbol matrix: ``loglik_batch`` scores many paths at once
  (with optional prefix checkpoints), and ``v_recursion`` runs it on one
  path and also returns the V and filter trajectories.

The two log-likelihoods agree to high accuracy; the V form makes the
near-i.i.d. regime numerically transparent (V stays O(m1)).  On top of
these sit a Monte-Carlo estimator of the Kullback-Leibler divergence
between two parameters' path laws and the structural n * rho^2 factor it
is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError, ValidationError
from .params import PhiPsiParams, ThetaParams, phipsi_to_theta, stationary_dist, theta_to_phipsi
from .simulate import sample_paths
from .triple_law import r_of_phi, rho

LOG_FLOOR = 1e-300


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
    y = np.asarray(observed, dtype=np.int64)
    if y.size == 0:
        raise ValidationError("observed must be nonempty")
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


def _v_scan(pp: PhiPsiParams, y: np.ndarray, checkpoints=None, keep_v: bool = False):
    """The V recursion run over the rows of an R x n symbol matrix.

    Returns the R path log-likelihoods, the R x len(checkpoints) matrix of
    prefix log-likelihoods, and the R x n trajectory of V (None unless
    ``keep_v``).
    """
    theta = phipsi_to_theta(pp)
    if min(theta.f0.min(), theta.f1.min()) <= 0.0:
        raise ValidationError("v_recursion requires strictly positive emissions")
    phi1, phi2, phi3 = pp.phi1, pp.phi2, pp.phi3
    r = r_of_phi((phi1, phi2, phi3))
    a = pp.psi1[y - 1]
    b = pp.psi2[y - 1]
    loglik = np.log(np.maximum(a[:, 0], LOG_FLOOR))
    vk = 2.0 * r * b[:, 0] / a[:, 0]
    v = np.empty(y.shape) if keep_v else None
    if keep_v:
        v[:, 0] = vk
    cps = list(checkpoints) if checkpoints is not None else []
    prefix = np.empty((y.shape[0], len(cps)))
    ci = 0
    if cps and cps[0] == 1:
        prefix[:, 0] = loglik
        ci = 1
    for k in range(1, y.shape[1]):
        ak, bk = a[:, k], b[:, k]
        den = ak + 0.5 * bk * vk
        bad = den <= 0.0
        if np.any(bad):
            raise NumericalDegeneracyError(
                f"nonpositive predictive density {den[bad][0]} at step {k + 1}", step=k + 1
            )
        loglik = loglik + np.log(np.maximum(den, LOG_FLOOR))
        vk = (phi2 * (ak - phi1 * phi3 * bk) * vk + 2.0 * r * bk) / den
        if keep_v:
            v[:, k] = vk
        if ci < len(cps) and cps[ci] == k + 1:
            prefix[:, ci] = loglik
            ci += 1
    return loglik, prefix, v


def v_recursion(pp: PhiPsiParams, observed) -> FilterTrace:
    """Exact log-likelihood via the scalar V recursion in frontier coordinates.

    V_1 = 2 m1 psi2(Y_1) / psi1(Y_1) and, for k >= 2,

        V_k = (phi2 [psi1(Y_k) - phi1 phi3 psi2(Y_k)] V_{k-1}
               + 2 r psi2(Y_k)) / (psi1(Y_k) + psi2(Y_k) V_{k-1} / 2).

    The denominator is the predictive density of Y_k; if it is ever
    nonpositive a NumericalDegeneracyError carrying the step index is
    raised (this cannot happen when emissions are bounded away from zero
    and |phi2| is small).
    """
    y = np.asarray(observed, dtype=np.int64)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("observed must be a nonempty vector")
    loglik, _, v = _v_scan(pp, y[None, :], keep_v=True)
    v = v[0]
    if pp.phi3 > 0.0:
        pred1 = 0.5 * (1.0 - pp.phi1 - v / pp.phi3)
    else:
        pred1 = np.full(y.size, 0.5 * (1.0 - pp.phi1))
    return FilterTrace(v=v, predfilter=pred1, loglik=float(loglik[0]))


def loglik_batch(pp: PhiPsiParams, observed: np.ndarray, checkpoints=None):
    """Log-likelihoods of many equal-length paths via the V recursion.

    ``observed`` is an R x n integer matrix.  If ``checkpoints`` (a sorted
    list of prefix lengths) is given, also returns an R x len(checkpoints)
    matrix of prefix log-likelihoods.
    """
    y = np.asarray(observed, dtype=np.int64)
    if y.ndim != 2 or y.shape[1] == 0:
        raise ValidationError("observed must be a nonempty R x n matrix")
    loglik, prefix, _ = _v_scan(pp, y, checkpoints)
    return loglik if checkpoints is None else (loglik, prefix)


@dataclass(frozen=True)
class KLEstimate:
    """Monte-Carlo estimate of K(P_a^(n); P_b^(n)) with its standard error."""

    mean: float
    stderr: float
    replicates_used: int


def kl_estimate(a: PhiPsiParams, b: PhiPsiParams, n: int, replicates: int, seed) -> KLEstimate:
    """Average loglik difference over paths drawn under ``a``.

    Every replicate counts: ``loglik_batch`` raises rather than return a
    non-finite log-likelihood.
    """
    if replicates < 2:
        raise ValidationError("replicates must be >= 2")
    theta_a = phipsi_to_theta(a)
    paths = sample_paths(theta_a, n, replicates, seed)
    la = loglik_batch(a, paths.observed)
    lb = loglik_batch(b, paths.observed)
    diff = la - lb
    return KLEstimate(
        mean=float(diff.mean()),
        stderr=float(diff.std(ddof=1) / np.sqrt(diff.size)),
        replicates_used=int(diff.size),
    )


def kl_rho_bound(a: PhiPsiParams, b: PhiPsiParams, n: int) -> float:
    """Structural factor n * rho(a, b)^2 of the KL upper bound."""
    d = rho(a, b)
    return n * d * d


__all__ = [
    "FilterTrace",
    "KLEstimate",
    "forward_filter",
    "v_recursion",
    "loglik_batch",
    "kl_estimate",
    "kl_rho_bound",
]
