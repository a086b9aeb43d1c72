"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible even under capture) and
asserts the criterion.  Statistical checks use fixed seeds throughout.
"""

import itertools
import math

import numpy as np
import pytest

from hmm_frontier import (
    ConstraintBox,
    InfeasiblePairError,
    PhiPsiParams,
    ThetaParams,
    canonicalize,
    empirical_triple_law,
    equivalence_ratio_probe,
    forward_filter,
    loglik_batch,
    losses,
    lower_bound_pair,
    min_distance_fits,
    phipsi_to_theta,
    r_of_phi,
    rho,
    sample_path,
    sample_paths,
    sample_phipsi,
    slope_fit,
    stationary_dist,
    theta_to_phipsi,
    threshold_probe,
    triple_law_phipsi,
    triple_law_theta,
    v_recursion,
)
from hmm_frontier.simulate import derive_seed

from test_filter_kl import brute_force_loglik, positive_theta
from test_params import random_theta


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def worked_theta():
    return ThetaParams(p=0.2, q=0.3, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5])


def test_criterion_01_parametrization_round_trips(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10**4):
        th = random_theta(rng)
        pp = canonicalize(theta_to_phipsi(th))
        th2 = phipsi_to_theta(theta_to_phipsi(th))
        err = max(
            abs(th2.p - th.p),
            abs(th2.q - th.q),
            float(np.abs(th2.f0 - th.f0).max()),
            float(np.abs(th2.f1 - th.f1).max()),
        )
        back = canonicalize(theta_to_phipsi(phipsi_to_theta(pp)))
        err = max(
            err,
            abs(back.phi1 - pp.phi1),
            abs(back.phi2 - pp.phi2),
            abs(back.phi3 - pp.phi3),
            float(np.abs(back.psi1 - pp.psi1).max()),
            float(np.abs(back.psi2 - pp.psi2).max()),
        )
        worst = max(worst, err)
    report(capsys, 1, worst <= 1e-12, f"max round-trip error {worst:.3e} (<= 1e-12)")


def test_criterion_02_dual_triple_law_agreement(capsys):
    rng = np.random.default_rng(102)
    worst = 0.0
    per_k = 10**4 // 3 + 1
    for K in (2, 3, 5):
        for _ in range(per_k):
            th = random_theta(rng, K=K)
            a = triple_law_theta(th)
            b = triple_law_phipsi(theta_to_phipsi(th))
            worst = max(worst, float(np.abs(a.probs - b.probs).max()))
    report(capsys, 2, worst <= 1e-13, f"max entrywise gap {worst:.3e} (<= 1e-13)")


def test_criterion_03_filter_equivalence(capsys):
    rng = np.random.default_rng(103)
    worst_pair = 0.0
    for _ in range(100):
        th = positive_theta(rng)
        y = sample_path(th, 500, int(rng.integers(1 << 31))).observed
        a = forward_filter(th, y).loglik
        b = v_recursion(theta_to_phipsi(th), y).loglik
        worst_pair = max(worst_pair, abs(a - b))
    worst_brute = 0.0
    for _ in range(5):
        th = positive_theta(rng)
        y = sample_path(th, 12, int(rng.integers(1 << 31))).observed
        worst_brute = max(
            worst_brute, abs(forward_filter(th, y).loglik - brute_force_loglik(th, y))
        )
    ok = worst_pair <= 1e-8 and worst_brute <= 1e-10
    report(
        capsys, 3, ok,
        f"V-vs-forward gap {worst_pair:.3e} (<= 1e-8); "
        f"forward-vs-exhaustive gap {worst_brute:.3e} (<= 1e-10)",
    )


def test_criterion_04_empirical_concentration_slope(capsys):
    th = worked_theta()
    exact = triple_law_theta(th)
    rows = []
    for n in (10**3, 10**4, 10**5):
        batch = sample_paths(th, n, 200, derive_seed(104, n))
        for i in range(200):
            phat = empirical_triple_law(batch.observed[i], 3)
            rows.append({"n": n, "loss": float(np.linalg.norm(phat.probs - exact.probs))})
    slope, _, _ = slope_fit(rows, "loss")
    report(
        capsys, 4, -0.6 <= slope <= -0.4,
        f"concentration log-log slope {slope:.3f} (in [-0.6, -0.4])",
    )


def test_criterion_05_estimation_rate_slopes(capsys):
    th = ThetaParams(p=0.2, q=0.3, f0=[0.7, 0.2, 0.1], f1=[0.1, 0.2, 0.7])
    truth = theta_to_phipsi(th)
    box = ConstraintBox(delta=0.1, epsilon=0.3, zeta=0.3, L=0.3, K=3)
    rows = []
    for n in (10**3, 10**4, 10**5):
        batch = sample_paths(th, n, 200, derive_seed(105, n))
        phats = [empirical_triple_law(batch.observed[i], 3) for i in range(200)]
        for fit in min_distance_fits(phats, box):
            rec = losses(fit.estimate, truth)
            rows.append(
                {
                    "n": n,
                    "loss_phi2": rec.phi2,
                    "loss_psi1": rec.psi1,
                    "loss_psi2": rec.psi2,
                }
            )
    slopes = {col: slope_fit(rows, col)[0] for col in ("loss_phi2", "loss_psi1", "loss_psi2")}
    ok = all(-0.6 <= s <= -0.4 for s in slopes.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    report(capsys, 5, ok, f"estimation slopes {detail} (each in [-0.6, -0.4])")


def test_criterion_06_noiseless_recovery(capsys):
    box = ConstraintBox(delta=0.1, epsilon=0.3, zeta=0.3, L=0.3, K=3)
    worst = 0.0
    truths = [sample_phipsi(box, derive_seed(106, i)) for i in range(50)]
    for truth, fit in zip(truths, min_distance_fits([triple_law_phipsi(t) for t in truths], box)):
        rec = losses(fit.estimate, truth)
        worst = max(
            worst, rec.phi1, rec.phi2, rec.phi3, rec.psi1, rec.psi2, rec.pq, rec.f
        )
    report(capsys, 6, worst <= 1e-3, f"worst noiseless loss {worst:.3e} (<= 1e-3)")


def test_criterion_07_kl_bound_shape(capsys):
    psi1 = np.full(3, 1 / 3)
    psi2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    a = PhiPsiParams(phi1=0.2, phi2=0.05, phi3=0.4, psi1=psi1, psi2=psi2)
    b = PhiPsiParams(phi1=0.2, phi2=0.05, phi3=0.4, psi1=psi1 + 0.03 * psi2, psi2=psi2)
    th_a = phipsi_to_theta(a)
    assert min(th_a.f0.min(), th_a.f1.min()) >= 0.1
    ns = list(range(100, 1001, 100))
    replicas = 4000
    paths = sample_paths(th_a, 1000, replicas, derive_seed(107, 0))
    _, pa = loglik_batch(a, paths.observed, checkpoints=ns)
    _, pb = loglik_batch(b, paths.observed, checkpoints=ns)
    kl = (pa - pb).mean(axis=0)
    x = np.array(ns, float)
    slope = float((x * kl).sum() / (x * x).sum())
    resid = kl - slope * x
    r2 = 1.0 - float((resid**2).sum()) / float(((kl - kl.mean()) ** 2).sum())
    ratios = kl / (x * rho(a, b) ** 2)
    spread = float(ratios.max() / ratios.min())
    ok = r2 >= 0.95 and spread < 10 and np.all(kl > 0)
    report(
        capsys, 7, ok,
        f"KL-vs-n through-origin R^2 {r2:.4f} (>= 0.95); "
        f"KL/(n rho^2) spread {spread:.2f} (< 10)",
    )


def test_criterion_08_unlearnability_threshold(capsys):
    box = ConstraintBox(delta=0.1, epsilon=0.2, zeta=0.1, L=0.3, K=3)
    hard = threshold_probe("phi1_phi3", box, 10**5, 0.001, 500, 108)
    easy = threshold_probe("psi1", box, 10**4, 1.0, 500, 109)
    ok = hard.test_error >= 0.3 and easy.test_error <= 0.3
    report(
        capsys, 8, ok,
        f"hard-pair test error {hard.test_error:.3f} (>= 0.3, rho*sqrt(n)="
        f"{hard.rho * math.sqrt(10**5):.2e}); "
        f"contrast test error {easy.test_error:.3f} (<= 0.3, rho*sqrt(n)="
        f"{easy.rho * math.sqrt(10**4):.2f})",
    )


def test_criterion_09_equivalence_probe(capsys):
    box = ConstraintBox(delta=0.05, epsilon=0.3, zeta=0.3, L=0.3, K=3)
    s1 = equivalence_ratio_probe(box, 10**4, 2024)
    s2 = equivalence_ratio_probe(box, 2 * 10**4, 2024)
    drift_min = abs(s2.min_ratio / s1.min_ratio - 1.0)
    drift_max = abs(s2.max_ratio / s1.max_ratio - 1.0)
    ok = (
        s1.min_ratio > 0
        and s1.spread < 1e4
        and drift_min <= 0.2
        and drift_max <= 0.2
    )
    report(
        capsys, 9, ok,
        f"ratio range [{s1.min_ratio:.3f}, {s1.max_ratio:.3f}], spread "
        f"{s1.spread:.1f} (< 1e4); doubling drift min {drift_min:.3f}, "
        f"max {drift_max:.3f} (each <= 0.2)",
    )


def test_criterion_10_r_equality_of_pairs(capsys):
    rng = np.random.default_rng(110)
    checked = 0
    worst = 0.0
    while checked < 10**3:
        box = ConstraintBox(
            delta=rng.uniform(0.02, 1 / 6),
            epsilon=rng.uniform(0.05, 1 / 3),
            zeta=rng.uniform(0.02, 0.1),
            L=0.3,
            K=3,
        )
        n = int(10 ** rng.uniform(4, 8))
        c = rng.uniform(0.0, 0.005)
        kind = ("phi1_phi3", "phi2")[checked % 2]
        try:
            pair = lower_bound_pair(kind, n, box, c)
        except InfeasiblePairError:
            continue
        worst = max(worst, abs(r_of_phi(pair.a.phi) - r_of_phi(pair.b.phi)))
        checked += 1
    report(
        capsys, 10, worst <= 1e-12,
        f"max |r(phi_a) - r(phi_b)| over {checked} pairs {worst:.3e} (<= 1e-12)",
    )
