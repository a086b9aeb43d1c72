import numpy as np
import pytest

from hmm_frontier import (
    ConstraintBox,
    NoMemberError,
    PhiPsiParams,
    ThetaParams,
    ValidationError,
    canonicalize,
    empirical_triple_law,
    estimate_theta,
    forward_filter,
    losses,
    min_distance_fit,
    moment_init,
    sample_path,
    sample_phipsi,
    switch_labels,
    theta_to_phipsi,
    triple_law_phipsi,
    validate_phipsi,
)
from hmm_frontier.estimator import (
    _FATOL,
    _GRID_POINTS,
    _MAX_EVALS,
    _XATOL,
    _nelder_mead,
    _objective,
    min_distance_fits,
)
from hmm_frontier.triple_law import TripleLaw

from test_params import worked_box, worked_theta


def worked_pp():
    return theta_to_phipsi(worked_theta())


class TestMomentInit:
    def test_exact_recovery(self):
        pp = worked_pp()
        init, fallback = moment_init(triple_law_phipsi(pp), worked_box())
        assert not fallback
        init = canonicalize(init)
        rec = losses(init, pp)
        assert max(rec.phi1, rec.phi2, rec.phi3, rec.psi1, rec.psi2) <= 1e-6

    def test_iid_tensor_falls_back(self):
        psi1 = np.array([0.38, 0.30, 0.32])
        t = TripleLaw(probs=np.einsum("a,b,c->abc", psi1, psi1, psi1))
        init, fallback = moment_init(t, worked_box())
        assert fallback
        assert validate_phipsi(init, worked_box()).all_pass

    def test_marginal_is_psi1(self):
        pp = worked_pp()
        t = triple_law_phipsi(pp)
        init, _ = moment_init(t, worked_box())
        np.testing.assert_allclose(
            t.probs.sum(axis=(1, 2)), init.psi1 * t.total_mass, atol=1e-10
        )


class TestMinDistanceFit:
    def test_noiseless_recovery(self):
        pp = worked_pp()
        fit = min_distance_fit(triple_law_phipsi(pp), worked_box(), random_starts=1)
        rec = losses(fit.estimate, pp)
        assert max(rec.phi1, rec.phi2, rec.phi3, rec.psi1, rec.psi2) <= 1e-3
        assert fit.objective <= 1e-6

    def test_negative_random_starts_are_refused(self):
        with pytest.raises(ValidationError, match="random_starts must be >= 0"):
            min_distance_fit(triple_law_phipsi(worked_pp()), worked_box(), random_starts=-1)

    def test_label_switched_input_same_estimate(self):
        pp = worked_pp()
        fit_a = min_distance_fit(triple_law_phipsi(pp), worked_box(), random_starts=1)
        fit_b = min_distance_fit(
            triple_law_phipsi(switch_labels(pp)), worked_box(), random_starts=1
        )
        assert fit_a.estimate.phi1 == pytest.approx(fit_b.estimate.phi1, abs=1e-6)
        np.testing.assert_allclose(fit_a.estimate.psi2, fit_b.estimate.psi2, atol=1e-6)

    def test_estimate_is_canonical_and_feasible(self):
        pp = worked_pp()
        fit = min_distance_fit(triple_law_phipsi(pp), worked_box(), random_starts=1)
        canon = canonicalize(fit.estimate)
        assert canon.phi1 == fit.estimate.phi1
        assert validate_phipsi(fit.estimate, worked_box()).all_pass

    def test_near_minimality_diagnostic(self):
        pp = worked_pp()
        fit = min_distance_fit(triple_law_phipsi(pp), worked_box(), random_starts=1)
        assert fit.converged
        assert fit.objective <= 2 * fit.grid_floor + 1e-9

    def test_noiseless_consistency_random_truths(self):
        box = worked_box()
        for i in range(5):
            truth = sample_phipsi(box, [321, i])
            fit = min_distance_fit(triple_law_phipsi(truth), box, random_starts=1)
            rec = losses(fit.estimate, truth)
            assert max(rec.phi1, rec.phi2, rec.phi3, rec.psi1, rec.psi2) <= 1e-3

    def test_empty_box(self):
        bad = ConstraintBox(delta=0.4, epsilon=0.5, zeta=0.1, L=0.3, K=3)
        with pytest.raises(NoMemberError):
            min_distance_fit(triple_law_phipsi(worked_pp()), bad, random_starts=1)


def scipy_nelder_mead(f, simplex, maxfev):
    """The reference: scipy's Nelder-Mead on one row's objective."""
    from scipy.optimize import minimize

    res = minimize(
        lambda z: float(f(z[None])[0]), simplex[0], method="Nelder-Mead",
        options={"maxfev": maxfev, "fatol": _FATOL, "xatol": _XATOL, "initial_simplex": simplex},
    )
    return res.final_simplex, res.nfev


def assert_rows_match_scipy(f, simplexes, maxfev):
    """Every row of one lockstep run equals scipy on that row alone, bit for bit."""
    sim, fsim, nfev = _nelder_mead(f, simplexes, maxfev, _FATOL, _XATOL)
    for b, simplex in enumerate(simplexes):
        row = lambda z, b=b: f(z, np.full(len(z), b))  # noqa: E731
        (ref_sim, ref_fsim), ref_nfev = scipy_nelder_mead(row, simplex, maxfev)
        np.testing.assert_array_equal(sim[b], ref_sim, err_msg=f"row {b}")
        np.testing.assert_array_equal(fsim[b], ref_fsim, err_msg=f"row {b}")
        assert nfev[b] == ref_nfev, f"row {b}"
    return fsim, nfev


def simplexes_at(z0, steps):
    return np.stack([np.vstack([z, z + step * np.eye(z.size)]) for z, step in zip(z0, steps)])


class TestLockstepNelderMead:
    @pytest.mark.parametrize("maxfev", [37, 123, 400, 2000])
    def test_fit_objective_matches_scipy(self, maxfev):
        box = worked_box()
        rng = np.random.default_rng(maxfev)
        truths = [sample_phipsi(box, [77, i]) for i in range(3)]
        targets = np.stack([
            triple_law_phipsi(t).probs * rng.uniform(0.99, 1.01, (3, 3, 3)) for t in truths
        ])
        owner = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        z0 = rng.normal(0.0, 0.7, (owner.size, 9))
        # scalars far outside the box clip to its edge, so vertices that differ
        # only there tie, as they often do in real fits
        z0[5:, :3] = [[4.0, 5.0, -3.0], [-4.0, -5.0, 9.0], [6.0, 0.5, -2.0]]
        steps = [0.05, 0.05, 0.3, 1e-3, 0.05, 0.05, 0.05, 0.2]

        def f(points, rows):
            return _objective(points, targets[owner[rows]], box)

        simplexes = simplexes_at(z0, steps)
        start = f(simplexes.reshape(-1, 9), np.repeat(np.arange(owner.size), 10)).reshape(-1, 10)
        assert any(len(set(row)) < row.size for row in start)  # tied vertex values
        _, nfev = assert_rows_match_scipy(f, simplexes, maxfev)
        assert (nfev <= maxfev).all()
        if maxfev < 400:
            assert (nfev == maxfev).all()

    def test_budget_ends_inside_a_step_as_scipy_does(self):
        """A flat row shrinks every step (2 + N calls) and a descending linear
        row expands every step (2 calls), so these budgets run out in the
        middle of a shrink and on a refused expansion."""
        n = 4
        kind = np.array([0, 0, 0, 1, 1])  # 0: flat, 1: -sum(x)

        def f(points, rows):
            return np.where(kind[rows] == 0, 0.0, -points.sum(axis=1))

        rng = np.random.default_rng(5)
        simplexes = simplexes_at(rng.normal(size=(kind.size, n)), [0.5, 1.0, 0.25, 0.5, 1.0])
        for shrink_calls in range(n + 1):
            maxfev = (n + 1) + 3 * (n + 2) + 2 + shrink_calls
            _, nfev = assert_rows_match_scipy(f, simplexes, maxfev)
            assert (nfev[kind == 0] == maxfev).all()
        for maxfev in (n + 1 + 2 * 7, n + 1 + 2 * 7 + 1):
            _, nfev = assert_rows_match_scipy(f, simplexes, maxfev)
            assert (nfev[kind == 1] == maxfev).all()
        # the reflection before a refused expansion is dropped as well
        even = _nelder_mead(f, simplexes, n + 1 + 2 * 7, _FATOL, _XATOL)[0]
        odd = _nelder_mead(f, simplexes, n + 1 + 2 * 7 + 1, _FATOL, _XATOL)[0]
        np.testing.assert_array_equal(even[kind == 1], odd[kind == 1])


class TestStackedFits:
    def test_a_target_fits_the_same_alone_and_stacked(self):
        box = worked_box()
        theta = worked_theta()
        phats = [
            empirical_triple_law(sample_path(theta, 3000, [41, i]).observed, box.K)
            for i in range(3)
        ]
        stacked = min_distance_fits(phats, box, random_starts=1, seed=4)
        for phat, fit in zip(phats, stacked):
            alone = min_distance_fit(phat, box, random_starts=1, seed=4)
            assert fit.objective == alone.objective
            assert fit.grid_floor == alone.grid_floor
            assert (fit.nfev, fit.best_start) == (alone.nfev, alone.best_start)
            np.testing.assert_array_equal(fit.estimate.phi, alone.estimate.phi)
            np.testing.assert_array_equal(fit.estimate.psi1, alone.estimate.psi1)
            np.testing.assert_array_equal(fit.estimate.psi2, alone.estimate.psi2)
        assert min_distance_fits([], box) == []

    def test_result_records_its_search(self):
        pp = worked_pp()
        fit = min_distance_fit(triple_law_phipsi(pp), worked_box(), random_starts=2)
        assert fit.best_start in {"moment", "flip", "witness", "random-0", "random-1"}
        assert fit.starts <= fit.nfev <= fit.starts * _MAX_EVALS


def reference_grid_floor(target, best, box):
    """Loop over the grid-floor grid, one validated parameter per point.

    Returns the floor and the number of phi1 rows with no feasible phi3.
    """
    g = _GRID_POINTS
    psi1, psi2 = best.psi1, best.psi2
    mags = np.linspace(box.epsilon, box.phi2_max, g)
    floor, skipped = np.inf, 0
    for phi2 in np.concatenate([mags, -mags]):
        b1 = max(min(1.0 - 2.0 * box.delta / (1.0 - phi2), 2.0 / (1.0 - phi2) - 1.0), 0.0)
        for phi1 in np.linspace(-b1, b1, g):
            den = phi1 * psi2 + np.abs(psi2)
            hi = min(2.0 * psi1[k] / den[k] for k in range(box.K) if den[k] > 0.0)
            if hi < box.zeta:
                skipped += 1
                continue
            for phi3 in np.linspace(box.zeta, hi, g):
                pp = PhiPsiParams(phi1=phi1, phi2=phi2, phi3=phi3, psi1=psi1, psi2=psi2)
                floor = min(floor, float(np.linalg.norm(triple_law_phipsi(pp).probs - target)))
    return floor, skipped


class TestGridFloor:
    # The thin case's truth has phi3 below zeta, so the fit sits on phi3 = zeta
    # and points of the rows with no feasible phi3 would undercut the floor.
    @pytest.mark.parametrize(
        "theta, box, thin",
        [
            (
                ThetaParams(p=0.2, q=0.3, f0=[0.7, 0.2, 0.1], f1=[0.1, 0.2, 0.7]),
                worked_box(),
                False,
            ),
            (
                ThetaParams(
                    p=0.05, q=0.5, f0=[0.002, 0.3, 0.3, 0.398], f1=[0.03, 0.3, 0.3, 0.37]
                ),
                ConstraintBox(delta=0.02, epsilon=0.05, zeta=0.05, L=0.3, K=4),
                True,
            ),
        ],
        ids=["criterion5-box", "thin-K4-box"],
    )
    def test_matches_brute_force(self, theta, box, thin):
        exact = triple_law_phipsi(theta_to_phipsi(theta)).probs
        noise = np.random.default_rng(11).uniform(0.999, 1.001, exact.shape)
        target = TripleLaw(probs=exact * noise)
        fit = min_distance_fit(target, box, random_starts=1)
        floor, skipped = reference_grid_floor(target.probs, fit.estimate, box)
        assert (skipped > 0) == thin
        assert fit.grid_floor == pytest.approx(floor, rel=1e-12, abs=0.0)


class TestEstimateTheta:
    def test_sampled_pipeline(self):
        th = worked_theta()
        y = sample_path(th, 20000, 77).observed
        est, fit = estimate_theta(y, worked_box(), random_starts=1)
        assert fit.converged
        rec = losses(fit.estimate, worked_pp())
        assert rec.pq < 0.3
        assert rec.psi1 < 0.1

    def test_constant_sequence_handled(self):
        est, fit = estimate_theta(np.ones(100, dtype=int), worked_box(), random_starts=1)
        assert validate_phipsi(fit.estimate, worked_box()).all_pass
        assert isinstance(fit.converged, bool)

    def test_symbol_matrix_is_a_named_error(self):
        # an R x n batch of paths is not one observation sequence
        y = sample_path(worked_theta(), 50, 3).observed
        batch = np.stack([y, y])
        for entry in (
            lambda: empirical_triple_law(batch, 3),
            lambda: estimate_theta(batch, worked_box(), random_starts=0),
            lambda: forward_filter(worked_theta(), batch),
        ):
            with pytest.raises(ValidationError, match="vector"):
                entry()


class TestLosses:
    def test_zero_on_truth(self):
        pp = worked_pp()
        rec = losses(pp, pp)
        assert rec.phi1 == 0.0
        assert rec.phi2 == 0.0
        assert rec.psi2 == 0.0
        assert rec.pq == 0.0
        assert rec.f == 0.0

    def test_zero_on_switched(self):
        pp = worked_pp()
        rec = losses(switch_labels(pp), pp)
        assert rec.phi1 == 0.0
        assert rec.psi2 <= 1e-15
        assert rec.pq <= 1e-15
        assert rec.f <= 1e-15

    def test_phi1_sign_flip_only(self):
        pp = worked_pp()
        flipped = switch_labels(pp)
        rec = losses(flipped, pp)
        assert rec.phi1 == 0.0
        assert rec.phi2 == 0.0

    def test_relative_losses_not_applicable_on_zero(self):
        pp = worked_pp()
        th = worked_theta()
        other = theta_to_phipsi(
            type(th)(p=0.5, q=0.5, f0=th.f0, f1=th.f1)
        )  # phi2 = 0
        rec = losses(pp, other)
        assert rec.rel_phi2 is None
