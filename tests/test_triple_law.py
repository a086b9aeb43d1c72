import numpy as np
import pytest

from hmm_frontier import (
    ConstraintBox,
    MomentVector,
    NonInvertibleMomentError,
    ThetaParams,
    equivalence_ratio_probe,
    m_of_phi,
    modulus_bounds,
    phi_of_m,
    r_of_phi,
    rho,
    switch_labels,
    theta_to_phipsi,
    triple_law_phipsi,
    triple_law_theta,
)
from hmm_frontier.params import PhiPsiParams, sample_members
from hmm_frontier.triple_law import _rho_stack

from test_params import random_theta, worked_theta

WORKED_PHI = np.array([0.2, 0.5, 0.3 * np.sqrt(2)])


class TestRofPhi:
    def test_simple(self):
        assert r_of_phi([0.0, 0.5, 0.2]) == pytest.approx(0.005, abs=1e-15)

    def test_vanishes_at_extreme_phi1(self):
        assert r_of_phi([1.0, 0.3, 0.7]) == 0.0
        assert r_of_phi([-1.0, 0.3, 0.7]) == 0.0

    def test_worked(self):
        assert r_of_phi(WORKED_PHI) == pytest.approx(0.0216, abs=1e-12)


class TestMomentMap:
    def test_worked(self):
        m = m_of_phi(WORKED_PHI)
        assert m.m1 == pytest.approx(0.0216, abs=1e-12)
        assert m.m2 == pytest.approx(0.0108, abs=1e-12)
        assert m.m3 == pytest.approx(9.16410e-4, abs=1e-9)

    def test_zero_phi2(self):
        m = m_of_phi([0.3, 0.0, 0.5])
        assert (m.m1, m.m2, m.m3) == (0.0, 0.0, 0.0)

    def test_zero_phi1_kills_m3(self):
        assert m_of_phi([0.0, 0.4, 0.5]).m3 == 0.0

    def test_inverse_worked(self):
        phi = phi_of_m(MomentVector(m1=0.0216, m2=0.0108, m3=9.16410e-4))
        np.testing.assert_allclose(phi, WORKED_PHI, atol=1e-7)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            phi = np.array(
                [rng.uniform(-0.9, 0.9), rng.uniform(0.05, 0.9), rng.uniform(0.05, 1.2)]
            )
            m = m_of_phi(phi)
            back = phi_of_m(m)
            np.testing.assert_allclose(back, phi, rtol=1e-10, atol=1e-12)
            m2 = m_of_phi(back)
            np.testing.assert_allclose(
                [m2.m1, m2.m2, m2.m3], [m.m1, m.m2, m.m3], rtol=1e-10, atol=1e-15
            )

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleMomentError):
            phi_of_m(MomentVector(m1=0.0, m2=0.01, m3=0.0))
        with pytest.raises(NonInvertibleMomentError):
            phi_of_m(MomentVector(m1=0.01, m2=-0.01, m3=0.0))


class TestTripleLaw:
    def test_worked_entry(self):
        t = triple_law_theta(worked_theta())
        assert t.probs[0, 0, 0] == pytest.approx(0.064808, abs=1e-9)
        assert t.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_identical_emissions(self):
        f = np.array([0.5, 0.3, 0.2])
        t = triple_law_theta(ThetaParams(p=0.7, q=0.4, f0=f, f1=f))
        np.testing.assert_allclose(
            t.probs, np.einsum("a,b,c->abc", f, f, f), atol=1e-15
        )

    def test_phi2_zero_is_iid(self):
        th = ThetaParams(p=0.5, q=0.5, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5])
        pp = theta_to_phipsi(th)
        t = triple_law_phipsi(pp)
        np.testing.assert_allclose(
            t.probs, np.einsum("a,b,c->abc", pp.psi1, pp.psi1, pp.psi1), atol=1e-15
        )

    def test_dual_formulas_agree(self):
        rng = np.random.default_rng(6)
        for K in (2, 3, 5):
            for _ in range(100):
                th = random_theta(rng, K=K)
                a = triple_law_theta(th)
                b = triple_law_phipsi(theta_to_phipsi(th))
                assert np.abs(a.probs - b.probs).max() <= 1e-13

    def test_label_switch_same_tensor(self):
        pp = theta_to_phipsi(worked_theta())
        a = triple_law_phipsi(pp)
        b = triple_law_phipsi(switch_labels(pp))
        assert np.abs(a.probs - b.probs).max() <= 1e-14


class TestRho:
    def test_zero_on_identical(self):
        pp = theta_to_phipsi(worked_theta())
        assert rho(pp, pp) == 0.0

    def test_zero_on_switched(self):
        pp = theta_to_phipsi(worked_theta())
        assert rho(pp, switch_labels(pp)) == 0.0

    def test_worked_psi1_shift(self):
        a = theta_to_phipsi(worked_theta())
        b = PhiPsiParams(
            phi1=a.phi1, phi2=a.phi2, phi3=a.phi3,
            psi1=[0.39, 0.30, 0.31], psi2=a.psi2,
        )
        assert rho(a, b) == pytest.approx(0.01414214, abs=1e-7)

    def test_switch_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = theta_to_phipsi(random_theta(rng))
            b = theta_to_phipsi(random_theta(rng))
            d = rho(a, b)
            assert rho(switch_labels(a), b) == d
            assert rho(a, switch_labels(b)) == d


class TestEquivalenceProbe:
    def test_small_probe(self):
        box = ConstraintBox(delta=0.05, epsilon=0.3, zeta=0.3, L=0.3, K=3)
        s = equivalence_ratio_probe(box, 200, 99)
        assert s.min_ratio > 0
        assert s.max_ratio >= s.min_ratio
        assert s.pairs_used + s.pairs_skipped == 200

    def test_probe_deterministic_extension(self):
        box = ConstraintBox(delta=0.05, epsilon=0.3, zeta=0.3, L=0.3, K=3)
        s1 = equivalence_ratio_probe(box, 100, 3)
        s2 = equivalence_ratio_probe(box, 200, 3)
        assert s2.min_ratio <= s1.min_ratio
        assert s2.max_ratio >= s1.max_ratio

    @pytest.mark.parametrize("pairs", [1, 7, 150])  # 150 pairs span three stacks
    def test_probe_is_a_prefix_of_one_stream(self, pairs):
        """A probe of M pairs scores members 2i, 2i+1 (i < M) of the stream that a
        larger probe reads, pair by pair as the scalar layers score them."""
        box = ConstraintBox(delta=0.05, epsilon=0.3, zeta=0.3, L=0.3, K=3)
        stream = sample_members(box, 2 * 300, 17)
        ratios = []
        for i in range(pairs):
            x, y = stream.member(2 * i), stream.member(2 * i + 1)
            ratios.append(triple_law_phipsi(x).distance(triple_law_phipsi(y)) / rho(x, y))
        s = equivalence_ratio_probe(box, pairs, 17)
        assert s.min_ratio == pytest.approx(min(ratios), rel=1e-12)
        assert s.max_ratio == pytest.approx(max(ratios), rel=1e-12)
        assert (s.pairs_used, s.pairs_skipped) == (pairs, 0)
        assert s.candidates == sample_members(box, 2 * pairs, 17).candidates
        assert s.candidates <= equivalence_ratio_probe(box, 300, 17).candidates


class TestStackedRho:
    def test_stack_equals_scalar_rho(self):
        box = ConstraintBox(delta=0.05, epsilon=0.2, zeta=0.1, L=0.3, K=4)
        m = sample_members(box, 400, 23)
        a = [m.member(i) for i in range(0, 400, 2)]
        b = [m.member(i) for i in range(1, 400, 2)]
        b[:10] = a[:10]  # rho = 0
        b[10:40] = [switch_labels(p) for p in a[10:40]]  # rho = 0 through the sign
        b[40:80] = [switch_labels(p) for p in b[40:80]]  # negative <psi2, psi2~>
        coords = [
            [np.array([getattr(p, f) for p in side]) for f in ("phi1", "phi2", "phi3", "psi1", "psi2")]
            for side in (a, b)
        ]
        stacked = _rho_stack(*coords)
        scalar = np.array([rho(x, y) for x, y in zip(a, b)])
        np.testing.assert_array_equal(stacked, scalar)
        assert not stacked[:40].any() and stacked[40:].all()


class TestModulusBounds:
    def test_eta_zero(self):
        mb = modulus_bounds(WORKED_PHI, 0.0)
        assert (mb.omega_1, mb.omega_2, mb.omega_3) == (0.0, 0.0, 0.0)
        assert not (mb.applicable_1 or mb.applicable_2 or mb.applicable_3)

    def test_worked_omega2(self):
        mb = modulus_bounds(WORKED_PHI, 1e-4)
        assert mb.omega_2 == pytest.approx(1.157407e-3, rel=1e-5)
        assert mb.applicable_2

    def test_phi3_zero_inapplicable(self):
        mb = modulus_bounds([0.2, 0.5, 0.0], 1e-4)
        assert not (mb.applicable_1 or mb.applicable_2 or mb.applicable_3)

    def test_empirical_modulus_phi2_phi3(self):
        # perturb the moment vector by at most eta per coordinate and check
        # the actual parameter movement against the structural rate factors
        rng = np.random.default_rng(8)
        for _ in range(200):
            phi = np.array(
                [rng.uniform(-0.7, 0.7), rng.uniform(0.2, 0.7), rng.uniform(0.3, 1.0)]
            )
            eta = 1e-7
            mb = modulus_bounds(phi, eta)
            if not mb.applicable_2:
                continue
            mv = m_of_phi(phi)
            m = np.array([mv.m1, mv.m2, mv.m3])
            mt = m + rng.uniform(-eta, eta, size=3)
            try:
                phit = phi_of_m(MomentVector(*mt))
            except NonInvertibleMomentError:
                continue
            assert abs(phit[1] - phi[1]) <= 100 * mb.omega_2
            if mb.applicable_3:
                assert abs(phit[2] - phi[2]) <= 100 * mb.omega_3
