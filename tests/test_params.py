import json
import math

import numpy as np
import pytest

from hmm_frontier import (
    ConstraintBox,
    DegenerateChainError,
    NoMemberError,
    PhiPsiParams,
    SamplerExhaustedError,
    ThetaParams,
    ValidationError,
    canonicalize,
    phipsi_to_theta,
    sample_phipsi,
    stationary_dist,
    switch_labels,
    theta_to_phipsi,
    validate_phipsi,
)
from hmm_frontier import params
from hmm_frontier.params import (
    SAMPLER_BLOCK,
    _membership_slacks,
    exists_witness,
    fallback_direction,
    sample_members,
)


def worked_theta():
    return ThetaParams(p=0.2, q=0.3, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5])


def worked_box():
    return ConstraintBox(delta=0.1, epsilon=0.3, zeta=0.3, L=0.3, K=3)


def random_theta(rng, K=3, min_gap=1e-6):
    while True:
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(0.05, 1.0)
        f0 = rng.dirichlet(np.ones(K))
        f1 = rng.dirichlet(np.ones(K))
        if np.linalg.norm(f0 - f1) > min_gap:
            return ThetaParams(p=p, q=q, f0=f0, f1=f1)


class TestThetaToPhiPsi:
    def test_worked_example(self):
        pp = theta_to_phipsi(worked_theta())
        np.testing.assert_allclose(pp.phi, [0.2, 0.5, 0.3 * np.sqrt(2)], atol=1e-14)
        np.testing.assert_allclose(pp.psi1, [0.38, 0.30, 0.32], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(pp.psi2, [s, 0.0, -s], atol=1e-14)
        assert not pp.degenerate

    def test_identical_emissions_degenerate(self):
        f = [0.5, 0.3, 0.2]
        pp = theta_to_phipsi(ThetaParams(p=0.25, q=0.25, f0=f, f1=f))
        assert pp.degenerate
        assert pp.phi1 == 0.0
        assert pp.phi2 == 0.5
        assert pp.phi3 == 0.0
        np.testing.assert_allclose(pp.psi1, f, atol=1e-15)

    def test_boundary_p_q_one(self):
        pp = theta_to_phipsi(ThetaParams(p=1.0, q=1.0, f0=[0.6, 0.4], f1=[0.4, 0.6]))
        assert pp.phi1 == 0.0
        assert pp.phi2 == -1.0


class TestPhiPsiToTheta:
    def test_worked_inverse(self):
        th = phipsi_to_theta(theta_to_phipsi(worked_theta()))
        assert th.p == pytest.approx(0.2, abs=1e-14)
        assert th.q == pytest.approx(0.3, abs=1e-14)
        np.testing.assert_allclose(th.f0, [0.5, 0.3, 0.2], atol=1e-14)
        np.testing.assert_allclose(th.f1, [0.2, 0.3, 0.5], atol=1e-14)

    def test_phi3_zero_gives_equal_emissions(self):
        pp = theta_to_phipsi(
            ThetaParams(p=0.3, q=0.4, f0=[0.5, 0.3, 0.2], f1=[0.5, 0.3, 0.2])
        )
        th = phipsi_to_theta(pp)
        np.testing.assert_allclose(th.f0, th.f1, atol=1e-15)
        np.testing.assert_allclose(th.f0, pp.psi1, atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            th = random_theta(rng)
            th2 = phipsi_to_theta(theta_to_phipsi(th))
            assert abs(th2.p - th.p) <= 1e-12
            assert abs(th2.q - th.q) <= 1e-12
            assert np.abs(th2.f0 - th.f0).max() <= 1e-12
            assert np.abs(th2.f1 - th.f1).max() <= 1e-12

    def test_reverse_round_trip_canonical(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            pp = canonicalize(theta_to_phipsi(random_theta(rng)))
            back = canonicalize(theta_to_phipsi(phipsi_to_theta(pp)))
            assert abs(back.phi1 - pp.phi1) <= 1e-12
            assert abs(back.phi2 - pp.phi2) <= 1e-12
            assert abs(back.phi3 - pp.phi3) <= 1e-12
            assert np.abs(back.psi1 - pp.psi1).max() <= 1e-12
            assert np.abs(back.psi2 - pp.psi2).max() <= 1e-12


class TestValidation:
    def test_worked_example_in_box(self):
        report = validate_phipsi(theta_to_phipsi(worked_theta()), worked_box())
        assert report.all_pass
        assert all(c.slack >= 0 for c in report.checks)

    def test_spectral_gap_violation(self):
        pp = PhiPsiParams(
            phi1=0.0,
            phi2=0.95,
            phi3=0.1,
            psi1=np.full(3, 1 / 3),
            psi2=fallback_direction(3),
        )
        report = validate_phipsi(pp, worked_box())
        assert not report["spectral_gap"].passed

    def test_phi3_slack(self):
        pp = PhiPsiParams(
            phi1=0.0,
            phi2=0.4,
            phi3=0.2,
            psi1=np.full(3, 1 / 3),
            psi2=fallback_direction(3),
        )
        check = validate_phipsi(pp, worked_box())["phi3_magnitude"]
        assert not check.passed
        assert check.slack == pytest.approx(0.2 - 0.3)

    def test_bad_density_rejected(self):
        with pytest.raises(ValidationError):
            ThetaParams(p=0.5, q=0.5, f0=[0.7, 0.4], f1=[0.5, 0.5])
        with pytest.raises(ValidationError):
            ThetaParams(p=0.0, q=0.5, f0=[0.5, 0.5], f1=[0.5, 0.5])

    def test_psi2_invariants_enforced(self):
        with pytest.raises(ValidationError):
            PhiPsiParams(
                phi1=0.0, phi2=0.3, phi3=0.1,
                psi1=[0.5, 0.3, 0.2], psi2=[1.0, 0.0, 0.0],
            )
        with pytest.raises(ValidationError):
            PhiPsiParams(
                phi1=0.0, phi2=0.3, phi3=0.1,
                psi1=[0.5, 0.3, 0.2], psi2=[0.5, 0.0, -0.5],
            )

    def test_emission_nonnegativity_enforced(self):
        with pytest.raises(ValidationError):
            PhiPsiParams(
                phi1=0.0, phi2=0.3, phi3=1.2,
                psi1=[0.05, 0.05, 0.9], psi2=fallback_direction(3),
            )


class TestCanonicalize:
    def test_already_canonical(self):
        pp = theta_to_phipsi(worked_theta())
        out = canonicalize(pp)
        assert out.phi1 == pp.phi1
        np.testing.assert_array_equal(out.psi2, pp.psi2)

    def test_switch_applied(self):
        pp = switch_labels(theta_to_phipsi(worked_theta()))
        out = canonicalize(pp)
        assert out.phi1 == pytest.approx(0.2)
        assert out.psi2[0] > 0

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pp = theta_to_phipsi(random_theta(rng))
            once = canonicalize(pp)
            twice = canonicalize(once)
            assert once.phi1 == twice.phi1
            np.testing.assert_array_equal(once.psi2, twice.psi2)


class TestSampling:
    def test_samples_are_members(self):
        box = ConstraintBox(delta=0.1, epsilon=0.3, zeta=0.1, L=0.3, K=3)
        for i in range(50):
            pp = sample_phipsi(box, [42, i])
            report = validate_phipsi(pp, box)
            assert report.all_pass
            assert report["r_lower_bound"].passed

    def test_determinism(self):
        box = worked_box()
        a = sample_phipsi(box, 1337)
        b = sample_phipsi(box, 1337)
        assert a.phi1 == b.phi1
        np.testing.assert_array_equal(a.psi1, b.psi1)
        c = sample_phipsi(box, 1338)
        assert a.phi1 != c.phi1

    def test_witness_structure(self):
        w = exists_witness(ConstraintBox(delta=0.1, epsilon=0.3, zeta=0.1, L=0.3, K=3))
        np.testing.assert_allclose(w.psi1, np.full(3, 1 / 3), atol=1e-15)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(w.psi2, [s, -s, 0.0], atol=1e-15)

    def test_empty_box_raises(self):
        with pytest.raises(NoMemberError):
            sample_phipsi(ConstraintBox(delta=0.4, epsilon=0.5, zeta=0.1, L=0.3, K=3), 0)


def scalar_sample(box, seed):
    """The reference: one candidate at a time, each coordinate drawn as a scalar,
    accepted when all seven membership slacks (written out here) are >= 0."""
    rng = np.random.default_rng(seed)
    K = box.K
    b1 = (1.0 - box.delta) / (1.0 + box.delta)
    while True:
        phi1 = rng.uniform(-b1, b1)
        phi2 = rng.uniform(box.epsilon, box.phi2_max) * (1.0 if rng.random() < 0.5 else -1.0)
        phi3 = rng.uniform(box.zeta, math.sqrt(2.0))
        psi1 = rng.dirichlet(np.ones(K))
        w = rng.standard_normal(K)
        w -= w.mean()
        psi2 = w / np.linalg.norm(w)
        r = 0.25 * (1.0 - phi1 * phi1) * phi2 * phi3 * phi3
        slacks = (
            0.5 * (1.0 - phi2) * (1.0 - abs(phi1)) - box.delta,
            1.0 - 0.5 * (1.0 - phi2) * (1.0 + abs(phi1)),
            abs(phi2) - box.epsilon,
            phi3 - box.zeta,
            min(psi1 - 0.5 * phi1 * phi3 * psi2 - 0.5 * phi3 * np.abs(psi2)),
            (1.0 - box.L) - abs(phi2),
            abs(r) - box.delta * box.epsilon * box.zeta**2 / 4.0,
        )
        if min(slacks) >= 0.0:
            return phi1, phi2, phi3, psi1, psi2


class TestBlockSampler:
    BOX = ConstraintBox(delta=0.05, epsilon=0.3, zeta=0.3, L=0.3, K=3)
    SIZE = 2000
    FAMILY_LEVEL = 0.01

    def test_law_matches_scalar_reference(self):
        """Six two-sample KS tests at 2000 members a side, each at level 0.01 / 6
        (Bonferroni), so the family's level is 0.01."""
        from scipy.stats import ks_2samp

        ref = [scalar_sample(self.BOX, [5150, i]) for i in range(self.SIZE)]
        ref = [np.array(c) for c in zip(*ref)]
        new = sample_members(self.BOX, self.SIZE, 5151)
        new = [new.phi1, new.phi2, new.phi3, new.psi1, new.psi2]
        level = self.FAMILY_LEVEL / 6
        for label, pick in {
            "phi1": lambda c: c[0],
            "phi2": lambda c: c[1],
            "phi3": lambda c: c[2],
            "psi1[0]": lambda c: c[3][:, 0],
            "psi2[0]": lambda c: c[4][:, 0],
            "min slack": lambda c: _membership_slacks(*c, self.BOX).min(axis=0),
        }.items():
            p = ks_2samp(pick(ref), pick(new)).pvalue
            assert p > level, f"{label}: KS p-value {p:.2e} <= {level:.2e}"

    def test_members_pass_membership_and_params_checks(self):
        sample = sample_members(self.BOX, 600, 3)
        assert sample.psi1.shape == (600, 3) and sample.candidates >= 600
        for i in range(600):
            assert validate_phipsi(sample.member(i), self.BOX).all_pass

    def test_prefix_across_blocks(self):
        small = sample_members(self.BOX, 5, 11)
        large = sample_members(self.BOX, 300, 11)  # about 2800 candidates, 11 blocks
        assert large.candidates > 2 * SAMPLER_BLOCK
        for name in ("phi1", "phi2", "phi3", "psi1", "psi2"):
            np.testing.assert_array_equal(getattr(small, name), getattr(large, name)[:5])
        assert small.candidates <= large.candidates

    def test_sample_phipsi_is_member_zero(self):
        a = sample_phipsi(self.BOX, [8, 1])
        b = sample_members(self.BOX, 4, [8, 1]).member(0)
        assert (a.phi1, a.phi2, a.phi3) == (b.phi1, b.phi2, b.phi3)
        np.testing.assert_array_equal(a.psi1, b.psi1)
        np.testing.assert_array_equal(a.psi2, b.psi2)

    def test_budget_is_per_member(self, monkeypatch):
        """A member that needs g candidates passes a budget of g and raises below it,
        also when g spans blocks."""
        box = ConstraintBox(delta=0.1, epsilon=0.2, zeta=0.1, L=0.3, K=20)
        needs = [sample_members(box, 1, [13, i]).candidates for i in range(4)]
        assert min(needs) < SAMPLER_BLOCK < max(needs)
        for i, g in enumerate(needs):
            monkeypatch.setattr(params, "_MAX_REJECTIONS", g)
            assert sample_members(box, 1, [13, i]).candidates == g
            monkeypatch.setattr(params, "_MAX_REJECTIONS", g - 1)
            with pytest.raises(SamplerExhaustedError):
                sample_members(box, 1, [13, i])

    def test_k20_never_returns_the_witness(self):
        box = ConstraintBox(delta=0.1, epsilon=0.2, zeta=0.1, L=0.3, K=20)
        witness = exists_witness(box)
        exhausted = 0
        for i in range(40):
            try:
                pp = sample_phipsi(box, [13, i])
            except SamplerExhaustedError:
                exhausted += 1
                continue
            assert not np.array_equal(pp.psi1, witness.psi1)
        assert exhausted > 0
        with pytest.raises(SamplerExhaustedError):
            sample_members(box, 40, 1)

    def test_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            sample_members(self.BOX, 0, 1)


class TestBoxBounds:
    @pytest.mark.parametrize("field", ["delta", "epsilon", "zeta", "L"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_bound_is_refused(self, field, value):
        bounds = dict(delta=0.1, epsilon=0.2, zeta=0.1, L=0.3, K=3)
        bounds[field] = value
        with pytest.raises(ValidationError, match="finite"):
            ConstraintBox(**bounds)


class TestStationary:
    def test_symmetric(self):
        np.testing.assert_allclose(stationary_dist(0.5, 0.5), [0.5, 0.5])
        np.testing.assert_allclose(stationary_dist(1.0, 1.0), [0.5, 0.5])

    def test_worked(self):
        np.testing.assert_allclose(stationary_dist(0.2, 0.3), [0.6, 0.4])

    def test_degenerate(self):
        with pytest.raises(DegenerateChainError):
            stationary_dist(0.0, 0.0)


class TestSerialization:
    def test_theta_json_round_trip(self):
        th = worked_theta()
        back = ThetaParams.from_json(th.to_json())
        assert back.p == th.p
        np.testing.assert_array_equal(back.f0, th.f0)

    def test_phipsi_json_round_trip(self):
        pp = theta_to_phipsi(worked_theta())
        back = PhiPsiParams.from_json(pp.to_json())
        assert back.phi1 == pp.phi1
        np.testing.assert_array_equal(back.psi2, pp.psi2)
        d = json.loads(pp.to_json())
        assert set(d) == {"phi", "psi1", "psi2", "degenerate"}
