import numpy as np
import pytest

from hmm_frontier import (
    InsufficientDataError,
    ThetaParams,
    ValidationError,
    empirical_triple_law,
    sample_path,
    sample_paths,
    triple_law_theta,
)
from hmm_frontier.simulate import derive_seed

from test_params import worked_theta


class TestSamplePath:
    def test_empty(self):
        ps = sample_path(worked_theta(), 0, 1)
        assert len(ps) == 0

    def test_point_mass_emissions(self):
        th = ThetaParams(p=0.3, q=0.4, f0=[1.0, 0.0], f1=[1.0, 0.0])
        ps = sample_path(th, 200, 2)
        assert np.all(ps.observed == 1)

    def test_determinism(self):
        a = sample_path(worked_theta(), 500, 1234)
        b = sample_path(worked_theta(), 500, 1234)
        np.testing.assert_array_equal(a.hidden, b.hidden)
        np.testing.assert_array_equal(a.observed, b.observed)
        c = sample_path(worked_theta(), 500, 1235)
        assert not np.array_equal(a.observed, c.observed)

    def test_ranges(self):
        ps = sample_path(worked_theta(), 1000, 3)
        assert set(np.unique(ps.hidden)) <= {0, 1}
        assert ps.observed.min() >= 1 and ps.observed.max() <= 3

    def test_hidden_marginal(self):
        th = worked_theta()
        ps = sample_path(th, 10**5, 17)
        freq = ps.hidden.mean()
        target = th.p / (th.p + th.q)
        se = np.sqrt(target * (1 - target) / len(ps))
        # dependent samples: allow a generous factor over the i.i.d. error
        assert abs(freq - target) < 10 * se

    def test_batch_matches_single_shape(self):
        batch = sample_paths(worked_theta(), 50, 4, 9)
        assert batch.hidden.shape == (4, 50)
        assert len(batch) == 50
        again = sample_paths(worked_theta(), 50, 4, 9)
        np.testing.assert_array_equal(batch.observed, again.observed)
        assert not batch.hidden.flags.writeable
        assert not batch.observed.flags.writeable
        one = sample_path(worked_theta(), 50, 9)
        row = sample_paths(worked_theta(), 50, 1, 9)
        np.testing.assert_array_equal(one.hidden, row.hidden[0])
        np.testing.assert_array_equal(one.observed, row.observed[0])

    def test_csv_export(self):
        ps = sample_path(worked_theta(), 3, 5)
        lines = ps.to_csv().splitlines()
        assert lines[0] == "x,y"
        assert lines[1:] == [f"{x},{y}" for x, y in zip(ps.hidden, ps.observed)]
        with pytest.raises(ValidationError):
            sample_paths(worked_theta(), 3, 2, 5).to_csv()


class TestEmpiricalTripleLaw:
    def test_short_sequence(self):
        t = empirical_triple_law([1, 2, 3, 1], 3)
        assert t.probs[0, 1, 2] == pytest.approx(0.25)
        assert t.probs[1, 2, 0] == pytest.approx(0.25)
        assert t.total_mass == pytest.approx(0.5)

    def test_constant_sequence(self):
        t = empirical_triple_law([1] * 10, 3)
        assert t.probs[0, 0, 0] == pytest.approx(0.8)

    def test_mass_is_n_minus_2_over_n(self):
        y = sample_path(worked_theta(), 1000, 6).observed
        t = empirical_triple_law(y, 3)
        assert t.total_mass == pytest.approx(998 / 1000, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            empirical_triple_law([1, 2], 3)

    def test_concentrates_on_truth(self):
        th = worked_theta()
        exact = triple_law_theta(th)
        t = empirical_triple_law(sample_path(th, 10**5, 8).observed, 3)
        assert t.distance(exact) < 0.01


class TestDerivedSeeds:
    def test_stable_streams(self):
        a = np.random.default_rng(derive_seed(42, 0)).random(4)
        b = np.random.default_rng(derive_seed(42, 0)).random(4)
        c = np.random.default_rng(derive_seed(42, 1)).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
