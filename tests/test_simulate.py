import tracemalloc

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
from hmm_frontier import simulate
from hmm_frontier.params import stationary_dist
from hmm_frontier.simulate import derive_seed

from test_params import worked_theta


def loop_sample_paths(theta, n, count, seed):
    """Reference sampler: one uniform per path and time step, drawn step by step.

    The stream order (initial states, then transitions time-major, then
    emissions path-major) is the seed contract ``sample_paths`` must keep.
    """
    rng = np.random.default_rng(seed)
    hidden = np.empty((count, n), dtype=np.int64)
    observed = np.empty((count, n), dtype=np.int64)
    if n == 0 or count == 0:
        return hidden, observed
    state = (rng.random(count) < stationary_dist(theta.p, theta.q)[1]).astype(np.int64)
    hidden[:, 0] = state
    for k in range(1, n):
        u = rng.random(count)
        state = np.where(state == 1, (u >= theta.q), (u < theta.p)).astype(np.int64)
        hidden[:, k] = state
    cdf = np.vstack([np.cumsum(theta.f0), np.cumsum(theta.f1)])
    cdf[:, -1] = 1.0
    u = rng.random((count, n))
    for x in (0, 1):
        mask = hidden == x
        observed[mask] = np.searchsorted(cdf[x], u[mask], side="right") + 1
    return hidden, observed


def fstring_to_csv(ps):
    """Reference writer: one f-string row per step, the bytes ``PathSample.to_csv`` must keep."""
    rows = zip(ps.hidden.tolist(), ps.observed.tolist())
    return "x,y\n" + "".join(f"{x},{y}\n" for x, y in rows)


def uniform_theta(K):
    return ThetaParams(p=0.3, q=0.4, f0=np.full(K, 1 / K), f1=np.full(K, 1 / K))


ORACLE_THETAS = {
    "p<q,K=3": ThetaParams(p=0.2, q=0.3, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5]),
    "p>q,K=2": ThetaParams(p=0.7, q=0.1, f0=[0.6, 0.4], f1=[0.1, 0.9]),
    "p=q,K=4,zero": ThetaParams(p=0.4, q=0.4, f0=[0.25, 0.0, 0.5, 0.25], f1=[0.1, 0.0, 0.5, 0.4]),
    "p=q=1": ThetaParams(p=1.0, q=1.0, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5]),
    # the reset interval [min(p, q), max(p, q)) ends at 1, setting 1 and 0
    "p=1,q<1": ThetaParams(p=1.0, q=0.35, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5]),
    "p<1,q=1": ThetaParams(p=0.25, q=1.0, f0=[0.6, 0.4], f1=[0.1, 0.9]),
}
ORACLE_SEEDS = {"int": 20211, "SeedSequence": np.random.SeedSequence([5, 17, 3])}


def assert_matches_loop(theta, shapes, seed):
    for n, count in shapes:
        h, y = loop_sample_paths(theta, n, count, seed)
        got = sample_paths(theta, n, count, seed)
        assert np.array_equal(got.hidden, h), (n, count)
        assert np.array_equal(got.observed, y), (n, count)
        scored = sample_paths(theta, n, count, seed, hidden=False)
        assert scored.hidden is None
        assert scored.observed.dtype == got.observed.dtype
        assert np.array_equal(scored.observed, y), (n, count)


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

    def test_storage_dtypes(self):
        ps = sample_paths(worked_theta(), 20, 3, 1)
        assert ps.hidden.dtype == np.uint8 and ps.observed.dtype == np.uint8
        uniform = np.full(256, 1 / 256)
        wide = ThetaParams(p=0.3, q=0.4, f0=uniform, f1=uniform)
        ps = sample_paths(wide, 2000, 2, 1)
        assert ps.hidden.dtype == np.uint8 and ps.observed.dtype == np.uint16
        assert ps.observed.max() == 256
        assert_matches_loop(wide, [(50, 3)], 1)

    def test_csv_export(self):
        ps = sample_path(worked_theta(), 3, 5)
        lines = ps.to_csv().splitlines()
        assert lines[0] == "x,y"
        assert lines[1:] == [f"{x},{y}" for x, y in zip(ps.hidden, ps.observed)]
        with pytest.raises(ValidationError):
            sample_paths(worked_theta(), 3, 2, 5).to_csv()

    @pytest.mark.parametrize("n", [0, 1, 5, 300_000])
    @pytest.mark.parametrize("K", [3, 12, 256])
    def test_csv_bytes_equal_the_fstring_writer(self, K, n):
        ps = sample_path(uniform_theta(K), n, [K, n])
        assert ps.observed.dtype == (np.uint16 if K == 256 else np.uint8)
        assert ps.to_csv() == fstring_to_csv(ps)

    def test_csv_of_other_integer_dtypes(self):
        ps = sample_path(uniform_theta(12), 50, 3)
        wide = simulate.PathSample(
            hidden=ps.hidden.astype(np.int64), observed=ps.observed.astype(np.int32)
        )
        assert wide.to_csv() == ps.to_csv() == fstring_to_csv(ps)

    def test_sample_without_states(self):
        ps = sample_paths(worked_theta(), 40, 3, 8, hidden=False)
        assert ps.hidden is None and len(ps) == 40
        assert not ps.observed.flags.writeable
        row = simulate.PathSample(hidden=None, observed=ps.observed[1])
        assert len(row) == 40 and not row.observed.flags.writeable
        with pytest.raises(ValidationError, match="no hidden states"):
            row.to_csv()
        with pytest.raises(ValidationError, match="equal shapes"):
            simulate.PathSample(hidden=None, observed=np.ones((2, 2, 2), int))
        with pytest.raises(ValidationError, match="integer arrays"):
            simulate.PathSample(hidden=None, observed=np.ones(4))

    @pytest.mark.parametrize(
        "hidden, observed",
        [([0, 2], [1, 1]), ([0, -1], [1, 1]), ([0, 1], [1, -3]), ([0, 1], [1, 2**16])],
        ids=["state-2", "negative-state", "negative-symbol", "symbol-2**16"],
    )
    def test_csv_refuses_what_its_table_does_not_hold(self, hidden, observed):
        ps = simulate.PathSample(hidden=np.array(hidden), observed=np.array(observed))
        with pytest.raises(ValidationError, match="to_csv writes states"):
            ps.to_csv()


class TestBitIdentity:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS.values(), ids=ORACLE_SEEDS.keys())
    @pytest.mark.parametrize("theta", ORACLE_THETAS.values(), ids=ORACLE_THETAS.keys())
    def test_same_bytes_as_step_loop(self, monkeypatch, theta, seed):
        # a small draw budget keeps the reference loop cheap; n hits every block edge
        B = 1024
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", B)
        shapes = []
        for count in (0, 1, 7):
            s = max(1, B // max(count, 1))  # steps per transition draw
            shapes += [(n, count) for n in (0, 1, 2, s, s + 1, 3 * s + 5)]
        # paths longer than the budget: each row's emissions in column chunks
        shapes.append((2 * B + 3, 3))
        assert_matches_loop(theta, shapes, seed)

    def test_same_bytes_at_the_default_budget(self):
        # 100 paths at the real budget: three transition draws of 2621, 2621 and
        # 2 steps, and emission draws that end inside rows 49 and 99
        count = 100
        steps = simulate._DRAW_BLOCK // count
        n = 2 * steps + 3
        assert count * n > 2 * simulate._DRAW_BLOCK
        assert_matches_loop(ORACLE_THETAS["p>q,K=2"], [(n, count)], ORACLE_SEEDS["int"])

    @pytest.mark.parametrize("seed", ORACLE_SEEDS.values(), ids=ORACLE_SEEDS.keys())
    def test_uint16_symbols_match_the_step_loop(self, monkeypatch, seed):
        B = 1024
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", B)
        f0 = np.linspace(1.0, 2.0, 300)
        wide = ThetaParams(p=0.2, q=0.3, f0=f0 / f0.sum(), f1=f0[::-1] / f0.sum())
        assert sample_paths(wide, 1, 1, seed).observed.dtype == np.uint16
        assert_matches_loop(wide, [(0, 3), (50, 7), (2 * B + 3, 3)], seed)

    def test_alternation_and_absent_symbol(self):
        alt = sample_paths(ORACLE_THETAS["p=q=1"], 100, 3, 4).hidden
        assert np.all(alt[:, 1:] != alt[:, :-1])
        assert 2 not in sample_paths(ORACLE_THETAS["p=q,K=4,zero"], 1000, 7, 4).observed

    @pytest.mark.parametrize("seed", ORACLE_SEEDS.values(), ids=ORACLE_SEEDS.keys())
    def test_block_sizes_are_not_in_the_contract(self, monkeypatch, seed):
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", 3)
        shapes = [(n, count) for n in (1, 2, 3, 4, 11, 50) for count in (1, 7)]
        for theta in ORACLE_THETAS.values():
            assert_matches_loop(theta, shapes, seed)


class TestTieRules:
    @pytest.mark.parametrize("p, q", [(0.25, 0.5), (0.5, 0.25), (0.5, 0.5), (1.0, 0.25), (0.25, 1.0)])
    def test_a_transition_uniform_on_p_or_q(self, p, q):
        # steps whose uniforms lie on p and q or just below them, from both states
        ties = np.array([0.0, p, q, np.nextafter(p, 0.0), np.nextafter(q, 0.0), np.nextafter(1.0, 0.0)])
        u = np.random.default_rng(3).choice(ties[ties < 1.0], size=(40, 6))
        start = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)
        codes = 2 * np.arange(1, 41, dtype=np.int32)[:, None] + (q < p)
        got = simulate._scan_block(u, start, min(p, q), max(p, q), codes)
        # the step loop's rule: 0 moves to 1 when u < p, 1 stays when u >= q
        x, want = start, []
        for row in u:
            x = np.where(x == 1, row >= q, row < p)
            want.append(x)
        assert np.array_equal(got, want)

    def test_a_uniform_on_a_cdf_entry_reaches_it(self):
        # dyadic masses, so each cdf entry is exact; symbol 2 has no mass in state 0,
        # symbol 3 none in state 1
        f0, f1 = [0.25, 0.0, 0.5, 0.25], [0.125, 0.375, 0.0, 0.5]
        cdf = np.vstack([np.cumsum(f0), np.cumsum(f1)])
        assert cdf.tolist() == [[0.25, 0.25, 0.75, 1.0], [0.125, 0.5, 0.5, 1.0]]
        entries = np.array([0.125, 0.25, 0.5, 0.75])
        u = np.concatenate([[0.0], entries, np.nextafter(entries, 0.0), [np.nextafter(1.0, 0.0)]])
        u = np.tile(u, 2)
        state = np.repeat([False, True], u.size // 2)
        out = np.zeros(u.size, dtype=np.uint8)
        simulate._emit(u, state, cdf[:, :-1], out)
        # the step loop's rule: 1 plus the number of cdf entries u reaches
        want = [np.searchsorted(cdf[int(x)], v, side="right") + 1 for v, x in zip(u, state)]
        assert out.tolist() == want
        # 0, the four entries, the value just below each, and the largest u < 1
        assert out[~state].tolist() == [1, 1, 3, 3, 4, 1, 1, 3, 3, 4]
        assert out[state].tolist() == [1, 2, 2, 4, 4, 1, 2, 2, 4, 4]


def test_long_emission_draw_is_bounded_by_the_budget():
    # a path longer than the budget is drawn in column chunks of it: the peak
    # is the paths (2 bytes per step with the states, 1 without) plus a fixed
    # multiple of the budget
    n = 2_000_000
    assert n > simulate._DRAW_BLOCK
    for hidden, path_bytes in ((True, 2), (False, 1)):
        tracemalloc.start()
        try:
            ps = sample_paths(worked_theta(), n, 1, 1, hidden=hidden)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps.observed.shape == (1, n)
        assert peak <= path_bytes * n + 32 * simulate._DRAW_BLOCK, hidden


class TestExactLaw:
    def test_transition_and_marginal_frequencies(self):
        th = worked_theta()
        h = sample_paths(th, 20000, 50, 314).hidden
        prev, nxt = h[:, :-1].ravel(), h[:, 1:].ravel()
        from0, from1 = prev == 0, prev == 1
        # given the from-state counts, transitions are independent Bernoulli draws
        for rate, frm, to in ((th.p, from0, 1), (th.q, from1, 0)):
            m = frm.sum()
            se = np.sqrt(rate * (1 - rate) / m)
            assert abs(np.mean(nxt[frm] == to) - rate) < 4 * se
        # the path mean's variance is pi0 pi1 (1 + lam) / (1 - lam) / n, lam = 1 - p - q
        pi1 = th.p / (th.p + th.q)
        lam = 1 - th.p - th.q
        se = np.sqrt(pi1 * (1 - pi1) * (1 + lam) / (1 - lam) / h.size)
        assert abs(h.mean() - pi1) < 4 * se


class TestEmpiricalTripleLaw:
    def test_short_sequence(self):
        t = empirical_triple_law([1, 2, 3, 1], 3)
        assert t.probs[0, 1, 2] == pytest.approx(0.25)
        assert t.probs[1, 2, 0] == pytest.approx(0.25)
        assert t.probs.sum() == pytest.approx(0.5)

    def test_constant_sequence(self):
        t = empirical_triple_law([1] * 10, 3)
        assert t.probs[0, 0, 0] == pytest.approx(0.8)

    def test_mass_is_n_minus_2_over_n(self):
        y = sample_path(worked_theta(), 1000, 6).observed
        t = empirical_triple_law(y, 3)
        assert t.probs.sum() == pytest.approx(998 / 1000, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            empirical_triple_law([1, 2], 3)

    @pytest.mark.parametrize("K, dtype", [(3, np.uint8), (300, np.uint16), (3, np.uint64)])
    def test_counts_equal_the_widened_sum(self, K, dtype):
        y = np.random.default_rng(K).integers(1, K + 1, size=20_000).astype(dtype)
        w = y.astype(np.int64)
        idx = (w[:-2] - 1) * K * K + (w[1:-1] - 1) * K + (w[2:] - 1)
        counts = np.bincount(idx, minlength=K**3).reshape(K, K, K)
        t = empirical_triple_law(y, K)
        assert np.array_equal(t.probs, counts / y.size)

    def test_count_memory_is_one_int64_per_symbol(self):
        # the triple index is built in place in one int64 buffer
        n = 300_000
        y = sample_path(worked_theta(), n, 9).observed
        assert y.dtype == np.uint8
        tracemalloc.start()
        try:
            empirical_triple_law(y, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n

    def test_concentrates_on_truth(self):
        th = worked_theta()
        exact = triple_law_theta(th)
        t = empirical_triple_law(sample_path(th, 10**5, 8).observed, 3)
        assert np.linalg.norm(t.probs - exact.probs) < 0.01


class TestDerivedSeeds:
    def test_stable_streams(self):
        a = np.random.default_rng(derive_seed(42, 0)).random(4)
        b = np.random.default_rng(derive_seed(42, 0)).random(4)
        c = np.random.default_rng(derive_seed(42, 1)).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
