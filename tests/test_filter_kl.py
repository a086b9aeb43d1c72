import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hmm_frontier import (
    NumericalDegeneracyError,
    PhiPsiParams,
    ThetaParams,
    ValidationError,
    empirical_triple_law,
    forward_filter,
    kl_estimate,
    kl_rho_bound,
    llr_paths,
    loglik_batch,
    m_of_phi,
    phipsi_to_theta,
    rho,
    sample_path,
    sample_paths,
    stationary_dist,
    switch_labels,
    theta_to_phipsi,
    v_recursion,
)
from hmm_frontier import filter_kl
from hmm_frontier.params import fallback_direction

from test_params import random_theta, worked_theta


def brute_force_loglik(theta, observed):
    n = len(observed)
    pi = stationary_dist(theta.p, theta.q)
    Q = np.array([[1 - theta.p, theta.p], [theta.q, 1 - theta.q]])
    f = np.vstack([theta.f0, theta.f1])
    total = 0.0
    for xs in itertools.product((0, 1), repeat=n):
        pr = pi[xs[0]] * f[xs[0], observed[0] - 1]
        for i in range(1, n):
            pr *= Q[xs[i - 1], xs[i]] * f[xs[i], observed[i] - 1]
        total += pr
    return np.log(total)


def loop_v_scan(pps, y, checkpoints=(), keep_v=False):
    """The reference V scan: one Python step at a time over the whole path, summing in order."""
    coef = filter_kl._coefficients(pps)
    loglik = np.zeros((len(pps), y.shape[0]))
    v = np.zeros(loglik.shape)
    trace = np.empty(loglik.shape + y.shape[1:]) if keep_v else None
    prefix = np.empty(loglik.shape + (len(checkpoints),))
    ci = 0
    for k in range(y.shape[1]):
        alpha, beta, gamma, delta = np.take(coef, y[:, k] - 1, axis=2)
        den = delta + gamma * v
        assert np.all(den > 0.0)
        loglik = loglik + np.log(den)
        v = (alpha * v + beta) / den
        if keep_v:
            trace[:, :, k] = v
        if ci < len(checkpoints) and checkpoints[ci] == k + 1:
            prefix[:, :, ci] = loglik
            ci += 1
    return loglik, prefix, trace


def full_compose(coef, ys, width):
    """Reference composition: the full 2 x 2 product of each block's step
    matrices, taken ``width`` steps at a time as the product of those steps'
    matrices and divided after each by its (1, 1) entry."""
    by_column = coef[[0, 2, 1, 3]]  # the steps' columns (alpha, gamma), (beta, delta)
    eye = np.zeros((2, 2, coef.shape[1], ys.shape[0] * ys.shape[1]))
    eye[0, 0] = eye[1, 1] = 1.0
    m = eye
    for t in range(0, ys.shape[2] if len(ys) else 0, width):
        tup = eye
        for k in range(t, min(t + width, ys.shape[2])):
            idx = np.subtract(ys[:, :, k], 1, order="C").ravel()
            step = np.take(by_column, idx, axis=2)
            tup = step[:2, None] * tup[0] + step[2:, None] * tup[1]
        m = tup[:, 0, None] * m[0] + tup[:, 1, None] * m[1]
        m /= m[1, 1].copy()
    return m


def positive_theta(rng, K=3):
    while True:
        th = random_theta(rng, K=K)
        if min(th.f0.min(), th.f1.min()) > 0.02 and th.p < 0.95 and th.q < 0.95:
            return th


class TestForwardFilter:
    def test_identical_emissions_iid(self):
        f = np.array([0.5, 0.3, 0.2])
        th = ThetaParams(p=0.3, q=0.6, f0=f, f1=f)
        y = sample_path(th, 100, 1).observed
        tr = forward_filter(th, y)
        assert tr.loglik == pytest.approx(float(np.log(f[y - 1]).sum()), abs=1e-10)

    def test_symmetric_chain_filter(self):
        th = ThetaParams(p=0.5, q=0.5, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5])
        tr = forward_filter(th, sample_path(th, 50, 2).observed)
        np.testing.assert_allclose(tr.predfilter, 0.5, atol=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            th = positive_theta(rng)
            y = sample_path(th, 10, int(rng.integers(1 << 31))).observed
            assert forward_filter(th, y).loglik == pytest.approx(
                brute_force_loglik(th, y), abs=1e-10
            )

    def test_impossible_observation(self):
        th = ThetaParams(p=0.3, q=0.4, f0=[1.0, 0.0], f1=[1.0, 0.0])
        tr = forward_filter(th, [1, 2, 1])
        assert tr.impossible
        assert tr.loglik == -np.inf


class TestVRecursion:
    def test_phi2_zero(self):
        th = ThetaParams(p=0.5, q=0.5, f0=[0.5, 0.3, 0.2], f1=[0.2, 0.3, 0.5])
        pp = theta_to_phipsi(th)
        y = sample_path(th, 100, 4).observed
        tr = v_recursion(pp, y)
        np.testing.assert_allclose(tr.v, 0.0, atol=1e-15)
        assert tr.loglik == pytest.approx(float(np.log(pp.psi1[y - 1]).sum()), abs=1e-9)

    def test_degenerate_point_is_iid(self):
        # f0 == f1: phi3 = 0, so V stays 0 and the filter is the stationary law
        f = np.array([0.5, 0.3, 0.2])
        th = ThetaParams(p=0.3, q=0.6, f0=f, f1=f)
        pp = theta_to_phipsi(th)
        assert pp.degenerate and pp.phi3 == 0.0
        y = sample_path(th, 200, 6).observed
        tr = v_recursion(pp, y)
        assert tr.loglik == pytest.approx(forward_filter(th, y).loglik, abs=1e-10)
        assert tr.loglik == pytest.approx(float(np.log(f[y - 1]).sum()), abs=1e-10)
        np.testing.assert_array_equal(tr.predfilter, np.full(y.size, 0.5 * (1.0 - pp.phi1)))

    def test_worked_first_step(self):
        pp = theta_to_phipsi(worked_theta())
        tr = v_recursion(pp, [1])
        assert tr.v[0] == pytest.approx(0.0803867, abs=1e-6)
        assert tr.v[0] == pytest.approx(2 * 0.0216 * (1 / np.sqrt(2)) / 0.38, abs=1e-12)

    def test_matches_forward_filter(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            th = positive_theta(rng)
            pp = theta_to_phipsi(th)
            y = sample_path(th, 300, int(rng.integers(1 << 31))).observed
            a = forward_filter(th, y)
            b = v_recursion(pp, y)
            assert abs(a.loglik - b.loglik) <= 1e-8
            assert np.abs(a.v - b.v).max() <= 1e-10
            # internal consistency of the two filter representations
            assert np.abs(b.v - pp.phi3 * (1 - 2 * b.predfilter - pp.phi1)).max() <= 1e-10

    def test_v_bound_small_phi2(self):
        psi1 = np.full(3, 1 / 3)
        pp = PhiPsiParams(
            phi1=0.2, phi2=0.04, phi3=0.4, psi1=psi1, psi2=fallback_direction(3)
        )
        th = phipsi_to_theta(pp)
        c = min(th.f0.min(), th.f1.min())
        m1 = m_of_phi(pp.phi).m1
        for seed in range(10):
            y = sample_path(th, 400, seed).observed
            tr = v_recursion(pp, y)
            assert np.abs(tr.v).max() <= 4 * abs(m1) / c

    def test_requires_positive_emissions(self):
        th = ThetaParams(p=0.3, q=0.4, f0=[0.6, 0.4, 0.0], f1=[0.2, 0.3, 0.5])
        with pytest.raises(ValidationError):
            v_recursion(theta_to_phipsi(th), [1, 2, 3])

    @pytest.mark.parametrize("symbol", [0, 4, -1])
    def test_symbols_outside_the_alphabet_are_refused(self, symbol):
        """Symbol 0 used to score as symbol K and K + 1 to raise IndexError."""
        th = worked_theta()
        pp = theta_to_phipsi(th)
        y = np.array([1, 2, symbol, 3, 1])
        with pytest.raises(ValidationError, match=r"out of range \{1..3\}"):
            loglik_batch(pp, y[None, :])
        with pytest.raises(ValidationError, match="out of range"):
            v_recursion(pp, y)
        with pytest.raises(ValidationError, match="out of range"):
            forward_filter(th, y)

    def test_hypotheses_must_share_k(self):
        a = theta_to_phipsi(worked_theta())
        b = theta_to_phipsi(ThetaParams(p=0.2, q=0.3, f0=[0.4, 0.3, 0.2, 0.1], f1=[0.25] * 4))
        with pytest.raises(ValidationError, match="different alphabet sizes"):
            loglik_batch([a, b], np.ones((2, 10), dtype=int))
        with pytest.raises(ValidationError, match="different alphabet sizes"):
            rho(a, b)

    def test_batch_matches_scalar(self):
        # v_recursion runs the same loop, so the forward filter is the reference
        th = worked_theta()
        pp = theta_to_phipsi(th)
        batch = sample_paths(th, 100, 8, 7)
        lb = loglik_batch(pp, batch.observed)
        for i in range(8):
            assert lb[i] == pytest.approx(
                forward_filter(th, batch.observed[i]).loglik, abs=1e-10
            )

    def test_batch_checkpoints(self):
        th = worked_theta()
        pp = theta_to_phipsi(th)
        batch = sample_paths(th, 50, 3, 11)
        full, prefix = loglik_batch(pp, batch.observed, checkpoints=[10, 50])
        for i in range(3):
            assert prefix[i, 0] == pytest.approx(
                forward_filter(th, batch.observed[i][:10]).loglik, abs=1e-10
            )
            assert prefix[i, 1] == pytest.approx(full[i], abs=1e-12)

    @pytest.mark.parametrize(
        "checkpoints", [[50, 10], [10, 10], [0, 10], [60], [10, 51], [], [2.9, 10], [True, 10]]
    )
    def test_bad_checkpoints_raise(self, checkpoints):
        # unsorted, repeated or out-of-range lengths used to leave np.empty garbage,
        # and int() truncated [2.9, 10] to the prefix at 2 and [True, 10] to the one at 1
        th = worked_theta()
        batch = sample_paths(th, 50, 3, 11)
        with pytest.raises(ValidationError):
            loglik_batch(theta_to_phipsi(th), batch.observed, checkpoints=checkpoints)

    def test_numpy_integer_checkpoints_are_sizes(self):
        batch = sample_paths(worked_theta(), 10, 2, 11)
        pp = theta_to_phipsi(worked_theta())
        got = loglik_batch(pp, batch.observed, np.array([3, 10]))
        want = loglik_batch(pp, batch.observed, [3, 10])
        np.testing.assert_array_equal(got[1], want[1])

    def test_no_paths_and_no_hypotheses_are_refused(self):
        # a zero-path matrix reached numpy's reduction of an empty array, and
        # an empty hypothesis list an IndexError
        a, _ = scan_pair()
        with pytest.raises(ValidationError, match="nonempty R x n matrix"):
            loglik_batch(a, np.empty((0, 10), np.uint8))
        with pytest.raises(ValidationError, match="no hypotheses"):
            loglik_batch([], np.ones((2, 10), np.uint8))

    def test_first_step_checkpoint(self):
        th = worked_theta()
        pp = theta_to_phipsi(th)
        batch = sample_paths(th, 20, 4, 12)
        full, prefix = loglik_batch(pp, batch.observed, checkpoints=[1, 20])
        np.testing.assert_array_equal(prefix[:, 0], np.log(pp.psi1[batch.observed[:, 0] - 1]))
        np.testing.assert_array_equal(prefix[:, 1], full)


class TestStackedScan:
    def pair(self):
        a = theta_to_phipsi(worked_theta())
        b = PhiPsiParams(
            phi1=a.phi1, phi2=a.phi2, phi3=a.phi3,
            psi1=[0.36, 0.31, 0.33], psi2=a.psi2,
        )
        return a, b, sample_paths(phipsi_to_theta(a), 60, 5, 13).observed

    def test_stack_equals_single_calls(self):
        a, b, y = self.pair()
        np.testing.assert_array_equal(
            loglik_batch([a, b], y), np.stack([loglik_batch(a, y), loglik_batch(b, y)])
        )
        full, prefix = loglik_batch([a, b], y, [7, 30, 60])
        singles = [loglik_batch(pp, y, [7, 30, 60]) for pp in (a, b)]
        assert full.shape == (2, 5) and prefix.shape == (2, 5, 3)
        np.testing.assert_array_equal(full, np.stack([s[0] for s in singles]))
        np.testing.assert_array_equal(prefix, np.stack([s[1] for s in singles]))

    def test_one_member_gains_leading_axis(self):
        a, _, y = self.pair()
        np.testing.assert_array_equal(loglik_batch([a], y), loglik_batch(a, y)[None])
        full, prefix = loglik_batch([a], y, [60])
        single = loglik_batch(a, y, [60])
        np.testing.assert_array_equal(full, single[0][None])
        np.testing.assert_array_equal(prefix, single[1][None])

    def test_zero_emission_member_raises_as_alone(self):
        a, _, y = self.pair()
        zero = theta_to_phipsi(ThetaParams(p=0.3, q=0.4, f0=[0.6, 0.4, 0.0], f1=[0.2, 0.3, 0.5]))
        with pytest.raises(ValidationError) as alone:
            loglik_batch(zero, y)
        with pytest.raises(ValidationError) as stacked:
            loglik_batch([a, zero], y)
        assert str(stacked.value) == str(alone.value)


@pytest.fixture
def blocks_of(monkeypatch):
    """The block tests' one seam: ``blocks_of(L)`` cuts every later
    ``loglik_batch`` scan into blocks of L steps (fewer for shorter paths)."""

    def force(length):
        monkeypatch.setattr(filter_kl, "_block_length", lambda h, rows, n: min(length, n))

    return force


def nan_for_symbol_3(monkeypatch, entry):
    """Make coefficient ``entry`` (alpha, beta, gamma, delta) of symbol 3 NaN in every later scan."""
    coefficients = filter_kl._coefficients

    def patched(pps):
        coef = coefficients(pps).copy()
        coef[entry, :, 2] = np.nan
        return coef

    monkeypatch.setattr(filter_kl, "_coefficients", patched)


def scan_pair():
    a = theta_to_phipsi(worked_theta())
    b = PhiPsiParams(
        phi1=a.phi1, phi2=a.phi2, phi3=a.phi3,
        psi1=[0.36, 0.31, 0.33], psi2=a.psi2,
    )
    return a, b


# H hypotheses, R paths and n steps, and the block length `_block_length` picks
BLOCK_LENGTHS = [
    (2, 2, 300_000, 256),  # long-path's kl-probe
    (2, 100, 100_000, 1024),  # probe's hard pair
    (2, 500, 10_000, 512),  # probe's psi1 contrast
    (1, 1, 100_000, 128),  # one path, one hypothesis
    (2, 2, 10**6, 512),
    (2, 2, 10**7, 2048),  # 8 L^2 >= n
    (2, 500, 100_000, 2048),  # the cache bound stops at 2048
    (2, 2, 2048, 2048),  # short paths: one block
    (2, 2, 2049, 32),  # 8 L^2 >= n
    (1, 1023, 100_000, 2048),
    (1, 1024, 100_000, 2048),  # wide stacks are blocked too
    (2, 512, 100_000, 2048),
    (2, 1000, 10_000, 1024),
    (2, 2000, 2000, 2000),
]


class TestBlockedScan:
    """The time-blocked scan against the step loop it replaces."""

    # B = 2048 steps is the longest one-block path; two hypotheses over
    # 512 paths fill 1024 columns a step, blocked like fewer
    @pytest.mark.parametrize("block", [None, 3])
    @pytest.mark.parametrize("rows", [1, 2, 511, 512], ids=["1", "2", "cut-1", "cut"])
    @pytest.mark.parametrize("n", [2047, 2048, 2049, 3 * 2048 + 5], ids=["B-1", "B", "B+1", "3B+5"])
    def test_matches_step_loop(self, block, rows, n, blocks_of):
        if block:  # tiny paths take many blocks
            blocks_of(block)
        length = filter_kl._block_length(2, rows, n)
        assert (length == n) == (block is None and n <= 2048)
        a, b = scan_pair()
        y = sample_paths(phipsi_to_theta(a), n, rows, [17, rows, n]).observed
        # block edges, and the last two steps: in the shorter last block if there is one
        checkpoints = sorted(cp for cp in {1, length, length + 1, 2048, n - 1, n} if cp <= n)
        got = loglik_batch([a, b], y, checkpoints)
        want = loop_v_scan([a, b], y, checkpoints)
        for g, w in zip(got, want[:2]):
            if length == n:  # one block: the step loop itself
                np.testing.assert_array_equal(g, w)
            else:
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "block, rows, n",
        [(2048, 1, 3 * 2048 + 5), (2048, 2, 2 * 2048), (2048, 7, 5 * 2048 + 17), (3, 4, 100)],
        ids=["3B+5", "2B", "5B+17-seven-rows", "tiny-blocks"],
    )
    def test_three_entries_are_the_full_product(self, block, rows, n):
        # the (1, 1) entry is exactly 1 after each division, so carrying the
        # other three is the same arithmetic, bit for bit, with each tuple's
        # map the product of its symbols' maps; a shorter last block stops
        # after its own steps
        a, b = scan_pair()
        y = sample_paths(phipsi_to_theta(a), n, rows, [29, rows, n]).observed
        coef = filter_kl._coefficients([a, b])
        entries = filter_kl._compose(coef, y, block)[0][1:]
        width = filter_kl._tuple_width(3)
        full, rem = divmod(n, block)
        ys = y[:, : full * block].reshape(rows, full, block).transpose(1, 0, 2)
        m = full_compose(coef, ys, width)
        if rem:
            m = np.concatenate((m, full_compose(coef, y[None, :, full * block :], width)), axis=3)
        assert np.array_equal(m[1, 1], np.ones(m.shape[2:]))
        for got, want in zip(entries, (m[0, 0], m[0, 1], m[1, 0])):
            assert np.array_equal(got, want.reshape(2, -(-n // block), rows))

    def test_blocks_match_forward_filter(self, blocks_of):
        blocks_of(3)  # every path is 100 blocks
        rng = np.random.default_rng(5)
        for _ in range(20):
            th = positive_theta(rng)
            y = sample_paths(th, 300, 3, int(rng.integers(1 << 31))).observed
            for row, got in zip(y, loglik_batch(theta_to_phipsi(th), y)):
                assert abs(forward_filter(th, row).loglik - got) <= 1e-8

    def test_v_recursion_is_one_block(self):
        # a trajectory is only kept by the step loop: long paths too, bit for bit
        a, _ = scan_pair()
        n = 2 * 2048 + 7
        assert filter_kl._block_length(1, 1, n) < n  # blocked without the trajectory
        y = sample_paths(phipsi_to_theta(a), n, 1, 37).observed
        tr = v_recursion(a, y[0])
        loglik, _, trace = loop_v_scan([a], y, keep_v=True)
        assert tr.loglik == loglik[0, 0]
        assert np.array_equal(tr.v, trace[0, 0])

    def test_blocked_prefix_row_is_prefix_estimate(self, blocks_of):
        # bit for bit: a checkpoint and the prefix alone cut the same blocks
        blocks_of(3)
        TestKL().test_prefix_row_is_prefix_estimate()

    def test_long_path_sum_is_no_less_accurate(self):
        # the blocks' sums of about B terms each are added left to right, so
        # the total carries less rounding than one running sum of n terms
        a, _ = scan_pair()
        y = sample_paths(phipsi_to_theta(a), 100_000, 1, 19).observed
        coef = filter_kl._coefficients([a])[:, 0]
        v, terms = 0.0, []
        for sym in y[0]:
            alpha, beta, gamma, delta = coef[:, sym - 1]
            den = delta + gamma * v
            terms.append(math.log(den))
            v = (alpha * v + beta) / den
        exact = math.fsum(terms)
        blocked = loglik_batch(a, y)[0]
        sequential = loop_v_scan([a], y)[0][0, 0]
        assert abs(blocked - exact) <= abs(sequential - exact)

    @pytest.mark.parametrize(
        "h, rows, n, length",
        BLOCK_LENGTHS,
        # each row keeps its name from when the rule also took keep_v (False in every row)
        ids=[f"{h}-{rows}-{n}-False-{length}" for h, rows, n, length in BLOCK_LENGTHS],
    )
    def test_block_length_rule(self, h, rows, n, length):
        assert filter_kl._block_length(h, rows, n) == length

    def test_every_length_is_accurate_on_a_sticky_chain(self, blocks_of):
        # the rule picks every power of two from 32 to 2048 for R <= 100 and
        # n <= 1e6 (it grows with each argument); each keeps the blocked sums
        # of a sticky chain within 1e-12 of the forward filter
        assert filter_kl._block_length(1, 1, 2049) == 32
        assert filter_kl._block_length(2, 100, 10**6) == 2048
        th = ThetaParams(p=0.01, q=0.01, f0=[0.98, 0.01, 0.01], f1=[0.01, 0.01, 0.98])
        y = sample_paths(th, 20_000, 3, 1).observed
        exact = np.array([forward_filter(th, row).loglik for row in y])
        for length in 2 ** np.arange(5, 12):
            blocks_of(int(length))
            np.testing.assert_allclose(loglik_batch(theta_to_phipsi(th), y), exact, rtol=1e-12)

    @pytest.mark.parametrize("block", [None, 3])
    def test_nan_density_raises_at_its_step(self, block, blocks_of, monkeypatch):
        # r = NaN makes V_1 NaN, so the density of step 2 is NaN; `den <= 0`
        # let it through and the log-likelihoods came back NaN
        if block:
            blocks_of(block)
        monkeypatch.setattr(filter_kl, "r_of_phi", lambda phi: np.nan)
        a, _ = scan_pair()
        y = sample_paths(phipsi_to_theta(a), 20, 3, 23).observed
        with pytest.raises(NumericalDegeneracyError, match="at step 2$") as err:
            loglik_batch(a, y)
        assert err.value.step == 2

    @pytest.mark.parametrize("block", [None, 3])
    def test_first_failing_step_across_blocks(self, block, blocks_of, monkeypatch):
        # symbol 3 has a NaN density and first appears at step 8 (with blocks
        # of 3 steps, step 2 of block 2); row 1's blocks 3 and 4 enter at a
        # NaN V and fail at their first step, which the scan reaches first
        if block:
            blocks_of(block)
        nan_for_symbol_3(monkeypatch, 3)
        y = np.ones((2, 14), dtype=np.int64)
        y[1, 7:] = 3
        with pytest.raises(NumericalDegeneracyError, match="at step 8$") as err:
            loglik_batch(list(scan_pair()), y)
        assert err.value.step == 8

    def test_v_recursion_raises_at_the_first_bad_step(self, monkeypatch):
        # a path too long for one block in loglik_batch; v_recursion's one
        # block meets symbol 3's NaN density first at step 3001
        nan_for_symbol_3(monkeypatch, 3)
        a, _ = scan_pair()
        y = sample_paths(phipsi_to_theta(a), 3 * 2048 + 5, 1, 41).observed[0]
        y = np.where(y == 3, 1, y)
        y[[3000, 5000]] = 3
        assert filter_kl._block_length(1, 1, y.size) < y.size
        with pytest.raises(NumericalDegeneracyError, match="at step 3001$") as err:
            v_recursion(a, y)
        assert err.value.step == 3001

    def test_nan_entering_a_block_raises_at_its_first_step(self, blocks_of, monkeypatch):
        # beta is NaN for symbol 3, seen only at step 3, the last of block 0:
        # every block's path from V = 0 has positive densities, but block 1
        # enters at a NaN V, so the recursion first fails at step 4
        blocks_of(3)
        nan_for_symbol_3(monkeypatch, 1)
        y = np.ones((2, 14), dtype=np.int64)
        y[1, 2] = 3
        with pytest.raises(NumericalDegeneracyError, match="at step 4$") as err:
            loglik_batch(list(scan_pair()), y)
        assert err.value.step == 4

    @staticmethod
    def spurious_failure(blocks_of, monkeypatch):
        """Blocks of 3 and a 9-step path whose block 1 fails from V = 0 but not from V_3."""
        # symbol 3 (only at step 4, the first of block 1) has delta < 0: the
        # block's path from V = 0 fails there, the true V_3 does not
        blocks_of(3)
        a, _ = scan_pair()
        y = np.ones((1, 9), dtype=np.int64)
        y[0, 3] = 3
        v3 = loop_v_scan([a], y[:, :3], keep_v=True)[2][0, 0, -1]
        coefficients = filter_kl._coefficients

        def shifted_symbol_3(pps):
            coef = coefficients(pps).copy()
            coef[:, :, 2] = [[0.0], [0.5 * v3], [1.0 / v3], [-0.5]]  # V_4 = V_3
            return coef

        monkeypatch.setattr(filter_kl, "_coefficients", shifted_symbol_3)
        return a, y

    def test_block_failing_alone_falls_back_to_the_step_loop(self, blocks_of, monkeypatch):
        # the path is scored by the step loop instead; the blocked pass's own
        # error, which the scan always catches, names no step
        a, y = self.spurious_failure(blocks_of, monkeypatch)
        with pytest.raises(NumericalDegeneracyError, match="in a blocked pass$") as err:
            filter_kl._compose(filter_kl._coefficients([a]), y, 3)
        assert err.value.step is None
        got = loglik_batch([a], y, [5, 9])
        want = loop_v_scan([a], y, [5, 9])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_failed_blocked_pass_is_rescanned_once(self, blocks_of, monkeypatch):
        # the spurious failure costs exactly one more pass: the whole path as one block
        a, y = self.spurious_failure(blocks_of, monkeypatch)
        compose, passes = filter_kl._compose, []

        def counting(coef, y, length, *args):
            passes.append((y.shape[1], length))
            return compose(coef, y, length, *args)

        monkeypatch.setattr(filter_kl, "_compose", counting)
        assert np.array_equal(loglik_batch([a], y), loop_v_scan([a], y)[0])
        assert passes == [(9, 3), (9, 9)]

    def test_checkpoint_inside_a_failing_tuple_falls_back(self, blocks_of, monkeypatch):
        # symbol 3's density is -0.5 from any V, so two in one tuple give a
        # positive product: only the checkpoint between them sees the first
        # failure, and the step loop raises there
        blocks_of(3)
        coefficients = filter_kl._coefficients

        def negative_symbol_3(pps):
            coef = coefficients(pps).copy()
            coef[:, :, 2] = [[1.0], [0.0], [0.0], [-0.5]]
            return coef

        monkeypatch.setattr(filter_kl, "_coefficients", negative_symbol_3)
        y = np.ones((1, 9), dtype=np.int64)
        y[0, 3:5] = 3
        with pytest.raises(NumericalDegeneracyError, match="at step 4$"):
            loglik_batch([scan_pair()[0]], y, [4, 9])

    def test_underflowing_tuple_fails_the_blocked_pass(self, monkeypatch):
        # symbol 1 has a density near 1e-80: each step's passes the floor, but
        # four in one tuple give a subnormal product below it, so the blocked
        # pass fails and the step loop, which floors nothing, scores the path
        s = 1.0 / np.sqrt(2.0)
        pp = PhiPsiParams(phi1=0.2, phi2=0.05, phi3=0.4, psi1=[1e-80, 0.5, 0.5], psi2=[0.0, s, -s])
        y = sample_paths(phipsi_to_theta(pp), 3000, 3, 43).observed.copy()
        y[1, 64:68] = 1  # in the first tuple of block 2
        assert filter_kl._block_length(1, 3, 3000) == 32 and filter_kl._tuple_width(3) == 6
        compose, passes = filter_kl._compose, []

        def counting(coef, y, length, *args):
            passes.append(length)
            return compose(coef, y, length, *args)

        monkeypatch.setattr(filter_kl, "_compose", counting)
        got = loglik_batch(pp, y, [65, 3000])
        want = loop_v_scan([pp], y, [65, 3000])
        assert passes == [32, 3000]
        for g, w in zip(got, want):
            assert np.array_equal(g, w[0])

    def test_subnormal_density_is_scored_at_its_log(self, blocks_of):
        # symbol 1 has psi2 = 0, so its density is psi1(1) from any V and it
        # tells nothing of the state: a path through it scores log psi1(1) plus
        # a part that psi1(1) does not change (0.5 - eps is 0.5 at both eps).
        # Every scan took a density below 1e-300 at log 1e-300, 23.03 too high.
        s = 1.0 / np.sqrt(2.0)
        tiny, small = (
            PhiPsiParams(0.2, 0.05, 0.4, psi1=[eps, 0.5, 0.5 - eps], psi2=[0.0, s, -s])
            for eps in (1e-310, 1e-200)
        )
        y = sample_paths(phipsi_to_theta(small), 300, 2, 53).observed.copy()
        y[:, 100] = 1
        want = math.log(1e-310) - math.log(1e-200)

        def scores(pp):
            th = phipsi_to_theta(pp)
            return np.array([
                loglik_batch(pp, y),
                [v_recursion(pp, row).loglik for row in y],
                [forward_filter(th, row).loglik for row in y],
            ])

        one_block = scores(tiny) - scores(small)
        blocks_of(3)  # the blocked pass fails at step 101, and one block scores the path
        blocked = loglik_batch(tiny, y) - loglik_batch(small, y)
        np.testing.assert_allclose(one_block, want, rtol=0, atol=1e-8)
        np.testing.assert_allclose(blocked, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 64])
    def test_checkpoints_inside_tuples(self, k, blocks_of):
        # every step a checkpoint, so every residue mod s is read, in blocks
        # of 4 s + 3 steps and in a shorter last block
        width = filter_kl._tuple_width(k)
        assert width == {2: 7, 3: 6, 4: 5, 8: 3, 16: 2, 64: 1}[k]
        rng = np.random.default_rng(k)
        f0, f1, f2, f3 = 0.5 / k + 0.5 * rng.dirichlet(np.ones(k), 4)
        pps = [
            theta_to_phipsi(ThetaParams(p=0.2, q=0.3, f0=f0, f1=f1)),
            theta_to_phipsi(ThetaParams(p=0.4, q=0.1, f0=f2, f1=f3)),
        ]
        blocks_of(4 * width + 3)
        n = 3 * (4 * width + 3) + 2 * width + 1
        y = sample_paths(phipsi_to_theta(pps[0]), n, 3, [47, k]).observed
        checkpoints = range(1, n + 1)
        got = loglik_batch(pps, y, checkpoints)
        want = loop_v_scan(pps, y, checkpoints)
        for g, w in zip(got, want[:2]):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


class TestKL:
    def test_self_zero(self):
        pp = theta_to_phipsi(worked_theta())
        est = kl_estimate(pp, pp, [50], 10, 1)[0]
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_label_switch_zero(self):
        pp = theta_to_phipsi(worked_theta())
        est = kl_estimate(pp, switch_labels(pp), [50], 10, 2)[0]
        assert est.mean == pytest.approx(0.0, abs=1e-12)

    def test_single_letter_closed_form(self):
        a = theta_to_phipsi(worked_theta())
        b = PhiPsiParams(
            phi1=a.phi1, phi2=a.phi2, phi3=a.phi3,
            psi1=[0.36, 0.31, 0.33], psi2=a.psi2,
        )
        est = kl_estimate(a, b, [1], 4000, 3)[0]
        closed = float(np.sum(a.psi1 * np.log(a.psi1 / b.psi1)))
        assert abs(est.mean - closed) <= 3 * est.stderr + 1e-12

    def test_nonnegative_up_to_noise(self):
        rng = np.random.default_rng(6)
        a = theta_to_phipsi(positive_theta(rng))
        b = theta_to_phipsi(positive_theta(rng))
        est = kl_estimate(a, b, [100], 200, 4)[0]
        assert est.mean >= -3 * est.stderr

    def test_prefix_row_is_prefix_estimate(self):
        # a prefix row is the estimate on the first n1 symbols of the same paths
        a = theta_to_phipsi(worked_theta())
        b = PhiPsiParams(
            phi1=a.phi1, phi2=a.phi2, phi3=a.phi3,
            psi1=[0.36, 0.31, 0.33], psi2=a.psi2,
        )
        grid = kl_estimate(a, b, [40, 100, 250], 30, 5)
        observed = sample_paths(phipsi_to_theta(a), 250, 30, 5).observed
        llr = loglik_batch(a, observed[:, :40]) - loglik_batch(b, observed[:, :40])
        assert grid[0].mean == float(llr.mean())
        assert grid[0].stderr == float(llr.std(ddof=1) / np.sqrt(30))

    def test_zero_emission_refused_before_sampling(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sample_paths(*args, **kwargs)

        monkeypatch.setattr(filter_kl, "sample_paths", counting)
        a = theta_to_phipsi(worked_theta())
        zero = theta_to_phipsi(ThetaParams(p=0.3, q=0.4, f0=[0.6, 0.4, 0.0], f1=[0.2, 0.3, 0.5]))
        with pytest.raises(ValidationError, match="V recursion"):
            kl_estimate(a, zero, [50], 10, 1)
        assert calls == []

    @pytest.mark.parametrize("n_grid", [[100, 50], [50, 50], []])
    def test_grid_must_increase(self, n_grid):
        pp = theta_to_phipsi(worked_theta())
        with pytest.raises(ValidationError):
            kl_estimate(pp, pp, n_grid, 10, 1)

    @pytest.mark.parametrize("replicas", [1, 0])
    def test_replicas_must_be_two_or_more(self, replicas):
        pp = theta_to_phipsi(worked_theta())
        with pytest.raises(ValidationError, match=f"^replicas must be >= 2: {replicas}$"):
            kl_estimate(pp, pp, [50], replicas, 1)

    def test_nonpositive_length_refused_before_sampling(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("sample_paths called")

        monkeypatch.setattr(filter_kl, "sample_paths", failing)
        a = theta_to_phipsi(worked_theta())
        with pytest.raises(ValidationError, match="n_grid must hold positive sizes: 0"):
            llr_paths(a, a, a, [0, 10], 4, 1)

    def test_rho_bound_arithmetic(self):
        pp = theta_to_phipsi(worked_theta())
        assert kl_rho_bound(pp, pp, 100) == 0.0
        assert kl_rho_bound(pp, switch_labels(pp), 1000) == 0.0
        a = pp
        b = PhiPsiParams(
            phi1=a.phi1, phi2=a.phi2, phi3=a.phi3,
            psi1=[0.39, 0.30, 0.31], psi2=a.psi2,
        )
        assert kl_rho_bound(a, b, 1000) == pytest.approx(0.2, rel=1e-6)
        assert kl_rho_bound(a, b, 1000) == pytest.approx(1000 * rho(a, b) ** 2)


class TestNarrowSymbols:
    """Symbols are read in the integer dtype they come in; nothing else passes."""

    def test_uint8_and_int64_agree(self):
        # 3000 steps over 4 rows: the blocked scan, with a shorter last block
        th = worked_theta()
        a, b = scan_pair()
        y8 = sample_paths(th, 3000, 4, 31).observed
        y64 = y8.astype(np.int64)
        assert y8.dtype == np.uint8
        # at K = 8, (y - 1) * K * K + ... passes 255: the triple index must not wrap
        wide8 = np.random.default_rng(0).integers(1, 9, 500, dtype=np.uint8)
        for narrow, K in ((y8.ravel(), 3), (wide8, 8)):
            got = empirical_triple_law(narrow, K).probs
            assert np.array_equal(got, empirical_triple_law(narrow.astype(np.int64), K).probs)
        tr8, tr64 = forward_filter(th, y8[0]), forward_filter(th, y64[0])
        assert tr8.loglik == tr64.loglik and np.array_equal(tr8.v, tr64.v)
        vr8, vr64 = v_recursion(a, y8[0]), v_recursion(a, y64[0])
        assert vr8.loglik == vr64.loglik and np.array_equal(vr8.v, vr64.v)
        for got, want in zip(
            loglik_batch([a, b], y8, [1, 2048, 2049, 3000]),
            loglik_batch([a, b], y64, [1, 2048, 2049, 3000]),
        ):
            assert np.array_equal(got, want)

    def test_integer_lists_still_read(self):
        a, _ = scan_pair()
        assert np.array_equal(loglik_batch(a, [[1, 2, 3]]), loglik_batch(a, np.array([[1, 2, 3]])))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.array([1, 2, 0, 3], dtype=np.uint8), "out of range"),
            # truncated, these would read as valid symbols
            (np.array([1.7, 2.2, 3.9, 1.0]), "dtype float64"),
            (np.array([True, True, True, True]), "dtype bool"),
        ],
        ids=["uint8-zero", "float", "bool"],
    )
    def test_refused_before_any_minus_one(self, bad, match):
        th = worked_theta()
        pp = theta_to_phipsi(th)
        calls = [
            lambda: empirical_triple_law(bad, 3),
            lambda: forward_filter(th, bad),
            lambda: v_recursion(pp, bad),
            lambda: loglik_batch(pp, bad[None]),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=match):
                call()

    def test_llr_paths_memory_is_two_bytes_per_symbol(self):
        # one byte per state and per symbol, plus draw blocks bounded by size
        R, n = 100, 100_000
        a, b = scan_pair()
        tracemalloc.start()
        try:
            llr_paths(a, b, a, [n], R, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * R * n + 12 * 2**20

    def test_llr_paths_keeps_no_states(self):
        # the scored paths hold one byte per symbol and no hidden states;
        # the draw blocks add about 0.6 bytes per symbol at this size
        R, n = 8, 10**6
        a, b = scan_pair()
        tracemalloc.start()
        try:
            llr_paths(a, b, a, [n], R, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * R * n
