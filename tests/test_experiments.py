import csv
import dataclasses
import io
import math
import sys

import numpy as np
import pytest

import hmm_frontier
from hmm_frontier import (
    ConstraintBox,
    DegenerateFitError,
    InfeasiblePairError,
    LossRecord,
    NoMemberError,
    SamplerExhaustedError,
    ValidationError,
    derive_seed,
    empirical_triple_law,
    losses,
    lower_bound_pair,
    min_distance_fit,
    phipsi_to_theta,
    r_of_phi,
    rate_sweep,
    sample_paths,
    sample_phipsi,
    slope_fit,
    threshold_probe,
)
from hmm_frontier import experiments, filter_kl
from hmm_frontier.params import SLACK_NAMES, _membership_slacks, box_member
from hmm_frontier.experiments import PAIR_KINDS, sweep_rows_to_csv, SWEEP_COLUMNS


def count_calls(monkeypatch, name):
    """Count calls of the package function ``name`` through every module binding it."""
    original = getattr(hmm_frontier, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        in_package = module_name.partition(".")[0] == "hmm_frontier"
        if in_package and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def probe_box():
    return ConstraintBox(delta=0.1, epsilon=0.2, zeta=0.1, L=0.3, K=3)


class TestLowerBoundPair:
    def test_phi1_phi3_oracle(self):
        pair = lower_bound_pair("phi1_phi3", 10**7, probe_box(), 0.01)
        assert pair.R == pytest.approx(0.07905694, abs=1e-8)
        d = 0.1
        S = (2 - 6 * d - pair.R) * pair.R / (6 * d - 9 * d * d)
        assert pair.S == pytest.approx(S, abs=1e-12)
        assert pair.S == pytest.approx(0.20476, abs=1e-4)
        np.testing.assert_allclose(
            pair.a.phi, [0.7, 0.2, 0.1 * math.sqrt(1 + S)], atol=1e-9
        )
        np.testing.assert_allclose(pair.b.phi, [0.62094306, 0.2, 0.1], atol=1e-8)
        assert r_of_phi(pair.a.phi) == pytest.approx(3.07215e-4, abs=1e-8)

    def test_r_equality(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            box = ConstraintBox(
                delta=rng.uniform(0.02, 1 / 6),
                epsilon=rng.uniform(0.05, 1 / 3),
                zeta=rng.uniform(0.02, 0.1),
                L=0.3,
                K=3,
            )
            n = int(10 ** rng.uniform(4, 8))
            c = rng.uniform(0.0, 0.005)
            for kind in ("phi1_phi3", "phi2"):
                try:
                    pair = lower_bound_pair(kind, n, box, c)
                except InfeasiblePairError:
                    continue
                assert abs(r_of_phi(pair.a.phi) - r_of_phi(pair.b.phi)) <= 1e-12

    def test_psi1_distance(self):
        pair = lower_bound_pair("psi1", 10**4, probe_box(), 0.01)
        assert np.linalg.norm(pair.b.psi1 - pair.a.psi1) == pytest.approx(1e-4, rel=1e-9)
        assert pair.rho_ab == pytest.approx(1e-4, rel=1e-9)

    def test_c_zero_identical(self):
        for kind in ("phi1_phi3", "phi2", "psi1", "psi2"):
            pair = lower_bound_pair(kind, 10**6, probe_box(), 0.0)
            assert pair.rho_ab == pytest.approx(0.0, abs=1e-15)

    def test_members_valid(self):
        box = probe_box()
        for kind in ("phi1_phi3", "phi2", "psi1", "psi2"):
            pair = lower_bound_pair(kind, 10**6, box, 0.001)
            wide = ConstraintBox(
                delta=1e-6, epsilon=1e-6, zeta=1e-6, L=1e-6, K=box.K
            )
            for member in (pair.a, pair.b):
                slacks = _membership_slacks(*member.phi, member.psi1, member.psi2, wide)
                assert slacks[SLACK_NAMES.index("emission_nonneg")] >= -1e-12

    def test_infeasibilities(self):
        with pytest.raises(InfeasiblePairError):
            lower_bound_pair("phi1_phi3", 100, probe_box(), 1.0)  # R > delta
        with pytest.raises(InfeasiblePairError):
            lower_bound_pair(
                "psi2", 10**6, ConstraintBox(0.1, 0.2, 0.1, 0.3, 2), 0.01
            )  # K <= 2
        with pytest.raises(InfeasiblePairError):
            lower_bound_pair(
                "phi2", 10**6, ConstraintBox(0.1, 0.2, 0.5, 0.3, 3), 0.01
            )  # compatibility violated
        with pytest.raises(InfeasiblePairError):
            lower_bound_pair(
                "phi1_phi3", 10**8, ConstraintBox(0.2, 0.2, 0.1, 0.3, 3), 0.001
            )  # delta > 1/6

    def test_members_in_box(self):
        # the draws of criterion 10: every pair returned lies in its box
        rng = np.random.default_rng(110)
        returned = 0
        for i in range(300):
            box = ConstraintBox(
                delta=rng.uniform(0.02, 1 / 6),
                epsilon=rng.uniform(0.05, 1 / 3),
                zeta=rng.uniform(0.02, 0.1),
                L=0.3,
                K=3,
            )
            n = int(10 ** rng.uniform(4, 8))
            c = rng.uniform(0.0, 0.005)
            try:
                pair = lower_bound_pair(PAIR_KINDS[i % 4], n, box, c)
            except InfeasiblePairError:
                continue
            returned += 1
            for member in (pair.a, pair.b):  # box_member raises outside the box
                box_member(*member.phi, member.psi1, member.psi2, box)
        assert returned > 100

    def test_member_outside_box_is_infeasible(self):
        # R = 0.005 / (0.1 * 0.3 * 0.05**2 * 1e3) = 0.067 <= epsilon, but b has
        # phi2 = epsilon + R > 1/3 at phi1 = 1 - 3 delta, so q < delta
        box = ConstraintBox(delta=0.1, epsilon=0.3, zeta=0.05, L=0.3, K=3)
        with pytest.raises(InfeasiblePairError, match="member b outside the box: min_transition"):
            lower_bound_pair("phi2", 10**6, box, 0.005)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_c_must_be_finite_and_nonnegative(self, c):
        with pytest.raises(ValidationError, match="c must be finite"):
            lower_bound_pair("phi1_phi3", 10**5, probe_box(), c)

    def test_empty_box_has_no_pair(self):
        # phi2_max = 1 - L = 0.1 < epsilon = 0.2
        box = ConstraintBox(delta=0.1, epsilon=0.2, zeta=0.1, L=0.9, K=3)
        with pytest.raises(NoMemberError):
            lower_bound_pair("psi1", 10**6, box, 0.01)

    def test_psi2_renormalized(self):
        pair = lower_bound_pair("psi2", 10**5, probe_box(), 0.01)
        assert np.linalg.norm(pair.b.psi2) == pytest.approx(1.0, abs=1e-12)
        assert pair.separation.psi2 > 0


class TestRateSweep:
    def box(self):
        return ConstraintBox(delta=0.1, epsilon=0.3, zeta=0.3, L=0.3, K=3)

    def test_single_row(self):
        rows = rate_sweep(self.box(), (1000,), 1, 5)
        assert len(rows) == 1
        assert rows[0]["n"] == 1000
        assert rows[0]["error"] == ""
        assert rows[0]["loss_phi2"] >= 0

    def test_determinism_modulo_wall_time(self):
        a = rate_sweep(self.box(), (500, 1000), 2, 7)
        b = rate_sweep(self.box(), (500, 1000), 2, 7)
        for ra, rb in zip(a, b):
            for k in SWEEP_COLUMNS:
                if k != "wall_ms":
                    assert ra.get(k) == rb.get(k)

    def test_csv_schema(self):
        text = sweep_rows_to_csv(rate_sweep(self.box(), (500,), 1, 1))
        header = text.splitlines()[0]
        assert header == ",".join(SWEEP_COLUMNS)
        assert len(text.splitlines()) == 2

    def test_resampled_truth_row_recomputes(self):
        box = self.box()
        rows = rate_sweep(box, (500,), 2, 3, resample_truths=True)
        row = rows[1]
        truth = sample_phipsi(box, derive_seed(3, 1, 1))
        path = sample_paths(phipsi_to_theta(truth), 500, 1, row["seed"])
        fit = min_distance_fit(empirical_triple_law(path.observed[0], box.K), box)
        rec = losses(fit.estimate, truth)
        assert row["error"] == ""
        assert row["objective"] == fit.objective
        for col in ("phi1", "phi2", "phi3", "psi1", "psi2", "pq", "f"):
            assert row[f"loss_{col}"] == getattr(rec, col)

    def test_resampled_truths_are_drawn_once_each(self, monkeypatch):
        # the fixed truth [seed, 0] is not drawn, and a replica's truth is
        # drawn once for the whole grid
        seeds = []

        def recording(box, seed):
            seeds.append(list(seed.entropy) + list(seed.spawn_key))
            return sample_phipsi(box, seed)

        monkeypatch.setattr(experiments, "sample_phipsi", recording)
        rows = rate_sweep(self.box(), (300, 600), 2, 3, resample_truths=True)
        assert [row["error"] for row in rows] == [""] * 4
        assert seeds == [[3, 1, 0], [3, 1, 1]]

    def test_failed_truth_fills_its_replica_rows(self, monkeypatch):
        # replica 1's draw exhausts the sampler: its rows carry the error,
        # and the other replicas' rows are fitted
        def exhausted_for_replica_1(box, seed):
            if list(seed.entropy) + list(seed.spawn_key) == [3, 1, 1]:
                raise SamplerExhaustedError("member 0 of 1 needs more than 10000 candidates")
            return sample_phipsi(box, seed)

        monkeypatch.setattr(experiments, "sample_phipsi", exhausted_for_replica_1)
        rows = rate_sweep(self.box(), (300, 600), 3, 3, resample_truths=True)
        assert [(row["n"], row["replica"]) for row in rows] == [
            (n, rep) for n in (300, 600) for rep in range(3)
        ]
        for row in rows:
            if row["replica"] == 1:
                assert row["error"] == (
                    "SamplerExhaustedError: member 0 of 1 needs more than 10000 candidates"
                )
                assert all(math.isnan(row[col]) for col in SWEEP_COLUMNS[8:16])
            else:
                assert row["error"] == ""
                assert row["loss_phi2"] >= 0.0

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValidationError, match="replicas must be >= 1"):
            rate_sweep(self.box(), (500,), 0, 1)

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            rate_sweep(self.box(), (1000, 500), 1, 1)

    @pytest.mark.parametrize("n_grid", [(-1, 1000), (0, 1000)])
    def test_grid_must_be_positive(self, monkeypatch, n_grid):
        sampled = count_calls(monkeypatch, "sample_paths")
        with pytest.raises(ValidationError, match=f"n_grid must hold positive sizes: {n_grid[0]}"):
            rate_sweep(self.box(), n_grid, 1, 1)
        assert sampled == []

    @pytest.mark.parametrize("bad", [100.7, True])
    def test_grid_must_hold_integers(self, monkeypatch, bad):
        # int() truncated them: [100.7] fitted n = 100 and wrote n 100
        sampled = count_calls(monkeypatch, "sample_paths")
        with pytest.raises(ValidationError, match=f"^n_grid must hold integer sizes: {bad}$"):
            rate_sweep(self.box(), [bad, 1000], 1, 0)
        assert sampled == []

    def test_fit_columns_are_the_loss_record_fields(self, monkeypatch):
        names = [f.name for f in dataclasses.fields(LossRecord)]
        fit_columns = [f"loss_{name}" for name in names] + ["objective"]
        assert [c for c in SWEEP_COLUMNS if c.startswith("loss_")] == fit_columns[:-1]
        at = SWEEP_COLUMNS.index("objective")
        assert list(SWEEP_COLUMNS[at - len(names) : at + 1]) == fit_columns

        fits = []

        def failing_at_second_n(phat, box):
            if fits:
                raise ValidationError("no feasible candidate found")
            fits.append(min_distance_fit(phat, box))
            return fits[0]

        monkeypatch.setattr(experiments, "min_distance_fit", failing_at_second_n)
        good, bad = rate_sweep(self.box(), (500, 1000), 1, 7)
        rec = losses(fits[0].estimate, sample_phipsi(self.box(), derive_seed(7, 0)))
        assert [good[c] for c in fit_columns] == [*dataclasses.astuple(rec), fits[0].objective]
        assert all(math.isnan(bad[c]) for c in fit_columns)

    def test_failed_row_fills_the_error_column(self, monkeypatch):
        calls = []

        def failing_at_second_n(phat, box):
            calls.append(phat)
            if len(calls) == 2:
                raise ValidationError("no feasible candidate found")
            return min_distance_fit(phat, box)

        monkeypatch.setattr(experiments, "min_distance_fit", failing_at_second_n)
        good, bad = rate_sweep(self.box(), (500, 1000), 1, 7)
        assert (good["n"], bad["n"]) == (500, 1000)
        assert good["error"] == ""
        assert all(math.isfinite(good[col]) for col in SWEEP_COLUMNS[8:16])
        assert bad["error"] == "ValidationError: no feasible candidate found"
        assert all(math.isnan(bad[col]) for col in SWEEP_COLUMNS[8:16])
        assert bad["wall_ms"] >= 0.0

        written = list(csv.DictReader(io.StringIO(sweep_rows_to_csv([good, bad]))))
        assert written[1]["error"] == bad["error"]
        assert all(written[1][col] == "nan" for col in SWEEP_COLUMNS[8:16])

        # the failed row is skipped: alone it leaves one usable size, and
        # beside a fitted row at its n it does not move that n's median
        with pytest.raises(DegenerateFitError, match="got 1"):
            slope_fit([good, bad], "loss_phi2")
        half = {"n": 1000, "loss_phi2": 0.5 * good["loss_phi2"]}
        slope, _, _ = slope_fit([good, bad, half], "loss_phi2")
        assert slope == pytest.approx(-1.0, abs=1e-12)


class TestSlopeFit:
    def test_exact_half_slope(self):
        rows = [
            {"n": 10**3, "loss": 1.0},
            {"n": 10**4, "loss": 10 ** -0.5},
            {"n": 10**5, "loss": 0.1},
        ]
        slope, intercept, r2 = slope_fit(rows, "loss")
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_medians(self):
        rows = [{"n": n, "loss": 2.0} for n in (100, 1000)]
        slope, _, _ = slope_fit(rows, "loss")
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_equal_medians_fit_exactly(self):
        # loss_phi2 of `rate-sweep --delta 0.1 --epsilon 0.3 --zeta 0.3 --L 0.3
        # --k 3 --n-grid 1000,10000,100000 --replicas 1 --seed 791101151`
        rows = [{"n": n, "loss": 0.003030307334243143} for n in (10**3, 10**4, 10**5)]
        slope, _, r2 = slope_fit(rows, "loss")
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_single_n_errors(self):
        with pytest.raises(DegenerateFitError):
            slope_fit([{"n": 100, "loss": 1.0}], "loss")

    def test_all_nonfinite_errors(self):
        rows = [{"n": n, "loss": math.nan} for n in (100, 1000)]
        with pytest.raises(DegenerateFitError):
            slope_fit(rows, "loss")

    def test_median_used(self):
        rows = [
            {"n": 100, "loss": v} for v in (1.0, 1.0, 1.0, 50.0)
        ] + [{"n": 1000, "loss": v} for v in (0.1, 0.1, 0.1, 99.0)]
        slope, _, _ = slope_fit(rows, "loss")
        assert slope == pytest.approx(-1.0, abs=1e-12)


class TestThresholdProbe:
    def test_identical_pair_chance_level(self):
        probe = threshold_probe("phi1_phi3", probe_box(), 1000, 0.0, 100, 21)
        assert 0.4 <= probe.test_error <= 0.6
        assert abs(probe.kl_mean) <= 3 * probe.kl_stderr + 1e-12

    def test_fractional_n_is_refused(self, monkeypatch):
        # int() truncated it: n = 300.7 built the pair at 300.7 and drew 300-symbol paths
        sampled = count_calls(monkeypatch, "sample_paths")
        with pytest.raises(ValidationError, match="^n_grid must hold integer sizes: 300.7$"):
            threshold_probe("psi1", probe_box(), 300.7, 1.0, 4, 1)
        assert sampled == []

    def test_distinguishable_pair(self):
        probe = threshold_probe("psi1", probe_box(), 10**4, 1.0, 100, 22)
        assert probe.rho_ab * math.sqrt(10**4) == pytest.approx(1.0, rel=1e-9)
        assert probe.test_error <= 0.3
        assert probe.kl_mean > 0.5

    def test_blocked_ties_are_exact(self, monkeypatch):
        # a == b: each blocked path is scored twice by the same arithmetic, so
        # every ratio is exactly 0.0 and the fair coin alone decides
        n, replicas, seed = 5000, 40, 24
        assert filter_kl._block_length(2, replicas, n) < n  # a blocked scan
        llr_paths, diffs = experiments.llr_paths, []

        def recorded(*args):
            diffs.append(llr_paths(*args))
            return diffs[-1]

        monkeypatch.setattr(experiments, "llr_paths", recorded)
        probe = threshold_probe("phi2", probe_box(), n, 0.0, replicas, seed)
        assert len(diffs) == 2 and all(np.all(d == 0.0) for d in diffs)
        coin = np.random.default_rng(derive_seed(seed, 3))
        under_a, under_b = coin.random(replicas), coin.random(replicas)
        errors = np.sum(under_a < 0.5) + np.sum(under_b >= 0.5)
        assert probe.test_error == errors / (2.0 * replicas)
        assert probe.kl_mean == 0.0 and probe.kl_stderr == 0.0

    def test_one_sample_per_hypothesis(self, monkeypatch):
        sampled = count_calls(monkeypatch, "sample_paths")
        scored = count_calls(monkeypatch, "loglik_batch")
        threshold_probe("psi1", probe_box(), 200, 1.0, 10, 23)
        assert len(sampled) == 2
        assert len(scored) == 2  # one pass scores both hypotheses
