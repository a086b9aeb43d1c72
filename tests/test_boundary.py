"""Boundary battery: boxes with tight edges end in a result or a named error.

Each box pushes one edge of the parameter class: |phi2| at its largest
value (epsilon next to ``phi2_max``), phi3 at the compatibility bound, a
tiny delta, everything small at once (r -> 0), a thin K=4 box and a
spectral gap L near 1 - epsilon.  In each, every layer of the pipeline
must return finite values with its flags, or raise a ``FrontierError``
subclass; any other exception, or a NaN, fails the test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hmm_frontier import (
    ConstraintBox,
    FrontierError,
    empirical_triple_law,
    lower_bound_pair,
    min_distance_fit,
    phipsi_to_theta,
    sample_path,
    sample_phipsi,
    threshold_probe,
    triple_law_phipsi,
)
from hmm_frontier.experiments import PAIR_KINDS
from hmm_frontier.params import _membership_slacks
from hmm_frontier.triple_law import equivalence_ratio_probe

# phi2_max = min(1 - 2 delta, 1 - L) = 0.7 in the first box; sqrt(2) / 12 is
# the K=3 compatibility bound sqrt(2 floor(K/2)) / (4K)
BOXES = {
    "epsilon-at-phi2-max": ConstraintBox(0.1, 0.7 - 1e-9, 0.1, 0.3, 3),
    "zeta-at-compatibility": ConstraintBox(0.1, 0.2, math.sqrt(2) / 12, 0.3, 3),
    "tiny-delta": ConstraintBox(1e-4, 0.2, 0.1, 0.3, 3),
    "all-small": ConstraintBox(1e-3, 1e-3, 1e-3, 0.3, 3),
    "thin-k4": ConstraintBox(0.02, 0.05, 0.05, 0.3, 4),
    "large-gap": ConstraintBox(0.1, 0.2, 0.1, 0.79, 3),
}


def outcome(call, *args, **kwargs):
    """The call's result, or the FrontierError it raised."""
    try:
        return call(*args, **kwargs)
    except FrontierError as exc:
        return exc


def finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def member_ok(pp, box) -> bool:
    return finite(pp.phi, pp.psi1, pp.psi2) and bool(
        (_membership_slacks(*pp.phi, pp.psi1, pp.psi2, box) >= -1e-12).all()
    )


@pytest.mark.parametrize("name", list(BOXES))
def test_edge_box_ends_in_result_or_named_error(name):
    box = BOXES[name]
    truth = sample_phipsi(box, [904, 0])  # no box here is empty
    assert member_ok(truth, box)

    path = sample_path(phipsi_to_theta(truth), 2000, [904, 1])
    for target in (empirical_triple_law(path.observed, box.K), triple_law_phipsi(truth)):
        fit = outcome(min_distance_fit, target, box, random_starts=1)
        if not isinstance(fit, FrontierError):
            assert finite(fit.objective, fit.grid_floor) and fit.objective >= 0.0
            assert isinstance(fit.converged, bool) and isinstance(fit.init_fallback, bool)
            assert member_ok(fit.estimate, box)

    for kind in PAIR_KINDS:
        pair = outcome(lower_bound_pair, kind, 500, box, 0.1)
        if not isinstance(pair, FrontierError):
            assert finite(pair.R, pair.S, pair.rho)
            assert member_ok(pair.a, box) and member_ok(pair.b, box)
        probe = outcome(threshold_probe, kind, box, 500, 0.1, 4, 905)
        if not isinstance(probe, FrontierError):
            assert finite(probe.rho, probe.kl_mean, probe.kl_stderr)
            assert 0.0 <= probe.test_error <= 1.0

    summary = outcome(equivalence_ratio_probe, box, 20, 906)
    if not isinstance(summary, FrontierError):
        assert finite(summary.min_ratio, summary.max_ratio)
        assert 0.0 < summary.min_ratio <= summary.max_ratio
        assert summary.pairs_used + summary.pairs_skipped == 20
