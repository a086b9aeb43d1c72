"""Every public name has one owner: the module whose ``__all__`` lists it.

A class or function listed in a module's ``__all__`` must be defined in that
module, so that a name imported from elsewhere is not exported twice.  Every
library module has an ``__all__``, and the package exports each of them.
"""

import importlib
import inspect
import pkgutil

import pytest

import hmm_frontier

MODULES = [
    importlib.import_module(f"hmm_frontier.{info.name}")
    for info in pkgutil.iter_modules(hmm_frontier.__path__)
]
LIBRARY = [m for m in MODULES if m.__name__ != "hmm_frontier.cli"]

# what the package exported before its names came from the modules' __all__
EXPORTED = """
    ConstraintBox DegenerateChainError DegenerateFitError DegenerateProbeError FilterTrace
    FitResult FrontierError HypothesisPair InfeasiblePairError InsufficientDataError
    KLEstimate LossRecord MemberSample MomentVector NoMemberError NonInvertibleMomentError
    NumericalDegeneracyError PathSample PhiPsiParams SamplerExhaustedError ThetaParams
    ThresholdProbe TripleLaw ValidationError canonicalize derive_seed empirical_triple_law
    equivalence_ratio_probe estimate_theta exists_witness forward_filter kl_estimate
    kl_rho_bound llr_paths loglik_batch losses lower_bound_pair m_of_phi min_distance_fit
    min_distance_fits modulus_bounds moment_init phi_of_m phipsi_to_theta r_of_phi rate_sweep
    rho sample_members sample_path sample_paths sample_phipsi slope_fit stationary_dist
    switch_labels theta_to_phipsi threshold_probe triple_law_phipsi triple_law_theta
    v_recursion
""".split()


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_lists_only_names_the_module_defines(module):
    values = {name: getattr(module, name) for name in module.__all__}
    borrowed = [
        name
        for name, value in values.items()
        if (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ != module.__name__
    ]
    assert borrowed == []


def test_every_library_module_has_all():
    assert len(LIBRARY) == 7
    assert [m.__name__ for m in LIBRARY if not hasattr(m, "__all__")] == []


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_package_exports_the_module_names(module):
    missing = [n for n in module.__all__ if getattr(hmm_frontier, n, None) is not getattr(module, n)]
    assert missing == []


def test_no_exported_name_is_lost():
    assert len(EXPORTED) == 59
    assert [name for name in EXPORTED if not hasattr(hmm_frontier, name)] == []
