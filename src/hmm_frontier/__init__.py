"""Two-state multinomial hidden Markov models near the i.i.d. boundary.

Parametrizations, the law of three consecutive observations, exact
filtering and likelihoods, minimum-distance estimation, and Monte-Carlo
rate experiments locating the learnability frontier.
"""

from .errors import (
    ConstraintViolationError,
    DegenerateChainError,
    DegenerateFitError,
    DegenerateProbeError,
    FrontierError,
    InfeasiblePairError,
    InsufficientDataError,
    NoMemberError,
    NonInvertibleMomentError,
    NumericalDegeneracyError,
    SamplerExhaustedError,
    ValidationError,
)
from .estimator import (
    FitResult,
    LossRecord,
    estimate_theta,
    losses,
    min_distance_fit,
    min_distance_fits,
    moment_init,
)
from .experiments import (
    HypothesisPair,
    ThresholdProbe,
    lower_bound_pair,
    rate_sweep,
    slope_fit,
    threshold_probe,
)
from .filter_kl import (
    FilterTrace,
    KLEstimate,
    forward_filter,
    kl_estimate,
    kl_rho_bound,
    llr_paths,
    loglik_batch,
    v_recursion,
)
from .params import (
    ConstraintBox,
    MemberSample,
    PhiPsiParams,
    ThetaParams,
    canonicalize,
    exists_witness,
    phipsi_to_theta,
    sample_members,
    sample_phipsi,
    stationary_dist,
    switch_labels,
    theta_to_phipsi,
    validate_phipsi,
)
from .simulate import PathSample, derive_seed, empirical_triple_law, sample_path, sample_paths
from .triple_law import (
    MomentVector,
    TripleLaw,
    equivalence_ratio_probe,
    m_of_phi,
    modulus_bounds,
    phi_of_m,
    r_of_phi,
    rho,
    triple_law_phipsi,
    triple_law_theta,
)

__version__ = "0.1.0"
