"""Semantic exception hierarchy for the package.

Every failure mode that callers may want to branch on gets its own class;
plain ``ValueError`` is reserved for programming errors.
"""

from __future__ import annotations


class FrontierError(Exception):
    """Base class for all package errors."""


class ValidationError(FrontierError):
    """Input violates a type invariant (bad density, bad range, NaN, ...)."""


class ConstraintViolationError(FrontierError):
    """A derived quantity left its feasible region.

    Carries the offending coordinate index when one exists.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateChainError(FrontierError):
    """Transition probabilities admit no stationary distribution (p + q = 0)."""


class NoMemberError(FrontierError):
    """The requested constraint box contains no valid parameter."""


class SamplerExhaustedError(FrontierError):
    """Rejection sampling drew its whole per-member budget without a box member."""


class InsufficientDataError(FrontierError):
    """Too few observations for the requested statistic."""


class NonInvertibleMomentError(FrontierError):
    """Moment vector lies in the non-identifiable region (m1 = 0)."""


class NumericalDegeneracyError(FrontierError):
    """A filter recursion hit a nonpositive predictive density.

    Carries the 1-based time index at which the recursion broke down.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class InfeasiblePairError(FrontierError):
    """A two-point hypothesis construction violates its feasibility inequality."""


class DegenerateProbeError(FrontierError):
    """A numerical probe produced no usable sample (e.g. all distances zero)."""


class DegenerateFitError(FrontierError):
    """A regression had no usable points (all losses zero or nonfinite)."""
