"""Exception types shared across the package."""

import math


class BtkitError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(BtkitError):
    """A constructor or solver argument violates its documented domain."""


class InvalidGridError(BtkitError):
    """Grid bounds, sample counts, or stencil step are inconsistent."""


class EmptyDomainError(BtkitError):
    """Every point of a residual scan was singular; nothing to report."""


class TransversalityError(BtkitError):
    """A wave amplitude has a component along the propagation direction."""


class NormalizationError(BtkitError):
    """A direction vector that must be unit length is not."""


class NonCommutingError(BtkitError):
    """Generators of an exponential seed must commute."""


class SingularMatrixError(BtkitError):
    """A matrix field is numerically non-invertible at an evaluated point.

    ``cond`` is the condition number found there: inf for a singular node
    or one with a non-finite entry.
    """

    def __init__(self, point, *, cond=math.inf):
        self.point = tuple(float(c) for c in point)
        self.cond = float(cond)
        super().__init__(f"matrix field is singular near {self.point} "
                         f"(condition number {self.cond!r})")


class PathDependenceError(BtkitError):
    """Axis-ordered line integrals disagree: the integrand is not curl-free."""


class IntegrabilityError(PathDependenceError):
    """Inputs to a recursion step violate its integrability condition."""
