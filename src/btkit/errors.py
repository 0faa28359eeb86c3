"""Exception types shared across the package."""


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
    """A matrix field is numerically non-invertible at an evaluated point."""

    def __init__(self, point, message=None):
        self.point = tuple(float(c) for c in point)
        super().__init__(message or f"matrix field is singular near {self.point}")


class PathDependenceError(BtkitError):
    """Axis-ordered line integrals disagree: the integrand is not curl-free."""


class IntegrabilityError(PathDependenceError):
    """Inputs to a recursion step violate its integrability condition."""
