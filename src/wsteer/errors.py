"""Exception types shared across the package."""


class WsteerError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(WsteerError):
    """Operands have incompatible shapes."""


class NotSymmetricError(WsteerError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPDError(WsteerError):
    """A matrix required to be positive definite is not."""


class IndefiniteBeyondToleranceError(WsteerError):
    """A nominally PSD matrix has eigenvalues below the clamping tolerance."""


class SingularMatrixError(WsteerError):
    """A matrix inverse was requested but the matrix is numerically singular."""


class IndexOrderError(WsteerError):
    """Time indices passed in the wrong order."""


class SingularTerminalCovarianceError(WsteerError):
    """The terminal covariance is too ill-conditioned to invert."""


class SingularTransformError(WsteerError):
    """The feedback-gain transform is singular (non-causal input)."""


class HessianNotPDError(WsteerError):
    """The reduced Hessian is not positive definite at the current iterate."""


class NonFiniteError(WsteerError):
    """An operand holds an infinite or NaN entry."""


class ValidationError(WsteerError):
    """Problem data failed validation.

    Carries the list of human-readable violations.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
