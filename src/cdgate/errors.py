"""Exception types raised across the package."""


class CdgateError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(CdgateError):
    """Operands have incompatible shapes."""


class NotHermitianError(CdgateError):
    """Matrix fails the Hermiticity precondition."""


class NonPositiveTauError(CdgateError):
    """Drive duration must be positive."""


class DimensionTooLargeError(CdgateError):
    """Qubit count outside the supported 2..6 range."""


class GapCollisionError(CdgateError):
    """Counterdiabatic construction hit a genuinely coupled degeneracy."""


class StepUnderflowError(CdgateError):
    """Adaptive integrator could not take an acceptable step."""


class NormDriftExceededError(CdgateError):
    """State norm drifted beyond the allowed monitor limit."""


class TraceDriftExceededError(CdgateError):
    """Density-matrix trace drifted beyond the allowed monitor limit."""


class PositivityViolationError(CdgateError):
    """Density matrix developed a significantly negative eigenvalue."""


class InvalidSampleCountError(CdgateError):
    """Monte-Carlo sample count not an integer, or below the supported
    minimum."""


class NotNormalizedError(CdgateError):
    """State vector is not unit-norm."""


class InvalidDensityMatrixError(CdgateError):
    """Matrix is not a valid density operator."""


class NoInteriorMaximumError(CdgateError):
    """Fidelity is monotone on the scanned window; no interior optimum."""
