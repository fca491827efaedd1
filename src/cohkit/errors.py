"""Exception types shared across the toolkit."""


class CohkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(CohkitError):
    """Operands do not have compatible shapes or dimensions."""


class InvalidDimensionError(CohkitError):
    """A requested dimension is not a positive integer."""


class NotHermitianError(CohkitError):
    """A matrix violates the Hermiticity tolerance."""


class NotUnitTraceError(CohkitError):
    """A matrix or probability vector does not sum to one within tolerance."""


class NotPositiveError(CohkitError):
    """A matrix has an eigenvalue below the allowed negative tolerance."""


class NotUnitaryError(CohkitError):
    """A matrix is not unitary within tolerance."""


class NoConvergenceError(CohkitError):
    """An iterative routine exhausted its budget before reaching its target."""


class DegenerateTruncationError(CohkitError):
    """A truncated expansion retains essentially none of the state's weight."""


class InvalidKrausError(CohkitError):
    """A Kraus operator set violates trace preservation."""


class OptimizerFailure(CohkitError):
    """A numerical search ended without satisfying its convergence test."""


class PureStateError(CohkitError):
    """An operation that needs a mixed state received a (near-)pure one."""


class InvalidArgumentsError(CohkitError):
    """An argument is outside the accepted set of values."""


class ParseError(CohkitError):
    """An input file does not match the expected schema."""
