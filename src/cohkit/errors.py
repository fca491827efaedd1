"""Exception types shared across the toolkit, and the argument gates that raise them."""

import math
import numbers
import sys

import numpy as np


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


def finite_real(v) -> bool:
    """A real number, not a bool, that a double holds finitely (an int of any size compares exactly)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def require_count(name: str, v, lo: int, hi=math.inf, error=InvalidArgumentsError) -> int:
    """v as an int: an integer, not a bool, from lo to hi; error otherwise."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or not lo <= v <= hi:
        bound = f">= {lo}" if hi == math.inf else f"from {lo} to {hi}"
        raise error(f"{name} must be an integer {bound}, got {v!r}")
    return int(v)


def require_real(name: str, v, lo=-math.inf, error=InvalidArgumentsError) -> float:
    """v as a float: a finite real number (finite_real) of at least lo; error otherwise."""
    if not finite_real(v) or not v >= lo:
        bound = "" if lo == -math.inf else f" >= {lo}"
        raise error(f"{name} must be a finite number{bound}, got {v!r}")
    return float(v)


def require_array(name: str, v, dtype) -> np.ndarray:
    """v as a numpy array of dtype; InvalidArgumentsError when numpy cannot read it as one."""
    try:
        return np.asarray(v, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentsError(f"{name} must be numbers, got {type(v).__name__}: {exc}") from exc


def require_choice(name: str, v, choices):
    """v when it is a str among choices (a tuple, or a dict's keys); InvalidArgumentsError otherwise."""
    if not (isinstance(v, str) and v in choices):
        raise InvalidArgumentsError(
            f"unknown {name} {v!r}; expected one of {tuple(choices)}")
    return v


def require_instance(name: str, v, cls):
    """v when it is an instance of cls; InvalidArgumentsError otherwise."""
    if not isinstance(v, cls):
        raise InvalidArgumentsError(f"{name} must be a {cls.__name__}, got {type(v).__name__}")
    return v
