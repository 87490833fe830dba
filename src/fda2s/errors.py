"""Exception types raised by fda2s operations, and the one check of a count (an int
or NumPy integer, never a bool, float or text), `count`, and of a real setting (a
finite positive number, never a bool or text), `positive`."""

import math

import numpy as np


class FdaError(ValueError):
    """Base class for all fda2s validation and numerical errors."""


class DimensionMismatch(FdaError):
    """Array shapes are inconsistent (row lengths, column counts)."""


class NonFiniteValue(FdaError):
    """NaN or Inf encountered where finite values are required."""


class GridMismatch(FdaError):
    """Two curves or samples do not share the same grid."""


class IllConditioned(FdaError):
    """A least-squares normal system exceeds the condition bound."""


class InvalidK(FdaError):
    """Requested number of basis functions is not a positive integer."""


class InvalidOrder(FdaError):
    """Spline order below 2 or otherwise unusable."""


class WrongInterval(FdaError):
    """Sample interval differs from the one required by the operation."""


class DegenerateCovariance(FdaError):
    """Covariance operator has (numerically) fewer than d components."""


class TooFewCurves(FdaError):
    """Sample covariance needs at least two curves per sample."""


class SingularCovariance(FdaError):
    """Pooled score covariance is singular or exceeds the condition bound."""


class InvalidDF(FdaError):
    """Chi-square degrees of freedom must be a positive integer."""


class TooFewReplicates(FdaError):
    """Not enough null replicates for the requested quantiles."""


class InvalidParams(FdaError):
    """A count or real setting that `count` or `positive` refuses, or spectral model
    parameters out of range."""


class NyquistViolation(FdaError):
    """Spectral density carries non-negligible mass above the Nyquist rate."""


class NegativeEstimate(FdaError):
    """Spectral estimate is negative beyond round-off."""


class RecordTooShort(FdaError):
    """Time series record too short for the requested estimator."""


class NoWaves(FdaError):
    """Record has fewer than two mean-level downcrossings."""


class ZeroVariance(FdaError):
    """Record standard deviation is zero; cannot normalize."""


class MalformedFile(FdaError):
    """Input file does not follow the documented format.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def count(value, name: str, least: int, error: type[FdaError] = InvalidParams) -> int:
    """`value` as an int of at least `least`; `error` naming `name` if it is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def positive(value, name: str, error: type[FdaError] = InvalidParams) -> float:
    """`value` as a finite positive float; `error` naming `name` if it is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise error(f"{name} must be finite and positive, got {value!r}")
    return float(value)
