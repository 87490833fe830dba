"""Exception types raised by fda2s operations."""


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
    """Spectral model parameters out of range (hs <= 0, tp <= 0, ...)."""


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
