"""Score matrices, the pooled-covariance quadratic form, and its chi-square reference.

The statistic is the Mahalanobis-type form of the difference between the
two samples' mean projection scores, referenced to a chi-square law with
one degree of freedom per projection function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaincc, gammainccinv

from .bsplines import CONDITION_BOUND
from .errors import (
    DimensionMismatch,
    GridMismatch,
    InvalidDF,
    SingularCovariance,
    TooFewCurves,
)
from .grids import FunctionalSample, sample_inner_products
from .projections import GVector


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Projection scores, one row per curve and one column per g-function."""

    scores: np.ndarray
    sample_label: str = ""

    def __post_init__(self):
        scores = np.array(np.atleast_2d(self.scores), dtype=float)
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    @property
    def n_curves(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True, eq=False)
class PooledCovariance:
    """Scaled pooled covariance of the score vectors (the statistic's metric)."""

    matrix: np.ndarray
    m: int
    n: int

    @property
    def alpha(self) -> float:
        return float(np.sqrt((self.m + self.n) / self.m))

    @property
    def beta(self) -> float:
        return float(np.sqrt((self.m + self.n) / self.n))


@dataclass(frozen=True, eq=False)
class TestResult:
    """Value of the quadratic form with its calibration summaries."""

    qn: float
    k: int
    p_asymptotic: float
    eta: np.ndarray
    m: int
    n: int
    scheme: dict | None = None
    p_resampled: float | None = None
    n_resamples: int | None = None
    n_failed_resamples: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "qn": self.qn,
            "k": self.k,
            "p_asymptotic": self.p_asymptotic,
            "p_resampled": self.p_resampled,
            "n_resamples": self.n_resamples,
            "n_failed_resamples": self.n_failed_resamples,
            "scheme": (self.scheme or {}).get("scheme"),
            "params": (self.scheme or {}).get("params"),
            "seed": self.seed,
            "m": self.m,
            "n": self.n,
        }


def score_matrix(sample: FunctionalSample, g: GVector) -> ScoreMatrix:
    """Inner products of every curve with every projection function."""
    if not sample.grid.matches(g.grid):
        raise GridMismatch("sample and g-functions live on different grids")
    return ScoreMatrix(sample_inner_products(sample, g.functions), sample.label)


def eta_vector(sx: ScoreMatrix, sy: ScoreMatrix) -> np.ndarray:
    """Scaled difference of mean scores: sqrt(m+n) * (mean_X - mean_Y)."""
    if sx.k != sy.k:
        raise DimensionMismatch(f"score column counts differ: {sx.k} vs {sy.k}")
    m, n = sx.n_curves, sy.n_curves
    if m < 1 or n < 1:
        raise TooFewCurves("both samples must be non-empty")
    return np.sqrt(m + n) * (sx.scores.mean(axis=0) - sy.scores.mean(axis=0))


def pooled_covariance(sx: ScoreMatrix, sy: ScoreMatrix) -> PooledCovariance:
    """Pooled score covariance scaled by (alpha^2 + beta^2) / (m + n - 2)."""
    if sx.k != sy.k:
        raise DimensionMismatch(f"score column counts differ: {sx.k} vs {sy.k}")
    m, n = sx.n_curves, sy.n_curves
    if m < 2 or n < 2:
        raise TooFewCurves("sample covariances need at least two curves per sample")
    k = sx.k
    if m + n - 2 < k:
        warnings.warn(
            f"pooled covariance of {k} scores from {m + n} curves is rank-deficient",
            stacklevel=2,
        )
    cx = sx.scores - sx.scores.mean(axis=0)
    cy = sy.scores - sy.scores.mean(axis=0)
    alpha2 = (m + n) / m
    beta2 = (m + n) / n
    pooled = (alpha2 + beta2) / (m + n - 2) * (cx.T @ cx + cy.T @ cy)
    pooled = 0.5 * (pooled + pooled.T)
    return PooledCovariance(pooled, m, n)


def qn_statistic(sx: ScoreMatrix, sy: ScoreMatrix) -> TestResult:
    """The quadratic-form statistic with its asymptotic chi-square p-value."""
    eta = eta_vector(sx, sy)
    cov = pooled_covariance(sx, sy)
    k = sx.k
    qn = quadratic_form(eta, cov.matrix)
    return TestResult(
        qn=qn,
        k=k,
        p_asymptotic=chi_square_sf(qn, k),
        eta=eta,
        m=cov.m,
        n=cov.n,
    )


def quadratic_form(eta: np.ndarray, cov: np.ndarray) -> float:
    """eta' C^-1 eta through a symmetric-definite factorization."""
    cond = np.linalg.cond(cov)
    if not np.isfinite(cond) or cond > CONDITION_BOUND:
        raise SingularCovariance(
            f"covariance condition {cond:.3e} exceeds {CONDITION_BOUND:.0e}; "
            "reduce the number of g-functions"
        )
    try:
        factor = scipy.linalg.cho_factor(cov)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCovariance(f"factorization failed: {exc}") from exc
    solved = scipy.linalg.cho_solve(factor, eta)
    return float(max(eta @ solved, 0.0))


def qn_batch(scores: np.ndarray, m: int) -> np.ndarray:
    """Qn of the (m, N - m) row split of every score matrix in a (C, N, k) stack.

    The same statistic as `qn_statistic` on each matrix, with the same
    failure rule: a matrix whose pooled covariance has condition number
    above CONDITION_BOUND (or not finite), or fails its Cholesky
    factorization, gives NaN.  Non-finite scores raise ValueError.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    N = scores.shape[1]
    n = N - m
    if m < 2 or n < 2:
        raise TooFewCurves("sample covariances need at least two curves per sample")
    sx, sy = scores[:, :m], scores[:, m:]
    mean_x, mean_y = sx.mean(axis=1), sy.mean(axis=1)
    eta = np.sqrt(N) * (mean_x - mean_y)
    cx, cy = sx - mean_x[:, None], sy - mean_y[:, None]
    scatter = np.swapaxes(cx, 1, 2) @ cx + np.swapaxes(cy, 1, 2) @ cy
    pooled = (N / m + N / n) / (N - 2) * scatter
    pooled = 0.5 * (pooled + np.swapaxes(pooled, 1, 2))
    cond = np.linalg.cond(pooled)
    ok = np.flatnonzero(np.isfinite(cond) & (cond <= CONDITION_BOUND))
    try:
        chol = np.linalg.cholesky(pooled[ok])
    except np.linalg.LinAlgError:  # some matrix does not factor: find which
        ok = np.array([i for i in ok if _factors(pooled[i])], dtype=int)
        chol = np.linalg.cholesky(pooled[ok])
    out = np.full(scores.shape[0], np.nan)
    # eta' C^-1 eta = |L^-1 eta|^2 with C = L L'
    out[ok] = np.sum(np.linalg.solve(chol, eta[ok][..., None])[..., 0] ** 2, axis=-1)
    return out


def _factors(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def chi_square_sf(q: float, k: int) -> float:
    """Upper-tail probability of the chi-square law with k degrees of freedom."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidDF(f"degrees of freedom must be a positive integer, got {k}")
    if q < 0:
        raise ValueError(f"quadratic form value must be >= 0, got {q}")
    return float(gammaincc(k / 2.0, q / 2.0))


def chi_square_isf(p: float, k: int) -> float:
    """Inverse survival function: the q with chi_square_sf(q, k) = p."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidDF(f"degrees of freedom must be a positive integer, got {k}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"tail probability must be in (0, 1], got {p}")
    return float(2.0 * gammainccinv(k / 2.0, p))
