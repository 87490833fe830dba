"""Score matrices, the pooled-covariance quadratic form, and its chi-square reference.

The statistic is the Mahalanobis-type form of the difference between the
two samples' mean projection scores, referenced to a chi-square law with
one degree of freedom per projection function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
class TestResult:
    """Value of the quadratic form with its calibration summaries."""

    qn: float
    k: int
    p_asymptotic: float
    m: int
    n: int
    scheme: str | None = None
    params: dict | None = None
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
            "scheme": self.scheme,
            "params": self.params,
            "seed": self.seed,
            "m": self.m,
            "n": self.n,
        }


def score_matrix(sample: FunctionalSample, g: GVector) -> np.ndarray:
    """Inner products of every curve with every projection function, (n_curves, k)."""
    if not sample.grid.matches(g.grid):
        raise GridMismatch("sample and g-functions live on different grids")
    return sample_inner_products(sample, g.functions)


def qn_statistic(sx, sy) -> TestResult:
    """The quadratic-form statistic of two score matrices with its chi-square p-value.

    ``sx`` is (m, k) and ``sy`` is (n, k): one row per curve, one column
    per projection function.
    """
    sx, sy = np.asarray(sx, dtype=float), np.asarray(sy, dtype=float)
    if sx.ndim != 2 or sy.ndim != 2 or sx.shape[1] != sy.shape[1]:
        raise DimensionMismatch(f"score matrices of shapes {sx.shape} and {sy.shape} "
                                "do not have one shared column count")
    (m, k), n = sx.shape, sy.shape[0]
    qn = float(qn_batch(np.vstack([sx, sy])[None], m)[0])
    if np.isnan(qn):
        raise SingularCovariance(
            "pooled covariance is singular or its condition number exceeds "
            f"{CONDITION_BOUND:.0e}; reduce the number of g-functions"
        )
    return TestResult(qn=qn, k=k, p_asymptotic=chi_square_sf(qn, k), m=m, n=n)


def qn_batch(scores: np.ndarray, m: int) -> np.ndarray:
    """Qn of the (m, N - m) row split of every score matrix in a (C, N, k) stack.

    Qn = eta' C^-1 eta with eta = sqrt(N) (mean_X - mean_Y) and C the
    pooled score covariance scaled by (N/m + N/n) / (N - 2).  A matrix
    whose C fails (see `quadratic_form`) gives NaN.  Non-finite scores
    raise ValueError.
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
    return quadratic_form(eta, pooled)


def quadratic_form(eta: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """eta' C^-1 eta for each row of a (C, k) eta and matrix of a (C, k, k) cov.

    NaN where the matrix has condition number above CONDITION_BOUND (or
    not finite), or fails its Cholesky factorization.
    """
    cond = np.linalg.cond(cov)
    ok = np.flatnonzero(np.isfinite(cond) & (cond <= CONDITION_BOUND))
    try:
        chol = np.linalg.cholesky(cov[ok])
    except np.linalg.LinAlgError:  # some matrix does not factor: find which
        ok = np.array([i for i in ok if _factors(cov[i])], dtype=int)
        chol = np.linalg.cholesky(cov[ok])
    out = np.full(eta.shape[0], np.nan)
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
