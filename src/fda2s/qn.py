"""Score matrices, the pooled-covariance quadratic form, and its chi-square reference.

The statistic is the Mahalanobis-type form of the difference between the
two samples' mean projection scores, referenced to a chi-square law with
one degree of freedom per projection function.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bsplines import CONDITION_BOUND, condition_number, well_conditioned
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
        return asdict(self)


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
    eta, pooled = _eta_and_pooled(np.vstack([sx, sy])[None], m)
    qn = float(quadratic_form(eta, pooled)[0])
    if np.isnan(qn):
        cond = condition_number(np.linalg.eigvalsh(pooled[0]))
        raise SingularCovariance(
            f"pooled covariance (condition number {cond:.3e}) is "
            f"singular or its condition number exceeds {CONDITION_BOUND:.0e}; "
            "reduce the number of g-functions"
        )
    return TestResult(qn=qn, k=k, p_asymptotic=chi_square_sf(qn, k), m=m, n=n)


def qn_batch(scores: np.ndarray, m: int) -> np.ndarray:
    """Qn of the (m, N - m) row split of every score matrix in a (C, N, k) stack.

    Qn = eta' C^-1 eta with eta = sqrt(N) (mean_X - mean_Y) and C the
    pooled score covariance scaled by (N/m + N/n) / (N - 2).  A matrix
    whose C fails (see `quadratic_form`) gives NaN.  Non-finite scores
    raise ValueError.
    """
    return quadratic_form(*_eta_and_pooled(np.asarray(scores, dtype=float), m))


def _eta_and_pooled(scores: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """eta, (C, k), and the pooled covariance, (C, k, k), of a (C, N, k) stack."""
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
    return eta, pooled


def quadratic_form(eta: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """eta' C^-1 eta for each row of a (C, k) eta and matrix of a (C, k, k) cov.

    One `eigh` judges and solves: with C = V diag(lambda) V', the form is
    sum_i (v_i' eta)^2 / lambda_i, and NaN where the eigenvalues fail
    `well_conditioned`.
    """
    eigvals, vecs = np.linalg.eigh(cov)
    ok = well_conditioned(eigvals)
    out = np.full(eta.shape[0], np.nan)
    proj = np.einsum("cki,ck->ci", vecs[ok], eta[ok])
    out[ok] = np.einsum("ci,ci->c", proj, proj / eigvals[ok])
    return out


def _check_df(k) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise InvalidDF(f"degrees of freedom must be a positive integer, got {k}")


def _poisson_term(x: float, j: float) -> float:
    """x^j e^-x / Gamma(j + 1), from its logarithm, which cannot underflow early."""
    return math.exp(j * math.log(x) - x - math.lgamma(j + 1.0))


def chi_square_sf(q: float, k: int) -> float:
    """Upper-tail probability of the chi-square law with k degrees of freedom.

    The finite sum for an integer k, with x = q/2: the terms
    x^j e^-x / j! over j = 0 .. k/2 - 1 for even k, and erfc(sqrt(x)) plus
    the same terms over j = 1/2, 3/2, .., (k - 2)/2 for odd k.  Each term
    is exponentiated from its logarithm: the e^-x recurrence underflows
    deep in the tail (k = 481, q = 1530 has p = 1.4e-109).
    """
    _check_df(k)
    q = float(q)
    if math.isnan(q):
        raise ValueError("quadratic form value must not be NaN")
    if q < 0:
        raise ValueError(f"quadratic form value must be >= 0, got {q}")
    if q == 0.0:
        return 1.0
    if math.isinf(q):
        return 0.0
    x = q / 2.0
    head, j = (math.erfc(math.sqrt(x)), 0.5) if k % 2 else (0.0, 0.0)
    return math.fsum([head, *(_poisson_term(x, j + i) for i in range(k // 2))])


def _chi_square_cdf(q: float, k: int) -> float:
    """1 - chi_square_sf(q, k) for 0 < q <= k: the same terms from j = k/2 on.

    Where the tail is near 1 its complement is small and so kept to full
    relative precision; past j = k/2 > x the terms shrink geometrically.
    """
    x = q / 2.0
    terms = [_poisson_term(x, k / 2.0)]
    while terms[-1] > 1e-17 * terms[0]:
        terms.append(terms[-1] * x / (k / 2.0 + len(terms)))
    return math.fsum(terms)


def chi_square_isf(p: float, k: int) -> float:
    """Inverse survival function: the q with chi_square_sf(q, k) = p.

    Bisection on the smaller tail until the bracket's ends are adjacent
    doubles, so q is the crossing double of the computed tail: the smallest
    double with chi_square_sf(q, k) <= p for p <= 1/2, else the smallest
    with _chi_square_cdf(q, k) > 1 - p.
    """
    _check_df(k)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"tail probability must be in (0, 1], got {p}")
    if p == 1.0:
        return 0.0
    lo, hi = 0.0, float(k)  # the median is below k
    while chi_square_sf(hi, k) > p:
        lo, hi = hi, 2.0 * hi
    upper = p <= 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        past = chi_square_sf(mid, k) <= p if upper else _chi_square_cdf(mid, k) > 1.0 - p
        lo, hi = (lo, mid) if past else (mid, hi)
    return hi
