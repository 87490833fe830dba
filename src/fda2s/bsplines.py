"""Clamped B-spline bases and least-squares representation on a common basis.

Knot sites are equidistant points of the interval, endpoints included;
clamping repeats the boundary sites ``order`` times, so a basis with
``n_sites`` sites has ``n_sites - 2 + order`` functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .errors import IllConditioned, InvalidOrder, WrongInterval
from .grids import FunctionalSample, Grid, Interval

# Largest condition number accepted for a normal system or a pooled score
# covariance before it counts as singular.
CONDITION_BOUND = 1e12


@dataclass(frozen=True, eq=False)
class BSplineSpec:
    """Spline order (degree + 1) and full clamped knot vector."""

    order: int
    knots: np.ndarray

    def __post_init__(self):
        if self.order < 2:
            raise InvalidOrder(f"spline order must be >= 2, got {self.order}")
        knots = np.array(self.knots, dtype=float)
        knots.flags.writeable = False
        if knots.size < 2 * self.order:
            raise InvalidOrder("knot vector shorter than 2*order")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be non-decreasing")
        a, b = knots[0], knots[-1]
        if not (np.all(knots[: self.order] == a) and np.all(knots[-self.order :] == b)):
            raise ValueError("boundary knots must repeat `order` times")
        interior = knots[self.order : -self.order]
        if interior.size and not (np.all(interior > a) and np.all(interior < b)):
            raise ValueError("interior knots must lie strictly inside the interval")
        object.__setattr__(self, "knots", knots)

    @property
    def degree(self) -> int:
        return self.order - 1

    @property
    def n_basis(self) -> int:
        return self.knots.size - self.order

    @property
    def interval(self) -> Interval:
        return Interval(float(self.knots[0]), float(self.knots[-1]))


def equidistant_spec(interval: Interval, order: int, n_sites: int) -> BSplineSpec:
    """Clamped spec with ``n_sites`` equidistant knot sites, endpoints included."""
    if order < 2:
        raise InvalidOrder(f"spline order must be >= 2, got {order}")
    if n_sites < 2:
        raise InvalidOrder("need at least the two endpoint sites")
    sites = np.linspace(interval.a, interval.b, n_sites)
    knots = np.concatenate(
        [np.full(order - 1, interval.a), sites, np.full(order - 1, interval.b)]
    )
    return BSplineSpec(order, knots)


def spec_from_interior_nodes(
    interval: Interval, order: int, interior_nodes: int
) -> BSplineSpec:
    """Clamped spec with the given number of equidistant interior nodes."""
    if interior_nodes < 0:
        raise InvalidOrder("interior node count must be >= 0")
    return equidistant_spec(interval, order, interior_nodes + 2)


def basis_matrix(spec: BSplineSpec, x: np.ndarray) -> np.ndarray:
    """Dense matrix of all basis functions evaluated at x: shape (len(x), n_basis).

    The last basis function is set to 1 at the right endpoint (closed
    interval convention).
    """
    x = np.asarray(x, dtype=float)
    dm = BSpline.design_matrix(x, spec.knots, spec.degree, extrapolate=False)
    return dm.toarray()


def fit_coefficients(
    spec: BSplineSpec,
    x: np.ndarray,
    data: np.ndarray,
    weights: np.ndarray | None = None,
    pin_ends_to_zero: bool = False,
) -> np.ndarray:
    """Least-squares spline coefficients for each row of ``data``.

    data is (n_rows, len(x)); returns (n_rows, n_basis).  With
    ``pin_ends_to_zero`` the first and last coefficients are fixed at 0,
    which pins the fitted curves to 0 at both interval endpoints.
    """
    B = basis_matrix(spec, x)
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if pin_ends_to_zero:
        Bi = B[:, 1:-1]
    else:
        Bi = B
    if weights is not None:
        w = np.sqrt(np.asarray(weights, dtype=float))
        Bw = Bi * w[:, None]
        yw = data * w
    else:
        Bw = Bi
        yw = data
    gram = Bw.T @ Bw
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > CONDITION_BOUND:
        raise IllConditioned(
            f"normal system condition {cond:.3e} exceeds {CONDITION_BOUND:.0e}"
        )
    coef_inner = np.linalg.solve(gram, Bw.T @ yw.T).T
    if pin_ends_to_zero:
        coef = np.zeros((data.shape[0], spec.n_basis))
        coef[:, 1:-1] = coef_inner
        return coef
    return coef_inner


def evaluate(spec: BSplineSpec, coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate spline(s) with given coefficient rows at points x."""
    B = basis_matrix(spec, x)
    return np.atleast_2d(coefficients) @ B.T


def to_bspline(sample: FunctionalSample, spec: BSplineSpec) -> FunctionalSample:
    """Least-squares projection of each curve onto the spline space.

    The projected curves are re-evaluated on the sample's own grid, so the
    operation is idempotent up to round-off.
    """
    if not spec.interval.close_to(sample.interval):
        raise WrongInterval("spline spec interval differs from sample interval")
    if spec.n_basis > len(sample.grid):
        raise IllConditioned(
            f"{spec.n_basis} basis functions exceed {len(sample.grid)} grid points"
        )
    coef = fit_coefficients(spec, sample.grid.points, sample.values)
    values = evaluate(spec, coef, sample.grid.points)
    return FunctionalSample(sample.grid, values, sample.label)


def basis_sample(spec: BSplineSpec, grid: Grid) -> np.ndarray:
    """All basis functions sampled on a grid, one per row: (n_basis, len(grid))."""
    return basis_matrix(spec, grid.points).T
