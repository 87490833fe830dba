"""Clamped B-spline bases and least-squares representation on a common basis.

Knot sites are equidistant points of the interval, endpoints included;
clamping repeats the boundary sites ``order`` times, so a basis with
``n_sites`` sites has ``n_sites - 2 + order`` functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InvalidOrder, WrongInterval
from .grids import FunctionalSample, Interval

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


def bspline_levels(knots: np.ndarray, k: int, l: np.ndarray, x: np.ndarray):
    """Values of the degree-j B-splines B_{l-j}, ..., B_l at x, for j = 0 .. k.

    ``l`` is the knot interval of each point, knots[l] <= x < knots[l + 1];
    yields one (j + 1, P) array per degree, in the order de Boor's BSPLVB
    recursion builds them (*A Practical Guide to Splines*, 1978).
    """
    # near[a] = knots[l + 1 - k + a], a = 0 .. 2k - 1
    near = knots[l + np.arange(1 - k, k + 1)[:, None]]
    to_right, from_left = near[k:] - x, x - near[:k]
    vals = np.ones((1,) + x.shape)
    yield vals
    for j in range(1, k + 1):
        w = vals / (near[k:k + j] - near[k - j:k])
        vals = np.empty((j + 1,) + x.shape)
        np.multiply(w, to_right[:j], out=vals[:-1])
        vals[-1] = 0.0
        vals[1:] += w * from_left[k - j:]
        yield vals


def bspline_values(knots: np.ndarray, k: int, l: np.ndarray, x: np.ndarray):
    """Values of the degree-k B-splines B_{l-k}, ..., B_l at x (Cox–de Boor).

    ``l`` is the knot interval of each point, knots[l] <= x < knots[l + 1];
    returns shape (k + 1, P).
    """
    for vals in bspline_levels(knots, k, l, x):
        pass
    return vals


def basis_matrix(spec: BSplineSpec, x: np.ndarray) -> np.ndarray:
    """Dense matrix of all basis functions evaluated at x: shape (len(x), n_basis).

    The last basis function is 1 at the right endpoint (closed interval
    convention); points that are not finite or lie outside the interval
    raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    knots, k = spec.knots, spec.degree
    if not np.all(np.isfinite(x)):
        raise ValueError("spline evaluation points must be finite")
    if np.any((x < knots[0]) | (x > knots[-1])):
        raise ValueError(f"spline evaluation points outside [{knots[0]}, {knots[-1]}]")
    # the right endpoint belongs to the last non-empty knot interval
    l = np.clip(np.searchsorted(knots, x, "right") - 1, k, spec.n_basis - 1)
    B = np.zeros((x.size, spec.n_basis))
    B[np.arange(x.size), l - k + np.arange(k + 1)[:, None]] = bspline_values(knots, k, l, x)
    return B


def least_squares_projector(design: np.ndarray) -> np.ndarray:
    """Projector ``D (D'D)^-1 D'`` onto the column space of a design matrix.

    ``design`` is (points, functions).  More functions than points, or a
    normal matrix ``D'D`` whose condition number is not finite or exceeds
    ``CONDITION_BOUND``, raise IllConditioned.
    """
    n_points, n_funcs = design.shape
    if n_funcs > n_points:
        raise IllConditioned(f"{n_funcs} basis functions exceed {n_points} grid points")
    # einsum, not BLAS: threaded BLAS products round differently at
    # different thread counts
    gram = np.einsum("pi,pj->ij", design, design)
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > CONDITION_BOUND:
        raise IllConditioned(
            f"normal system condition {cond:.3e} exceeds {CONDITION_BOUND:.0e}"
        )
    return np.einsum("pi,iq->pq", design, np.linalg.solve(gram, design.T))


def to_bspline(sample: FunctionalSample, spec: BSplineSpec) -> FunctionalSample:
    """Least-squares projection of each curve onto the spline space.

    The projected curves are re-evaluated on the sample's own grid, so the
    operation is idempotent up to round-off.
    """
    if not spec.interval.close_to(sample.interval):
        raise WrongInterval("spline spec interval differs from sample interval")
    projector = least_squares_projector(basis_matrix(spec, sample.grid.points))
    # einsum, not BLAS: the same values at any BLAS thread count
    values = np.einsum("ip,qp->iq", sample.values, projector)
    return FunctionalSample(sample.grid, values, sample.label)
