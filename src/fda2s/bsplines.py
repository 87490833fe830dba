"""Clamped B-spline bases and least-squares representation on a common basis.

Knot sites are equidistant points of the interval, endpoints included;
clamping repeats the boundary sites ``order`` times, so a basis with
``n_sites`` sites has ``n_sites - 2 + order`` functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InvalidOrder, WrongInterval, count
from .grids import FunctionalSample, Interval

# Largest condition number accepted for a normal system or a pooled score
# covariance before it counts as singular.
CONDITION_BOUND = 1e12


def condition_number(eigvals: np.ndarray) -> np.ndarray:
    """lambda_max / lambda_min of symmetric matrices from their eigenvalues (last
    axis) where lambda_min > 0, else inf."""
    low = eigvals.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(low > 0.0, eigvals.max(axis=-1) / low, np.inf)


def well_conditioned(eigvals: np.ndarray) -> np.ndarray:
    """The singular rule: lambda_min > 0 and lambda_max <= CONDITION_BOUND * lambda_min."""
    return condition_number(eigvals) <= CONDITION_BOUND


@dataclass(frozen=True, eq=False)
class BSplineSpec:
    """Spline order (degree + 1) and full clamped knot vector."""

    order: int
    knots: np.ndarray

    def __post_init__(self):
        count(self.order, "order", 2, InvalidOrder)
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
    count(order, "order", 2, InvalidOrder)
    sites = np.linspace(interval.a, interval.b, count(n_sites, "n_sites", 2, InvalidOrder))
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


def _ldl_band(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``gram = U diag(d) U'`` for a positive definite matrix of bandwidth k.

    Returns the unit lower triangular U and d.  In Python floats, column by
    column, not LAPACK: LAPACK's Cholesky rounds large matrices (from
    139 rows, on the registration specs) differently at different BLAS
    thread counts.
    """
    n = gram.shape[0]
    cols = [gram[j:j + k + 1, j].tolist() for j in range(n)]  # the lower band
    for j, col in enumerate(cols):
        # column j + i of the trailing matrix loses u times column j
        for i in range(1, len(col)):
            u = col[i] / col[0]
            later = cols[j + i]
            for t in range(len(col) - i):
                later[t] -= u * col[i + t]
            col[i] = u
    unit = np.eye(n)
    for j, col in enumerate(cols):
        unit[j + 1:j + len(col), j] = col[1:]
    return unit, np.array([col[0] for col in cols])


def least_squares_fit(design: np.ndarray):
    """Least-squares fit onto the column space of a banded design matrix.

    ``design`` is (points, functions); the nonzeros of each row span a few
    consecutive columns, as in a B-spline design.  Returns
    ``fit(values, out=None)``, which projects the rows of a (curves,
    points) array by ``D (D'D)^-1 D'`` into ``out`` and returns ``out``,
    marked read-only:

    1. ``D'·values``, one multiply-add per grid point, over the functions
       nonzero there;
    2. forward and back substitution with the banded ``U diag(d) U'``
       factor of ``D'D``, one multiply-add per column of U;
    3. ``D·c``, one multiply-add per function, over the points where it is
       nonzero.

    ``out`` must be a writeable, C-contiguous float (curves, points) array, or
    None for a new one.  ``fit`` copies ``values`` into a points-major work
    array before it writes ``out``, which holds the coefficients and then
    the fitted rows, so ``out`` may be ``values`` itself: the rows are then
    fitted in place.

    Each multiply-add is elementwise over all curves, with no BLAS product
    and no reduction, so a curve's row is the same at any BLAS thread count
    and whichever curves are fitted with it.  More functions than points,
    or a normal matrix ``D'D`` whose eigenvalues fail `well_conditioned`,
    raise IllConditioned here, before any curve is fitted.
    """
    design = np.array(design, dtype=float)
    n_points, n_funcs = design.shape
    if n_funcs > n_points:
        raise IllConditioned(f"{n_funcs} basis functions exceed {n_points} grid points")
    # einsum, not BLAS: threaded BLAS products round differently at
    # different thread counts
    gram = np.einsum("pi,pj->ij", design, design)
    eigvals = np.linalg.eigvalsh(gram)
    if not well_conditioned(eigvals):
        raise IllConditioned(f"normal system condition {condition_number(eigvals):.3e} "
                             f"exceeds {CONDITION_BOUND:.0e}")
    nonzero = design != 0.0
    rows = np.flatnonzero(nonzero.any(axis=1))
    # row p is zero outside columns lo[p] .. lo[p] + width - 1, column j
    # outside rows first[j] .. last[j] - 1
    lo = nonzero.argmax(axis=1)
    width = int(np.max((n_funcs - nonzero[:, ::-1].argmax(axis=1) - lo)[rows]))
    lo = np.minimum(lo, n_funcs - width)
    first = nonzero.argmax(axis=0)
    last = n_points - nonzero[::-1].argmax(axis=0)
    unit, diag = _ldl_band(gram, width - 1)
    lo, first, last = lo.tolist(), first.tolist(), last.tolist()
    by_point = [(p, slice(lo[p], lo[p] + width), design[p, lo[p]:lo[p] + width, None])
                for p in rows.tolist()]
    down = [(j, slice(j + 1, j + width), unit[j + 1:j + width, j, None])
            for j in range(n_funcs - 1)]
    up = [(j, slice(max(j - width + 1, 0), j), unit[j, max(j - width + 1, 0):j, None])
          for j in range(n_funcs - 1, 0, -1)]
    by_func = [(j, slice(first[j], last[j]), design[first[j]:last[j], j, None])
               for j in range(n_funcs)]
    diag = diag[:, None]
    span = max(width, *(b - a for a, b in zip(first, last)))

    def fit(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        n_curves = values.shape[0]
        if out is None:
            out = np.empty((n_curves, n_points))
        data = values.T.copy()  # (points, curves), taken before out is written
        # the coefficients live in out until the fitted values overwrite them
        c = out.reshape(-1)[:n_funcs * n_curves].reshape(n_funcs, n_curves)
        c.fill(0.0)
        scratch = np.empty((span, n_curves))
        for p, cols, coef in by_point:
            into = c[cols]
            into += np.multiply(coef, data[p], out=scratch[:len(coef)])
        for j, below, coef in down:
            into = c[below]
            into -= np.multiply(coef, c[j], out=scratch[:len(coef)])
        c /= diag
        for j, above, coef in up:
            into = c[above]
            into -= np.multiply(coef, c[j], out=scratch[:len(coef)])
        data.fill(0.0)
        for j, points, coef in by_func:
            into = data[points]
            into += np.multiply(coef, c[j], out=scratch[:len(coef)])
        np.copyto(out, data.T)
        out.flags.writeable = False
        return out

    return fit


def to_bspline(sample: FunctionalSample, spec: BSplineSpec) -> FunctionalSample:
    """Least-squares projection of each curve onto the spline space.

    The projected curves are re-evaluated on the sample's own grid, so the
    operation is idempotent up to round-off.
    """
    if not spec.interval.close_to(sample.interval):
        raise WrongInterval("spline spec interval differs from sample interval")
    fit = least_squares_fit(basis_matrix(spec, sample.grid.points))
    return FunctionalSample(sample.grid, fit(sample.values), sample.label)
