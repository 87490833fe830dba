"""Functional data on shared grids and quadrature-based inner products.

Curves are stored as sampled values on a common grid; all integrals are
trapezoidal quadrature on that grid.  Types are immutable after
construction, so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, NonFiniteValue


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b (time or frequency units)."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise NonFiniteValue("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def close_to(self, other: "Interval", tol: float = 1e-9) -> bool:
        return abs(self.a - other.a) <= tol and abs(self.b - other.b) <= tol


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing evaluation points spanning an interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points in one dimension")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteValue("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        # Trapezoid weights are used by every inner product; cache them once.
        w = np.empty_like(pts)
        w[1:-1] = 0.5 * (pts[2:] - pts[:-2])
        w[0] = 0.5 * (pts[1] - pts[0])
        w[-1] = 0.5 * (pts[-1] - pts[-2])
        w.flags.writeable = False
        object.__setattr__(self, "_weights", w)

    @property
    def interval(self) -> Interval:
        return Interval(float(self.points[0]), float(self.points[-1]))

    @property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights for this grid."""
        return self._weights

    def __len__(self) -> int:
        return self.points.size

    def matches(self, other: "Grid") -> bool:
        return self is other or (
            self.points.size == other.points.size
            and bool(np.array_equal(self.points, other.points))
        )


def uniform_grid(interval: Interval, n: int) -> Grid:
    """Uniform grid of n points over the interval (endpoints included)."""
    if n < 2:
        raise ValueError("uniform grid needs n >= 2")
    return Grid(np.linspace(interval.a, interval.b, n))


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """A set of curves sharing one grid, stored as a (n_curves, n_points) matrix."""

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DimensionMismatch("sample values must be a 2-d matrix")
        if vals.shape[0] < 1:
            raise DimensionMismatch("sample must contain at least one curve")
        if vals.shape[1] != len(self.grid):
            raise DimensionMismatch(
                f"rows of length {vals.shape[1]} do not match grid of {len(self.grid)}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("sample values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_curves(self) -> int:
        return self.values.shape[0]

    @property
    def interval(self) -> Interval:
        return self.grid.interval


def sample_inner_products(sample: FunctionalSample, funcs: np.ndarray) -> np.ndarray:
    """Inner products of every curve against every row of ``funcs``.

    Returns a (n_curves, n_funcs) matrix; ``funcs`` is (n_funcs, n_points)
    on the sample's grid.
    """
    if funcs.shape[1] != len(sample.grid):
        raise GridMismatch("functions not sampled on the sample grid")
    weighted = funcs * sample.grid.weights
    return sample.values @ weighted.T
