"""Mean-level downcrossing waves: segmentation, registration, normalization.

A wave is the elevation trajectory between two consecutive downcrossings
of the record mean, with sub-sample crossing times placed by linear
interpolation.  Registration maps each wave onto [0, 1] (optionally
pinning the first upcrossing at 0.5) and re-represents it in a common
clamped B-spline basis with endpoints held at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .bsplines import basis_matrix, bspline_values, equidistant_spec
from .errors import NoWaves, ZeroVariance
from .grids import FunctionalSample, Grid, Interval, uniform_grid
from .sea import TimeSeriesRecord

# Wave samples plus common-grid points per registration batch; bounds the
# (2k, points) basis temporaries and the banded system, so memory stays flat
# however long the waves are.
REGISTER_POINTS = 2**13


@dataclass(frozen=True)
class RegistrationSpec:
    """Common-grid size, spline order/knot count, and the upcrossing pin."""

    n_grid: int = 101
    spline_order: int = 6
    n_knots: int = 61
    constrain_upcross: bool = False

    def __post_init__(self):
        if self.n_grid < 2:
            raise ValueError("common grid needs at least 2 points")
        if self.spline_order < 2:
            raise ValueError("spline order must be >= 2")
        if self.n_knots < 2:
            raise ValueError("need at least the two endpoint knot sites")


@dataclass(frozen=True, eq=False)
class WaveRecord:
    """One wave: raw samples with interpolated zero endpoints."""

    raw_times: np.ndarray
    raw_values: np.ndarray
    period: float

    def __post_init__(self):
        t = np.array(self.raw_times, dtype=float)
        v = np.array(self.raw_values, dtype=float)
        if t.shape != v.shape or t.ndim != 1 or t.size < 2:
            raise ValueError("wave needs matching time/value arrays of length >= 2")
        if self.period <= 0:
            raise ValueError("wave period must be positive")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "raw_times", t)
        object.__setattr__(self, "raw_values", v)


def downcrossings(rec: TimeSeriesRecord, level: float) -> np.ndarray:
    """Interpolated times where the record crosses `level` from above.

    A sample exactly at the level counts as below it, so it ends a
    crossing only when the previous sample lies above.
    """
    v = rec.values
    t = rec.times
    above = v > level
    idx = np.where(above[:-1] & ~above[1:])[0]
    if idx.size == 0:
        return np.empty(0)
    frac = (level - v[idx]) / (v[idx + 1] - v[idx])
    return t[idx] + frac * (t[idx + 1] - t[idx])


def segment_waves(rec: TimeSeriesRecord) -> list[WaveRecord]:
    """Split a record into mean-level downcrossing waves.

    The record mean is subtracted first; each wave carries the samples
    strictly between its two crossings plus interpolated zero endpoints.
    """
    mean = float(rec.values.mean())
    centered = rec.values - mean
    shifted = TimeSeriesRecord(rec.fs, centered, rec.t0)
    times = shifted.times
    crossings = downcrossings(shifted, 0.0)
    if crossings.size < 2:
        raise NoWaves(
            f"record has {crossings.size} mean-level downcrossings; need >= 2"
        )
    # Samples strictly between consecutive crossings: one binary search per end.
    starts = np.searchsorted(times, crossings[:-1], "right")
    stops = np.searchsorted(times, crossings[1:], "left")
    waves = []
    for t_start, t_end, lo, hi in zip(crossings[:-1], crossings[1:], starts, stops):
        raw_t = np.concatenate([[t_start], times[lo:hi], [t_end]])
        raw_v = np.concatenate([[0.0], centered[lo:hi], [0.0]])
        waves.append(WaveRecord(raw_t, raw_v, float(t_end - t_start)))
    return waves


@lru_cache(maxsize=16)
def _registration_basis(spec: RegistrationSpec) -> tuple[Grid, np.ndarray]:
    """Common grid and the read-only least-squares projector onto the spline
    basis with both end coefficients pinned to 0, built once per spec."""
    grid = uniform_grid(Interval(0.0, 1.0), spec.n_grid)
    bspec = equidistant_spec(Interval(0.0, 1.0), spec.spline_order, spec.n_knots)
    design = basis_matrix(bspec, grid.points)[:, 1:-1]  # end coefficients pinned to 0
    gram = design.T @ design
    projector = design @ np.linalg.solve(gram, design.T)
    projector.flags.writeable = False
    return grid, projector


def _warp_times(
    times: np.ndarray, values: np.ndarray, lengths: np.ndarray, constrain: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Time maps of a batch of waves onto [0, 1].

    ``times`` and ``values`` hold the waves' samples end to end and
    ``lengths`` the sample count of each wave.  Returns the warped times and
    whether each wave has an upcrossing strictly inside it.  Unconstrained,
    the map is linear and every wave counts as having one; constrained, the
    two-piece map sends (start, first upcrossing, end) to (0, 0.5, 1), and
    a wave without an upcrossing gets NaN times.
    """
    starts = np.cumsum(lengths) - lengths
    wave = np.repeat(np.arange(lengths.size), lengths)
    ts, te = times[starts], times[starts + lengths - 1]
    if not constrain:
        return (times - ts[wave]) / (te - ts)[wave], np.ones(lengths.size, dtype=bool)
    rise = (wave[:-1] == wave[1:]) & (values[:-1] <= 0.0) & (values[1:] > 0.0)
    dv = np.where(rise, values[1:] - values[:-1], 1.0)
    ups = times[:-1] + (0.0 - values[:-1]) / dv * (times[1:] - times[:-1])
    hits = np.flatnonzero(rise & (ups > ts[wave[:-1]]) & (ups < te[wave[:-1]]))
    first = hits[np.diff(wave[hits], prepend=-1) != 0]
    has_up = np.zeros(lengths.size, dtype=bool)
    has_up[wave[first]] = True
    t_up = np.full(lengths.size, np.nan)
    t_up[wave[first]] = ups[first]
    t0, t1, tu = ts[wave], te[wave], t_up[wave]
    u = np.where(
        times <= tu,
        0.5 * (times - t0) / (tu - t0),
        0.5 + 0.5 * (times - tu) / (t1 - tu),
    )
    return u, has_up


def _not_a_knot(u: np.ndarray, lengths: np.ndarray, k: int):
    """Knot vectors of the degree-k not-a-knot interpolants, end to end.

    De Boor's rule as scipy's ``make_interp_spline`` applies it: odd k
    drops (k + 1)/2 data sites at each end, even k uses the midpoints of
    consecutive sites and drops k/2 of them at each end; the end sites are
    repeated k + 1 times.  A wave of n sites gets n + k + 1 knots.  Returns
    the knots, each knot's wave, each wave's first knot index and the mask
    of interior knots.
    """
    counts = lengths + k + 1
    kstart = np.cumsum(counts) - counts
    wave = np.repeat(np.arange(lengths.size), counts)
    j = np.arange(wave.size) - kstart[wave]
    first, n = (np.cumsum(lengths) - lengths)[wave], lengths[wave]
    i = first + np.clip(j - k - 1 + (k + 1) // 2, 0, n - 2)
    inner = u[i] if k % 2 else (u[i + 1] + u[i]) / 2
    knots = np.where(j <= k, u[first], np.where(j >= n, u[first + n - 1], inner))
    return knots, wave, kstart, (j > k) & (j < n)


def _interpolate(u: np.ndarray, values: np.ndarray, lengths: np.ndarray,
                 k: int, points: np.ndarray) -> np.ndarray:
    """Degree-k not-a-knot interpolants of a batch of waves, evaluated at points.

    ``u`` and ``values`` hold the waves' sites and values end to end and
    ``lengths`` the sample count of each wave; returns (waves, points).
    Each wave's collocation matrix has lower and upper bandwidth k, so the
    batch is one block-diagonal banded system of the same bandwidth, solved
    by one LAPACK ``gbsv`` call (the solve ``make_interp_spline`` runs per
    wave): time and memory are linear in the number of samples.
    """
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(values))):
        raise ValueError("wave times and values must be finite")
    n_waves, n_sites = lengths.size, u.size
    wave = np.repeat(np.arange(n_waves), lengths)
    if np.any(np.diff(u)[wave[:-1] == wave[1:]] <= 0.0):
        raise ValueError("wave times must be strictly increasing")
    knots, knot_wave, kstart, inner = _not_a_knot(u, lengths, k)
    # the data sites, then the common grid of every wave
    x = np.concatenate([u, np.tile(points, n_waves)])
    xw = np.concatenate([wave, np.repeat(np.arange(n_waves), points.size)])
    # Knot interval l, knots[l] <= x < knots[l + 1] (the last one closed): k
    # plus the wave's interior knots at or below x, counted by one binary
    # search over (wave, knot) pairs, which complex numbers order
    # lexicographically (wave + 1j * knot is exact).
    n_inner = lengths - k - 1
    below = np.searchsorted(knot_wave[inner] + 1j * knots[inner], xw + 1j * x, "right")
    l = kstart[xw] + k + below - (np.cumsum(n_inner) - n_inner)[xw]
    basis = bspline_values(knots, k, l, x)
    # column of B_{l-k+a} in the stacked system
    offset = np.cumsum(lengths) - lengths - kstart - k
    cols = l + offset[xw] + np.arange(k + 1)[:, None]
    ab = np.zeros((2 * k + 1, n_sites))
    ab[k + np.arange(n_sites) - cols[:, :n_sites], cols[:, :n_sites]] = basis[:, :n_sites]
    coef = scipy.linalg.solve_banded((k, k), ab, values, check_finite=False)
    dense = np.sum(basis[:, n_sites:] * coef[cols[:, n_sites:]], axis=0)
    return dense.reshape(n_waves, points.size)


def register_sample(
    waves: list[WaveRecord],
    spec: RegistrationSpec,
    min_interior: int = 4,
    label: str = "",
) -> tuple[FunctionalSample, np.ndarray, int]:
    """Register a batch of waves onto the common grid.

    Each wave is mapped onto [0, 1] (with ``constrain_upcross``, the
    two-piece linear map sends its start, first upcrossing and end to 0,
    0.5 and 1) and fitted in the common spline basis; the fitted curve is
    exactly zero at both endpoints, and waves with fewer samples than the
    spline order use a reduced interpolation order.  Waves with fewer than
    ``min_interior`` interior samples, and waves without an upcrossing when
    one is required, are dropped.  Returns the sample, the indices of the
    kept waves (row i is ``waves[kept[i]]``) and the count of dropped waves.
    Waves of equal spline degree are interpolated together, in batches of
    about ``REGISTER_POINTS`` samples and grid points.
    """
    grid, projector = _registration_basis(spec)
    sizes = np.array([w.raw_times.size for w in waves], dtype=int)
    keep = sizes - 2 >= min_interior
    degree = np.minimum(spec.spline_order - 1, sizes - 1)
    dense = np.empty((sizes.size, spec.n_grid))
    for k in np.unique(degree[keep]):
        group = np.flatnonzero(keep & (degree == k))
        batch = (np.cumsum(sizes[group] + spec.n_grid) - 1) // REGISTER_POINTS
        for rows in np.split(group, np.flatnonzero(np.diff(batch)) + 1):
            t = np.concatenate([waves[i].raw_times for i in rows])
            v = np.concatenate([waves[i].raw_values for i in rows])
            u, has_up = _warp_times(t, v, sizes[rows], spec.constrain_upcross)
            if not has_up.all():
                keep[rows[~has_up]] = False
                inside = np.repeat(has_up, sizes[rows])
                rows, u, v = rows[has_up], u[inside], v[inside]
            dense[rows] = _interpolate(u, v, sizes[rows], k, grid.points)
    kept = np.flatnonzero(keep)
    if not kept.size:
        raise NoWaves("no waves survived registration")
    sample = FunctionalSample(grid, dense[kept] @ projector.T, label)
    return sample, kept, sizes.size - kept.size


def normalize_sample(
    waves: FunctionalSample, rec: TimeSeriesRecord
) -> FunctionalSample:
    """Divide every registered wave by the record's sample standard deviation."""
    std = float(np.std(rec.values - rec.values.mean(), ddof=1))
    if std <= 0.0:
        raise ZeroVariance("record has zero variance; cannot normalize")
    return FunctionalSample(waves.grid, waves.values / std, waves.label)
