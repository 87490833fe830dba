"""Mean-level downcrossing waves: segmentation, registration, normalization.

A wave is the elevation trajectory between two consecutive downcrossings
of the record mean, with sub-sample crossing times placed by linear
interpolation.  Registration maps each wave onto [0, 1] (optionally
pinning the first upcrossing at 0.5) and re-represents it in a common
clamped B-spline basis with endpoints held at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .bsplines import (
    basis_matrix,
    bspline_levels,
    bspline_values,
    equidistant_spec,
    least_squares_fit,
)
from .errors import NoWaves, ZeroVariance, count
from .grids import FunctionalSample, Grid, Interval, _frozen, uniform_grid
from .sea import TimeSeriesRecord

# Wave samples plus an eighth of their common-grid points per registration
# batch; bounds the (2k, samples) basis temporaries, the banded system and the
# (waves * grid) Horner arrays, so memory stays flat however long the waves
# are.  A grid point weighs less than a sample: it costs one run-length
# repeat and Horner step, a sample the knots, collocation, solve and Taylor
# conversion that small batches slow down.
REGISTER_POINTS = 2**13
# Fewest samples strictly inside a wave for it to be registered by default.
MIN_INTERIOR = 4


@dataclass(frozen=True)
class RegistrationSpec:
    """Common-grid size, spline order/knot count, and the upcrossing pin."""

    n_grid: int = 101
    spline_order: int = 6
    n_knots: int = 61
    constrain_upcross: bool = False

    def __post_init__(self):
        count(self.n_grid, "n_grid", 2)
        count(self.spline_order, "spline_order", 2)
        count(self.n_knots, "n_knots", 2)
        if self.spline_order + self.n_knots - 4 < 1:  # both end coefficients pinned
            raise ValueError(f"spline order {self.spline_order} with {self.n_knots} knot "
                             "sites leaves no free spline function: need order + knots >= 5")


class Wave(NamedTuple):
    """One wave of a `Waves` set: read-only views of its samples, and its period."""

    raw_times: np.ndarray
    raw_values: np.ndarray
    period: float


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark fresh arrays read-only, so that `Waves` or a record keeps them
    without a copy."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _sample_index(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices into the flat samples of the given waves, end to end."""
    starts, sizes = offsets[rows], offsets[rows + 1] - offsets[rows]
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


@dataclass(frozen=True, eq=False)
class Waves:
    """Waves end to end: wave i is samples ``offsets[i]:offsets[i + 1]`` of
    ``times`` and ``values``, interpolated zero endpoints included, and its
    period ``periods[i]`` is the time from its first sample to its last.

    The arrays are read-only: one that owns its data and is already read-only
    is kept, anything else is copied.  Every wave has at least two samples,
    finite times and values and strictly increasing times, so a positive
    period; anything else raises ValueError.  ``len``, iteration and integer
    indexing give `Wave` views; a slice gives a `Waves`.
    """

    times: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    periods: np.ndarray = field(init=False)

    def __post_init__(self):
        t, v, offsets = _frozen(self.times), _frozen(self.values), _frozen(self.offsets, np.intp)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("wave needs matching time/value arrays of length >= 2")
        if offsets.ndim != 1 or not offsets.size or offsets[0] != 0 or offsets[-1] != t.size:
            raise ValueError("offsets must run from 0 to the sample count")
        if np.any(np.diff(offsets) < 2):
            raise ValueError("wave needs matching time/value arrays of length >= 2")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("wave times and values must be finite")
        steps = np.diff(t)
        steps[offsets[1:-1] - 1] = 1.0  # from one wave to the next
        if not np.all(steps > 0.0):
            raise ValueError("wave times must be strictly increasing")
        fields = {"times": t, "values": v, "offsets": offsets,
                  "periods": _read_only(t[offsets[1:] - 1] - t[offsets[:-1]])[0]}
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.periods.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            rows = np.arange(len(self))[key]
            idx = _sample_index(self.offsets, rows)
            sizes = self.offsets[rows + 1] - self.offsets[rows]
            return Waves(*_read_only(self.times[idx], self.values[idx],
                                     np.concatenate([[0], np.cumsum(sizes)])))
        i = range(len(self))[key]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return Wave(self.times[lo:hi], self.values[lo:hi], float(self.periods[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def too_short(waves: Waves, min_interior: int = MIN_INTERIOR) -> np.ndarray:
    """Mask of the waves with fewer than ``min_interior`` samples strictly inside."""
    return np.diff(waves.offsets) - 2 < min_interior


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


def segment_waves(rec: TimeSeriesRecord) -> Waves:
    """Split a record into mean-level downcrossing waves.

    The record mean is subtracted first; each wave carries the samples
    strictly between its two crossings plus interpolated zero endpoints.
    """
    mean = float(rec.values.mean())
    (centered,) = _read_only(rec.values - mean)
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
    offsets = np.concatenate([[0], np.cumsum(stops - starts + 2)])
    # record sample at every flat position, starts[w] - 1 .. stops[w] for
    # wave w, whose two ends then take the crossings (a last crossing that
    # rounds past the last sample would read one beyond it); built in place,
    # one record-sized temporary
    src = np.arange(offsets[-1])
    src -= np.repeat(offsets[:-1] + 1 - starts, stops - starts + 2)
    np.minimum(src, times.size - 1, out=src)
    flat_t, flat_v = times[src], centered[src]
    flat_t[offsets[:-1]], flat_t[offsets[1:] - 1] = crossings[:-1], crossings[1:]
    flat_v[offsets[:-1]] = flat_v[offsets[1:] - 1] = 0.0
    return Waves(*_read_only(flat_t, flat_v, offsets))


@lru_cache(maxsize=16)
def _registration_basis(spec: RegistrationSpec) -> tuple[Grid, Callable]:
    """Common grid and the least-squares fit onto the spline basis with both
    end coefficients pinned to 0, built once per spec."""
    grid = uniform_grid(Interval(0.0, 1.0), spec.n_grid)
    bspec = equidistant_spec(Interval(0.0, 1.0), spec.spline_order, spec.n_knots)
    design = basis_matrix(bspec, grid.points)[:, 1:-1]  # end coefficients pinned to 0
    return grid, least_squares_fit(design)


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


def _site_intervals(u: np.ndarray, lengths: np.ndarray, k: int, knots: np.ndarray,
                    kstart: np.ndarray) -> np.ndarray:
    """Knot interval l of each site, knots[l] <= u < knots[l + 1], the last one
    closed, for sites ``u`` strictly increasing within each wave.

    ``knots`` and ``kstart`` are as `_not_a_knot` returns them.  l is k plus
    the wave's interior knots at or below the site, which the not-a-knot rule
    fixes by index: for site i of n they are sites (k + 1)/2 .. i for odd k,
    and for even k the midpoints of sites s and s + 1, s = k/2 .. i - 1, so
    clip(i - (k + 1) // 2 + k % 2, 0, n - k - 1) of them, with no search.
    Only the midpoint of two adjacent doubles can round onto its left site
    i, which it then counts too.
    """
    wave = np.repeat(np.arange(lengths.size), lengths)
    n = lengths[wave]
    l = np.arange(u.size) - (np.cumsum(lengths) - lengths)[wave] - ((k + 1) // 2 - k % 2)
    np.clip(l, 0, n - k - 1, out=l)
    l += (kstart + k)[wave]
    if k % 2 == 0:
        l += (knots[l + 1] == u) & (l < (kstart - 1)[wave] + n)
    return l


def _grid_runs(points: np.ndarray, knots: np.ndarray, kstart: np.ndarray,
               inner: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Knot intervals that hold a grid point, and the run of points in each.

    ``knots``, ``kstart`` and ``inner`` are as `_not_a_knot` returns them;
    ``points`` is sorted.  Interval l holds the points knots[l] <= x <
    knots[l + 1] of its wave, the last one closed, so ``np.repeat(l, runs)``
    is every wave's interval at every point, wave by wave.  A wave's
    interior knots cut the points into runs, bounds [0, cuts..., n_points]
    at its knots k..n, one binary search per interior knot: time is linear
    in the number of knots, whatever the number of points.
    """
    bounds = np.full(knots.size, points.size)
    bounds[kstart[:, None] + np.arange(k + 1)] = 0
    bounds[inner] = np.searchsorted(points, knots[inner], "left")
    runs = np.diff(bounds)  # negative from one wave to the next
    lp = np.flatnonzero(runs > 0)
    return lp, runs[lp]


def _interpolate(u: np.ndarray, values: np.ndarray, lengths: np.ndarray,
                 k: int, points: np.ndarray, band: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Degree-k not-a-knot interpolants of a batch of waves, evaluated at points.

    ``u`` and ``values`` hold the waves' sites and values end to end and
    ``lengths`` the sample count of each wave; ``points`` is sorted and
    spans [u_first, u_last] of every wave.  Returns (waves, points), written
    into ``out`` when given.  Each wave's collocation matrix has lower and
    upper bandwidth k, so the batch is one block-diagonal banded system of
    the same bandwidth, solved by one LAPACK ``gbsv`` call (the solve
    ``make_interp_spline`` runs per wave), in ``band``: scratch space of at
    least (3k + 1) * u.size doubles, allocated when None.  The solved
    splines are then turned into piecewise-polynomial form, one Taylor
    expansion per knot interval, and evaluated by Horner: time and memory
    are linear in the number of samples and points.
    """
    # here, not at module level: scipy is most of `import fda2s`
    from scipy.linalg.lapack import dgbsv

    n_waves, n_sites, n_points = lengths.size, u.size, points.size
    wave = np.repeat(np.arange(n_waves), lengths)
    # warping may round distinct times together
    if not np.all(np.diff(u)[wave[:-1] == wave[1:]] > 0.0):
        raise ValueError("wave times must be strictly increasing")
    knots, knot_wave, kstart, inner = _not_a_knot(u, lengths, k)
    l = _site_intervals(u, lengths, k, knots, kstart)
    # column of B_{l-k+a} in the stacked system
    offset = np.cumsum(lengths) - lengths - kstart - k
    cols = l + offset[wave] + np.arange(k + 1)[:, None]
    # LAPACK's band layout, as `scipy.linalg.solve_banded` hands it over:
    # column-major, the matrix in rows k .. 3k, rows 0 .. k - 1 zero for the
    # fill-in of pivoting
    if band is None:
        band = np.empty((3 * k + 1) * n_sites)
    ab = band[:(3 * k + 1) * n_sites].reshape(3 * k + 1, n_sites, order="F")
    ab.fill(0.0)
    ab[2 * k + np.arange(n_sites) - cols, cols] = bspline_values(knots, k, l, u)
    _, _, coef, info = dgbsv(k, k, ab, values, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular collocation matrix")
    lp, runs = _grid_runs(points, knots, kstart, inner, k)
    # Piecewise-polynomial form on those intervals (de Boor's BSPLPP): on
    # interval l the spline is sum_m taylor[m] (x - knots[l])^m.  Differencing
    # the k + 1 coefficients that reach it gives those of the m-th derivative
    # over m!, and the degree-(k - m) B-splines at knots[l] sum them to its
    # value there.
    near = knots[lp + np.arange(1 - k, k + 1)[:, None]]  # knots[l + 1 - k + j]
    derivs = [coef[lp + offset[knot_wave[lp]] + np.arange(k + 1)[:, None]]]
    for m in range(1, k + 1):
        d, span = derivs[-1], near[k:2 * k + 1 - m] - near[m - 1:k]
        derivs.append((d[1:] - d[:-1]) * ((k + 1 - m) / m) / span)
    taylor = np.empty((k + 1, lp.size))
    for j, vals in enumerate(bspline_levels(knots, k, lp, knots[lp])):
        taylor[k - j] = np.einsum("ap,ap->p", derivs[k - j], vals)

    # Horner at every grid point, straight into the result rows, each
    # interval's expansion repeated over its run
    def term(m: int) -> np.ndarray:
        return np.repeat(taylor[m], runs).reshape(n_waves, n_points)

    dx = np.repeat(knots[lp], runs).reshape(n_waves, n_points)
    np.subtract(points, dx, out=dx)
    if out is None:
        out = np.empty((n_waves, n_points))
    np.multiply(term(k), dx, out=out)
    for m in range(k - 1, 0, -1):
        out += term(m)
        out *= dx
    out += term(0)
    return out


def register_sample(
    waves: Waves,
    spec: RegistrationSpec,
    min_interior: int = MIN_INTERIOR,
    label: str = "",
) -> tuple[FunctionalSample, np.ndarray, int]:
    """Register a set of waves onto the common grid.

    Each wave is mapped onto [0, 1] (with ``constrain_upcross``, the
    two-piece linear map sends its start, first upcrossing and end to 0,
    0.5 and 1) and fitted in the common spline basis; the fitted curve is
    exactly zero at both endpoints, and waves with fewer samples than the
    spline order use a reduced interpolation order.  Waves with fewer than
    ``min_interior`` interior samples, and waves without an upcrossing when
    one is required, are dropped.  Returns the sample, the indices of the
    kept waves (row i is ``waves[kept[i]]``) and the count of dropped waves.
    Waves of equal spline degree are interpolated together, in batches of
    about ``REGISTER_POINTS`` samples plus an eighth of their grid points.
    """
    grid, fit = _registration_basis(spec)
    sizes = np.diff(waves.offsets)
    keep = ~too_short(waves, min_interior)
    degree = np.minimum(spec.spline_order - 1, sizes - 1)
    batches = []
    for k in np.unique(degree[keep]):
        group = np.flatnonzero(keep & (degree == k))
        batch = (np.cumsum(sizes[group] + spec.n_grid // 8) - 1) // REGISTER_POINTS
        batches += [(k, rows) for rows in np.split(group, np.flatnonzero(np.diff(batch)) + 1)]
    # each batch writes the next rows, in batch order; `done` holds their waves
    dense = np.empty((np.count_nonzero(keep), spec.n_grid))
    filled, done = 0, []
    # one LAPACK band for every batch, (3k + 1) values per sample
    band = np.empty(max([(3 * k + 1) * sizes[rows].sum() for k, rows in batches], default=0))
    for k, rows in batches:
        idx = _sample_index(waves.offsets, rows)
        v = waves.values[idx]
        u, has_up = _warp_times(waves.times[idx], v, sizes[rows], spec.constrain_upcross)
        if not has_up.all():
            inside = np.repeat(has_up, sizes[rows])
            rows, u, v = rows[has_up], u[inside], v[inside]
        if rows.size:
            _interpolate(u, v, sizes[rows], k, grid.points, band,
                         dense[filled:filled + rows.size])
            filled += rows.size
            done.append(rows)
    if not done:
        raise NoWaves("no waves survived registration")
    kept = np.concatenate(done)
    if filled < dense.shape[0]:  # waves without an upcrossing were dropped
        dense = dense[:filled]
    if np.any(np.diff(kept) < 0):  # batches of several degrees interleave
        rank = np.argsort(kept)
        kept, dense = kept[rank], dense[rank]
    # fitted in place: the sample keeps the rows unless they are a view
    sample = FunctionalSample(grid, fit(dense, out=dense), label)
    return sample, kept, sizes.size - kept.size


def normalize_sample(
    waves: FunctionalSample, rec: TimeSeriesRecord
) -> FunctionalSample:
    """Divide every registered wave by the record's sample standard deviation."""
    std = float(np.std(rec.values - rec.values.mean(), ddof=1))
    if std <= 0.0:
        raise ZeroVariance("record has zero variance; cannot normalize")
    return FunctionalSample(waves.grid, waves.values / std, waves.label)
