"""Core types: grids, samples, and the trapezoid inner products."""

import numpy as np
import pytest

from fda2s import (
    FunctionalSample,
    Grid,
    Interval,
    SpectralDensity,
    TimeSeriesRecord,
    uniform_grid,
)
from fda2s.errors import DimensionMismatch, GridMismatch, NonFiniteValue
from fda2s.grids import sample_inner_products


def read_only(arr):
    arr.flags.writeable = False
    return arr


def inner(grid, f, g):
    """Trapezoid inner product of two functions on ``grid``, as a one-by-one score."""
    return float(sample_inner_products(FunctionalSample(grid, [f]), np.array([g]))[0, 0])


class TestInterval:
    def test_requires_a_below_b(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_length(self):
        assert Interval(0.0, 1800.0).length == 1800.0


class TestGrid:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.0, 1.0]))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.5]))

    def test_interval_derived_from_endpoints(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        assert g.interval == Interval(0.0, 1.0)

    def test_trapezoid_weights_sum_to_length(self):
        g = uniform_grid(Interval(2.0, 7.0), 37)
        assert np.isclose(g.weights.sum(), 5.0)

    def test_immutable(self):
        g = uniform_grid(Interval(0.0, 1.0), 5)
        with pytest.raises(ValueError):
            g.points[0] = 3.0


class TestMakeSample:
    def test_identity_construction(self):
        grid = Grid(np.array([0.0, 0.5, 1.0]))
        sample = FunctionalSample(grid, [[1.0, 1.0, 1.0]], "const")
        assert sample.n_curves == 1 and sample.label == "const"
        assert np.array_equal(sample.values[0], [1.0, 1.0, 1.0])

    def test_row_length_mismatch(self):
        grid = Grid(np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            FunctionalSample(grid, [[1.0, 2.0, 3.0]])

    def test_thirty_minute_record_at_1_28_hz(self):
        # 30 * 60 * 1.28 = 2304 samples
        grid = uniform_grid(Interval(0.0, 1800.0), 2304)
        sample = FunctionalSample(grid, np.zeros((1, 2304)))
        assert sample.n_curves == 1 and len(sample.grid) == 2304

    def test_rejects_non_finite(self):
        grid = Grid(np.array([0.0, 1.0]))
        with pytest.raises(NonFiniteValue):
            FunctionalSample(grid, [[np.nan, 1.0]])


class TestInnerProduct:
    def test_unit_square(self):
        grid = uniform_grid(Interval(0.0, 1.0), 11)
        assert inner(grid, np.ones(11), np.ones(11)) == pytest.approx(1.0, abs=1e-14)

    def test_sin_squared_half(self):
        grid = uniform_grid(Interval(0.0, 1.0), 1001)
        s = np.sin(2 * np.pi * grid.points)
        assert inner(grid, s, s) == pytest.approx(0.5, abs=1e-6)

    def test_against_fine_grid_oracle(self):
        # integral of t * t^2 over [0,1]: refine the quadrature independently
        fine = np.linspace(0.0, 1.0, 10**6 + 1)
        oracle = np.trapezoid(fine * fine**2, fine)
        grid = uniform_grid(Interval(0.0, 1.0), 101)
        assert inner(grid, grid.points, grid.points**2) == pytest.approx(oracle, abs=1e-4)

    def test_grid_mismatch(self):
        sample = FunctionalSample(uniform_grid(Interval(0.0, 1.0), 5), np.ones((1, 5)))
        with pytest.raises(GridMismatch):
            sample_inner_products(sample, np.ones((1, 6)))

    def test_symmetric_bilinear_nonnegative(self, rng):
        grid = uniform_grid(Interval(0.0, 2.0), 57)
        for _ in range(20):
            f, g, h = rng.normal(size=(3, 57))
            assert inner(grid, f, g) == pytest.approx(inner(grid, g, f), abs=1e-12)
            lhs = inner(grid, 2.0 * f + g, h)
            rhs = 2.0 * inner(grid, f, h) + inner(grid, g, h)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert inner(grid, f, f) >= 0.0

    def test_quadrature_second_order(self):
        # halving h must shrink the error by ~4 on a C^2 integrand
        exact = np.e - 1.0  # integral of e^t over [0,1]
        errors = []
        for n in (65, 129):
            grid = uniform_grid(Interval(0.0, 1.0), n)
            errors.append(abs(inner(grid, np.exp(grid.points), np.ones(n)) - exact))
        ratio = errors[0] / errors[1]
        assert 3.2 <= ratio <= 4.8


class TestFunctionalSample:
    def test_all_curves_share_grid(self):
        grid = uniform_grid(Interval(0.0, 1.0), 4)
        sample = FunctionalSample(grid, np.arange(12.0).reshape(3, 4))
        assert sample.grid is grid and sample.values.shape == (3, len(grid))
        with pytest.raises(ValueError):
            sample.values[0, 0] = 1.0

    def test_non_empty(self):
        grid = uniform_grid(Interval(0.0, 1.0), 4)
        with pytest.raises(DimensionMismatch):
            FunctionalSample(grid, np.empty((0, 4)))

    def test_keeps_only_owned_read_only_values(self):
        # the rule of every value type that keeps its array (`grids._frozen`)
        grid = uniform_grid(Interval(0.0, 1.0), 4)
        freq = uniform_grid(Interval(0.0, 3.0), 12)  # a spectrum's grid starts at 0
        holders = {
            "sample": (lambda a: FunctionalSample(grid, a).values, (3, 4), NonFiniteValue),
            "record": (lambda a: TimeSeriesRecord(1.28, a).values, (12,), NonFiniteValue),
            "spectrum": (lambda a: SpectralDensity(freq, a).values, (12,), ValueError),
        }
        for name, (hold, shape, non_finite) in holders.items():
            owned = read_only(np.arange(12.0).reshape(shape).copy())
            assert hold(owned) is owned, name
            # a writeable array and a read-only view are copied
            writeable = np.arange(12.0).reshape(shape).copy()
            view = read_only(owned.copy()[...])
            for values in (writeable, view):
                kept = hold(values)
                assert not np.shares_memory(kept, values) and kept.flags.c_contiguous, name
                assert np.array_equal(kept, values) and not kept.flags.writeable, name
            # kept values go through the finiteness check too
            with pytest.raises(non_finite, match="finite"):
                hold(read_only(np.full(shape, np.nan)))
        # a transposed array is copied C-contiguous
        columns = read_only(np.arange(12.0).reshape(4, 3).T.copy(order="F"))
        kept = FunctionalSample(grid, columns).values
        assert not np.shares_memory(kept, columns) and kept.flags.c_contiguous
        assert np.array_equal(kept, columns) and not kept.flags.writeable
