"""Clamped B-spline bases and least-squares projection onto them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from fda2s import FunctionalSample, Interval, equidistant_spec, to_bspline, uniform_grid
from fda2s.bsplines import basis_matrix, least_squares_fit
from fda2s.errors import IllConditioned, InvalidOrder, WrongInterval


def unit_grid(n=101):
    return uniform_grid(Interval(0.0, 1.0), n)


class TestSpecs:
    def test_sixty_one_sites_order_six(self):
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 61)
        assert spec.n_basis == 59 + 6
        assert spec.knots.size == 61 + 2 * 5

    def test_interior_nodes_count(self):
        assert equidistant_spec(Interval(0.0, 1.0), 5, 9).n_basis == 12

    def test_order_below_two_rejected(self):
        with pytest.raises(InvalidOrder):
            equidistant_spec(Interval(0.0, 1.0), 1, 10)

    def test_partition_of_unity(self):
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 61)
        B = basis_matrix(spec, unit_grid(257).points)
        assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-12


class TestToBspline:
    def test_reproduces_constants(self):
        grid = unit_grid()
        sample = FunctionalSample(grid, np.ones((1, len(grid))))
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 61)
        out = to_bspline(sample, spec)
        assert np.max(np.abs(out.values - 1.0)) < 1e-10

    def test_reproduces_lines_exactly(self):
        grid = unit_grid()
        sample = FunctionalSample(grid, grid.points[None, :])
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 61)
        out = to_bspline(sample, spec)
        assert np.max(np.abs(out.values - grid.points)) < 1e-9

    def test_least_squares_residual_matches_dense_oracle(self, rng):
        grid = unit_grid(201)
        noisy = np.sin(2 * np.pi * grid.points) + 0.1 * rng.normal(size=201)
        sample = FunctionalSample(grid, noisy[None, :])
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 61)
        out = to_bspline(sample, spec)
        residual = np.linalg.norm(out.values[0] - noisy)
        # independent dense least squares on the same design
        B = basis_matrix(spec, grid.points)
        coef, *_ = np.linalg.lstsq(B, noisy, rcond=None)
        oracle_residual = np.linalg.norm(B @ coef - noisy)
        assert residual <= oracle_residual + 1e-8

    def test_projection_idempotent(self, rng):
        grid = unit_grid(151)
        rows = rng.normal(size=(3, 151))
        sample = FunctionalSample(grid, rows)
        spec = equidistant_spec(Interval(0.0, 1.0), 5, 31)
        once = to_bspline(sample, spec)
        twice = to_bspline(once, spec)
        assert np.max(np.abs(twice.values - once.values)) < 1e-10

    def test_interval_must_match(self):
        grid = unit_grid()
        sample = FunctionalSample(grid, np.ones((1, len(grid))))
        spec = equidistant_spec(Interval(0.0, 2.0), 4, 11)
        with pytest.raises(WrongInterval):
            to_bspline(sample, spec)

    def test_overcomplete_basis_rejected(self):
        grid = unit_grid(21)
        sample = FunctionalSample(grid, np.ones((1, 21)))
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 61)
        with pytest.raises(IllConditioned):
            to_bspline(sample, spec)

    def test_ill_conditioned_normal_system_rejected(self):
        # 94 functions on 101 points: the normal matrix has condition ~5e14
        sample = FunctionalSample(unit_grid(), np.ones((1, 101)))
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 90)
        with pytest.raises(IllConditioned, match=r"exceeds 1e\+12"):
            to_bspline(sample, spec)


# The first knot-site count the fit rejects (more functions than points, or
# cond(D'D) above 1e12), on grids of 51, 101 and 151 points, orders 2 .. 8.
FIRST_REJECTED = {
    51: (52, 51, 50, 48, 45, 42, 39),
    101: (102, 101, 99, 94, 88, 82, 76),
    151: (152, 151, 148, 141, 132, 123, 114),
}


class TestLeastSquaresFit:
    @pytest.mark.parametrize("n_points", sorted(FIRST_REJECTED))
    @pytest.mark.parametrize("order", range(2, 9))
    def test_matches_a_dense_normal_equations_oracle(self, rng, n_points, order):
        # both solve the normal equations, so near the rejection boundary they
        # part by about eps * cond(D'D); at most 1e-13 where that is smaller
        x = np.linspace(0.0, 1.0, n_points)
        first_rejected = FIRST_REJECTED[n_points][order - 2]
        for n_sites in sorted({2, 3, 5, 9, 17, 33} & set(range(first_rejected))
                              | set(range(first_rejected - 3, first_rejected))):
            full = basis_matrix(equidistant_spec(Interval(0.0, 1.0), order, n_sites), x)
            for design in (full, full[:, 1:-1]):  # free and pinned end coefficients
                if not design.shape[1]:
                    continue
                values = rng.normal(size=(4, n_points))
                values[0] = np.sin(3.0 * x)
                got = least_squares_fit(design)(values)
                gram = design.T @ design
                want = values @ (design @ np.linalg.solve(gram, design.T)).T
                tol = max(1e-13, np.finfo(float).eps * np.linalg.cond(gram))
                err = np.max(np.abs(got - want), axis=1)
                assert np.all(err <= tol * np.max(np.abs(want), axis=1)), (n_sites, design.shape)
        with pytest.raises(IllConditioned):
            least_squares_fit(
                basis_matrix(equidistant_spec(Interval(0.0, 1.0), order, first_rejected), x))

    def test_fitted_rows_are_new_and_read_only(self, rng):
        design = basis_matrix(equidistant_spec(Interval(0.0, 1.0), 4, 11), unit_grid(41).points)
        values = rng.normal(size=(3, 41))
        fitted = least_squares_fit(design)(values)
        assert fitted.flags.owndata and fitted.flags.c_contiguous
        with pytest.raises(ValueError):
            fitted[0, 0] = 1.0
        assert not np.shares_memory(fitted, values)

    def test_fits_in_place_into_out(self, rng):
        design = basis_matrix(equidistant_spec(Interval(0.0, 1.0), 6, 21), unit_grid(101).points)
        fit = least_squares_fit(design[:, 1:-1])
        values = rng.normal(size=(9, 101))
        want = fit(values.copy())
        fitted = fit(values, out=values)
        assert fitted is values and not values.flags.writeable
        assert fitted.tobytes() == want.tobytes()
        into = np.empty((9, 101))
        assert fit(want, out=into) is into and into.tobytes() == fit(want).tobytes()


class TestBasisMatrix:
    @settings(max_examples=100)
    @given(
        order=st.integers(2, 6),
        n_sites=st.integers(2, 61),
        a=st.floats(-100.0, 100.0),
        length=st.floats(1e-3, 1e3),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=40),
    )
    def test_matches_scipy_design_matrix(self, order, n_sites, a, length, fractions):
        spec = equidistant_spec(Interval(a, a + length), order, n_sites)
        lo, hi = spec.knots[0], spec.knots[-1]
        # every knot (both endpoints among them) and points anywhere in between
        x = np.concatenate([spec.knots, np.clip(lo + np.array(fractions) * length, lo, hi)])
        oracle = BSpline.design_matrix(x, spec.knots, spec.degree, extrapolate=False)
        np.testing.assert_array_equal(basis_matrix(spec, x), oracle.toarray())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9, 1.0 + 1e-9])
    def test_bad_points_rejected(self, bad):
        spec = equidistant_spec(Interval(0.0, 1.0), 6, 61)
        with pytest.raises(ValueError):
            basis_matrix(spec, [0.0, bad, 0.5])
