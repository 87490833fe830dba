"""The quadratic-form statistic: scores, eta, pooled covariance, chi-square."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammainccinv
from scipy.stats import chi2

from fda2s import (
    BasisSpec,
    FunctionalSample,
    Interval,
    chi_square_isf,
    chi_square_sf,
    indicator_basis,
    qn_statistic,
    quantile_table,
    score_matrix,
    uniform_grid,
)
from fda2s import qn
from fda2s.bsplines import CONDITION_BOUND
from fda2s.errors import DimensionMismatch, InvalidDF, SingularCovariance, TooFewCurves
from fda2s.qn import qn_batch

from conftest import random_sample_pair, smooth_curves


def oracle_qn(grid_points, x_rows, y_rows, g_rows):
    """Monolithic re-implementation: raw curves to qn in one routine."""
    grid_points = np.asarray(grid_points, dtype=float)
    w = np.zeros(grid_points.size)
    d = np.diff(grid_points)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0

    def scores(rows):
        return np.array(
            [[float(np.sum(w * xi * gj)) for gj in g_rows] for xi in rows]
        )

    sx, sy = scores(x_rows), scores(y_rows)
    m, n = len(x_rows), len(y_rows)
    eta = (np.sqrt(m + n) / m) * sx.sum(axis=0) - (np.sqrt(m + n) / n) * sy.sum(axis=0)
    cx = np.atleast_2d(np.cov(sx.T, ddof=1))
    cy = np.atleast_2d(np.cov(sy.T, ddof=1))
    alpha2, beta2 = (m + n) / m, (m + n) / n
    pooled = (alpha2 + beta2) / (m + n - 2) * ((m - 1) * cx + (n - 1) * cy)
    return float(eta @ np.linalg.inv(pooled) @ eta)


def solve_oracle(scores, m):
    """eta' C^-1 eta of every matrix in a (C, N, k) score stack by a plain linear solve."""
    out = []
    for s in scores:
        sx, sy = s[:m], s[m:]
        n = sy.shape[0]
        eta = (np.sqrt(m + n) / m) * sx.sum(axis=0) - (np.sqrt(m + n) / n) * sy.sum(axis=0)
        cx = np.atleast_2d(np.cov(sx.T, ddof=1))
        cy = np.atleast_2d(np.cov(sy.T, ddof=1))
        pooled = ((m + n) / m + (m + n) / n) / (m + n - 2) * ((m - 1) * cx + (n - 1) * cy)
        out.append(eta @ np.linalg.solve(pooled, eta))
    return np.array(out)


class TestScoreMatrix:
    def test_constant_and_line_against_half_interval_indicators(self):
        # need a fine grid: the sampled indicator's jump costs h/2 in the quadrature
        grid = uniform_grid(Interval(0.0, 1.0), 10**6 + 1)
        rows = np.vstack([np.ones(len(grid)), grid.points])
        sample = FunctionalSample(grid, rows)
        g = indicator_basis(Interval(0.0, 1.0), 2, grid)
        s = score_matrix(sample, g)
        assert np.allclose(s, [[0.5, 0.5], [0.125, 0.375]], atol=1e-6)

    def test_matches_bruteforce_quadrature(self, rng):
        x, _ = random_sample_pair(rng, m=5, n=2)
        g = BasisSpec.parse("trig:k=3,parts=both").build(x)
        s = score_matrix(x, g)
        w = np.zeros(len(x.grid))
        d = np.diff(x.grid.points)
        w[:-1] += d / 2
        w[1:] += d / 2
        brute = np.array(
            [[np.sum(w * xi * gj) for gj in g.functions] for xi in x.values]
        )
        assert np.max(np.abs(s - brute)) < 1e-10


def eta_and_pooled(sx, sy):
    """The eta vector and pooled covariance `qn_statistic` hands to `quadratic_form`."""
    seen = []
    original = qn.quadratic_form

    def spy(eta, cov):
        seen.append((eta[0], cov[0]))
        return original(eta, cov)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qn, "quadratic_form", spy)
        try:
            qn_statistic(sx, sy)
        except SingularCovariance:
            pass
    return seen[0]


class TestEtaVector:
    def test_identical_samples_give_zero(self, rng):
        x, _ = random_sample_pair(rng)
        g = indicator_basis(x.interval, 3, x.grid)
        s = score_matrix(x, g)
        eta, _ = eta_and_pooled(s, s)
        assert np.allclose(eta, 0.0, atol=1e-12)

    def test_single_curves(self):
        with pytest.raises(TooFewCurves):
            qn_statistic([[1.0]], [[0.0]])

    def test_two_term_display_formula(self, rng):
        sx = rng.normal(size=(2, 3))
        sy = rng.normal(size=(3, 3))
        eta, _ = eta_and_pooled(sx, sy)
        root = np.sqrt(5.0)
        explicit = root / 2 * sx.sum(axis=0) - root / 3 * sy.sum(axis=0)
        assert np.allclose(eta, explicit, atol=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qn_statistic([[1.0, 2.0], [0.0, 1.0]], [[1.0], [2.0]])
        with pytest.raises(DimensionMismatch):
            qn_statistic([1.0, 2.0, 3.0], [[1.0], [2.0]])


class TestPooledCovariance:
    def test_zero_variance_gives_zero_matrix(self):
        sx = [[1.0], [1.0]]
        sy = [[2.0], [2.0]]
        _, cov = eta_and_pooled(sx, sy)
        assert np.allclose(cov, 0.0)
        with pytest.raises(SingularCovariance):
            qn_statistic(sx, sy)

    def test_hand_example(self):
        _, cov = eta_and_pooled([[0.0], [2.0]], [[0.0], [2.0]])
        assert cov[0, 0] == pytest.approx(8.0)

    def test_symmetric_psd_on_random_scores(self, rng):
        for _ in range(10):
            _, c = eta_and_pooled(rng.normal(size=(6, 3)), rng.normal(size=(5, 3)))
            assert np.max(np.abs(c - c.T)) < 1e-12
            assert np.linalg.eigvalsh(c).min() >= -1e-10 * np.trace(c)

    def test_too_few_curves(self):
        with pytest.raises(TooFewCurves):
            qn_statistic([[1.0]], [[1.0], [2.0]])

    def test_rank_deficiency_is_singular(self, rng):
        # m + n - 2 = 2 < k = 4: the pooled covariance has rank 2 at most
        with pytest.raises(SingularCovariance, match="1e\\+12"):
            qn_statistic(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))

    def test_singular_message_names_the_condition_number(self, rng):
        # the third score column nearly repeats the first: cond ~ 5e12, known
        # to a few digits only, as the smallest eigenvalue is ~1e-12 of the largest
        sx, sy = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
        for s in (sx, sy):
            s[:, 2] = s[:, 0] + 1e-6 * s[:, 2]
        centered = [s - s.mean(axis=0) for s in (sx, sy)]
        expected = np.linalg.cond(sum(c.T @ c for c in centered))
        assert expected > 1e12
        with pytest.raises(SingularCovariance) as info:
            qn_statistic(sx, sy)
        value = float(re.search(r"condition number ([^)\s]+)\)", str(info.value)).group(1))
        assert value == pytest.approx(expected, rel=1e-2)
        with pytest.raises(SingularCovariance, match=r"condition number (\d\.\d{3}e\+\d+|inf)"):
            qn_statistic(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))


class TestQnStatistic:
    def test_identical_samples(self, rng):
        x, _ = random_sample_pair(rng, m=4, n=4)
        g = indicator_basis(x.interval, 2, x.grid)
        s = score_matrix(x, g)
        res = qn_statistic(s, s)
        assert res.qn == pytest.approx(0.0, abs=1e-12)
        assert res.p_asymptotic == pytest.approx(1.0)

    def test_hand_example_half(self):
        # eta = 2 (1 - 2) = -2 and pooled covariance (2 + 2) / 2 * (2 + 2) = 8
        res = qn_statistic([[0.0], [2.0]], [[1.0], [3.0]])
        assert res.qn == pytest.approx(0.5, rel=1e-12)
        assert (res.k, res.m, res.n) == (1, 2, 2)

    def test_monolithic_oracle_five_vs_four(self, rng):
        x, y = random_sample_pair(rng, m=5, n=4)
        joint = FunctionalSample(x.grid, np.vstack([x.values, y.values]))
        g = BasisSpec.parse("trig:k=3,parts=both").build(joint)
        res = qn_statistic(score_matrix(x, g), score_matrix(y, g))
        expected = oracle_qn(x.grid.points, x.values, y.values, g.functions)
        assert res.qn == pytest.approx(expected, rel=1e-10)

    def test_singular_covariance(self):
        # two perfectly collinear score columns
        base = np.array([[0.0], [1.0], [2.0], [3.0]])
        scores = np.hstack([base, 2 * base])
        with pytest.raises(SingularCovariance):
            qn_statistic(scores[:2], scores[2:])


class TestInvariances:
    def test_sample_swap(self, rng):
        for _ in range(50):
            x, y = random_sample_pair(rng, m=6, n=5)
            g = indicator_basis(x.interval, 3, x.grid)
            sx, sy = score_matrix(x, g), score_matrix(y, g)
            a = qn_statistic(sx, sy).qn
            b = qn_statistic(sy, sx).qn
            assert a == pytest.approx(b, abs=1e-10, rel=1e-10)

    def test_location_shift(self, rng):
        for _ in range(50):
            x, y = random_sample_pair(rng, m=6, n=5)
            g = BasisSpec.parse("bspline:order=3,interior=0").build(x)
            shift = smooth_curves(rng, 1, x.grid)[0]
            xs = FunctionalSample(x.grid, x.values + shift)
            ys = FunctionalSample(y.grid, y.values + shift)
            a = qn_statistic(score_matrix(x, g), score_matrix(y, g)).qn
            b = qn_statistic(score_matrix(xs, g), score_matrix(ys, g)).qn
            assert a == pytest.approx(b, abs=1e-9, rel=1e-9)

    def test_basis_recombination(self, rng):
        for _ in range(50):
            x, y = random_sample_pair(rng, m=7, n=6)
            g = indicator_basis(x.interval, 3, x.grid)
            sx, sy = score_matrix(x, g), score_matrix(y, g)
            while True:
                T = rng.normal(size=(3, 3))
                if np.linalg.cond(T) <= 1e6:
                    break
            a = qn_statistic(sx, sy).qn
            b = qn_statistic(sx @ T, sy @ T).qn
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)

    def test_permutation_within_sample(self, rng):
        for _ in range(50):
            x, y = random_sample_pair(rng, m=8, n=5)
            g = indicator_basis(x.interval, 2, x.grid)
            xp = FunctionalSample(x.grid, x.values[rng.permutation(8)])
            a = qn_statistic(score_matrix(x, g), score_matrix(y, g)).qn
            b = qn_statistic(score_matrix(xp, g), score_matrix(y, g)).qn
            assert a == pytest.approx(b, abs=1e-9, rel=1e-9)

    def test_monotone_p_in_qn(self):
        qs = np.arange(0.0, 12.0, 0.5)
        ps = [chi_square_sf(float(q), 3) for q in qs]
        assert np.all(np.diff(ps) < 0)


class TestQnBatch:
    def test_matches_qn_statistic_per_matrix(self, rng):
        for m, n, k in [(2, 2, 1), (5, 4, 3), (10, 10, 8), (3, 12, 6)]:
            scores = rng.normal(size=(7, m + n, k)) * rng.uniform(0.1, 10.0, k)
            want = solve_oracle(scores, m)
            got = qn_batch(scores, m)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(want, 1.0))
            alone = [qn_statistic(s[:m], s[m:]).qn for s in scores]
            assert np.array_equal(alone, got)

    def test_singular_matrices_give_nan(self, rng):
        scores = rng.normal(size=(4, 9, 3))
        scores[1, :, 2] = scores[1, :, 0]  # two equal columns: singular
        scores[3] = 1.0  # no spread at all
        scores[2, :, 1] = scores[2, :, 0] * (1.0 + 1e-9)  # condition ~1e19
        got = qn_batch(scores, 4)
        assert np.array_equal(np.isnan(got), [False, True, True, True])
        for s in scores[1:]:
            with pytest.raises(SingularCovariance):
                qn_statistic(s[:4], s[4:])

    def test_the_condition_bound_rejects_one_matrix_of_a_stack(self, rng):
        # centred score columns of 4 curves, exactly orthogonal: a pooled
        # covariance proportional to diag(s1^2, s2^2), of condition (s2 / s1)^2
        columns = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]]).T

        def conditioned(cond):
            scale = np.array([1.0, np.sqrt(cond)])
            shift = np.array([[0.3, 0.2], [0.0, 0.0]]) * scale  # the means of x and y
            return np.vstack([columns * scale + shift[0], columns * scale + shift[1]])

        scores = rng.normal(size=(5, 8, 2))
        scores[1] = conditioned(CONDITION_BOUND * (1.0 + 1e-6))
        scores[3] = conditioned(CONDITION_BOUND * (1.0 - 1e-6))
        got = qn_batch(scores, 4)
        assert np.array_equal(np.isnan(got), [False, True, False, False, False])
        kept = [0, 2, 3, 4]
        alone = [qn_batch(scores[i:i + 1], 4)[0] for i in kept]
        assert np.array_equal(got[kept], alone)
        want = solve_oracle(scores[kept], 4)
        assert np.all(np.abs(got[kept] - want) <= 1e-10 * np.maximum(want, 1.0))

    def test_nonfinite_scores_rejected(self, rng):
        scores = rng.normal(size=(2, 6, 2))
        scores[1, 3, 0] = np.inf
        with pytest.raises(ValueError):
            qn_batch(scores, 3)


@st.composite
def score_stacks(draw):
    """A (C, N, k) stack of well-spread random scores and the split size m."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(2, 8))
    n = draw(st.integers(max(2, k + 1 - m + 2), 10))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** data.uniform(-2, 2, k)
    return data.normal(size=(3, m + n, k)) * scale, m, data


INVARIANCE = settings(max_examples=60)


def both_statistics(scores, m):
    return solve_oracle(scores, m), qn_batch(scores, m)


def assert_same_qn(got, want, rtol):
    assert np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), 1.0))


class TestInvarianceProperties:
    """Qn is a function of the two samples' score clouds up to affine maps."""

    @INVARIANCE
    @given(score_stacks())
    def test_sample_swap(self, stack):
        scores, m, _ = stack
        swapped = np.concatenate([scores[:, m:], scores[:, :m]], axis=1)
        n = scores.shape[1] - m
        for before, after in zip(both_statistics(scores, m), both_statistics(swapped, n)):
            assert_same_qn(after, before, 1e-10)

    @INVARIANCE
    @given(score_stacks())
    def test_common_shift(self, stack):
        scores, m, data = stack
        shift = data.normal(size=scores.shape[2]) * 10.0 * scores.std(axis=(0, 1))
        for before, after in zip(both_statistics(scores, m),
                                 both_statistics(scores + shift, m)):
            assert_same_qn(after, before, 1e-9)

    @INVARIANCE
    @given(score_stacks())
    def test_invertible_recombination(self, stack):
        scores, m, data = stack
        k = scores.shape[2]
        while True:
            B = data.normal(size=(k, k))
            if np.linalg.cond(B) <= 1e3:
                break
        # mixes columns of unequal scale into ones of comparable scale
        A = B / scores.std(axis=(0, 1))[:, None]
        for before, after in zip(both_statistics(scores, m),
                                 both_statistics(scores @ A, m)):
            assert_same_qn(after, before, 1e-8)


class TestNullCalibration:
    def test_rejection_rate_at_five_percent(self):
        # two samples of 100 curves from one smooth Gaussian law, 500 replicates
        rng = np.random.default_rng(7)
        grid = uniform_grid(Interval(0.0, 1.0), 64)
        g = indicator_basis(grid.interval, 2, grid)
        rejections = 0
        for _ in range(500):
            rows = smooth_curves(rng, 200, grid)
            x = FunctionalSample(grid, rows[:100])
            y = FunctionalSample(grid, rows[100:])
            res = qn_statistic(score_matrix(x, g), score_matrix(y, g))
            rejections += res.p_asymptotic <= 0.05
        rate = rejections / 500
        assert 0.03 <= rate <= 0.08


class TestChiSquare:
    def test_table_values(self):
        assert chi_square_sf(4.605, 2) == pytest.approx(0.10, abs=1e-4)
        assert chi_square_sf(21.026, 12) == pytest.approx(0.050, abs=5e-4)
        assert chi_square_sf(0.0, 5) == 1.0

    def test_matches_scipy_chi2(self):
        for k in (1, 2, 5, 12):
            for q in (0.1, 1.0, 5.0, 30.0, 900.0):
                assert chi_square_sf(q, k) == pytest.approx(
                    float(chi2.sf(q, k)), abs=1e-10
                )

    def test_inverse_round_trip(self):
        for k in (1, 2, 8, 12):
            for p in (0.5, 0.1, 0.05, 0.025, 0.01):
                q = chi_square_isf(p, k)
                assert chi_square_sf(q, k) == pytest.approx(p, rel=1e-9)

    def test_invalid_df(self):
        with pytest.raises(InvalidDF):
            chi_square_sf(1.0, 0)
        with pytest.raises(InvalidDF):
            chi_square_isf(0.5, -2)
        with pytest.raises(InvalidDF):  # True would be 1 degree of freedom
            chi_square_sf(3.0, True)
        with pytest.raises(InvalidDF):
            quantile_table(np.linspace(1.0, 2.0, 200), k=True)


def _tail_points(k):
    """q from 1e-6 to where the chi-square tail (scipy's) falls to 1e-290."""
    q_max = 2.0 * float(gammainccinv(k / 2.0, 1e-290))
    q = np.concatenate([np.geomspace(1e-6, q_max, 120), np.linspace(0.0, q_max, 61)[1:]])
    return [float(v) for v in q]


INVERSE_LEVELS = np.concatenate([np.geomspace(1e-280, 0.5, 40), np.linspace(0.01, 0.99, 25),
                                 1.0 - np.geomspace(1e-15, 0.5, 20)])


class TestChiSquareClosedForm:
    """The finite-sum tail and its bisection inverse against scipy.special."""

    @pytest.mark.parametrize("k", list(range(1, 41)) + [61, 99, 121, 240, 481, 600])
    def test_tail_matches_gammaincc(self, k):
        q = _tail_points(k)
        got = np.array([chi_square_sf(v, k) for v in q])
        ref = gammaincc(k / 2.0, np.array(q) / 2.0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_tail_does_not_underflow(self):
        # exp(-x) times the recurrence would give 0 here
        p = chi_square_sf(1530.0, 481)
        assert p == pytest.approx(float(gammaincc(240.5, 765.0)), rel=1e-12)
        assert 1e-110 < p < 1e-108

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 40, 121, 481, 600])
    def test_inverse_matches_gammainccinv(self, k):
        p = INVERSE_LEVELS
        got = np.array([chi_square_isf(float(v), k) for v in p])
        np.testing.assert_allclose(got, 2.0 * gammainccinv(k / 2.0, p), rtol=1e-12, atol=0.0)
        back = np.array([chi_square_sf(v, k) for v in got])
        np.testing.assert_allclose(back, p, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 40, 121, 481])
    def test_inverse_is_the_crossing_double(self, k):
        # q is the first double past the computed tail's crossing of p (the
        # lower tail's crossing of 1 - p for p > 1/2), not just near it
        for p in map(float, INVERSE_LEVELS):
            q = chi_square_isf(p, k)
            below = math.nextafter(q, 0.0)
            if p <= 0.5:
                assert chi_square_sf(q, k) <= p < chi_square_sf(below, k), (p, q)
            else:
                assert qn._chi_square_cdf(below, k) <= 1.0 - p < qn._chi_square_cdf(q, k), (p, q)

    def test_edges(self):
        assert chi_square_sf(0.0, 1) == 1.0
        assert chi_square_sf(0.0, 600) == 1.0
        assert chi_square_sf(np.inf, 1) == 0.0
        assert chi_square_sf(np.inf, 600) == 0.0
        assert chi_square_isf(1.0, 4) == 0.0
        for k in (1, 2):
            with pytest.raises(ValueError, match="NaN"):
                chi_square_sf(np.nan, k)
        with pytest.raises(ValueError):
            chi_square_sf(-1e-300, 3)
        for p in (0.0, 1.5, np.nan):
            with pytest.raises(ValueError):
                chi_square_isf(p, 3)
