"""Permutation splits, the spectral MC null, p-values, and quantile tables."""

import functools
import inspect
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from fda2s import (
    BSplineSpec,
    BasisSpec,
    FunctionalSample,
    Interval,
    RegistrationSpec,
    SimConfig,
    TimeSeriesRecord,
    average_spectrum,
    bspline_basis_g,
    chi_square_isf,
    chi_square_sf,
    concatenate_samples,
    equidistant_spec,
    estimate_spectrum,
    fourier_coefficients,
    indicator_basis,
    pca_basis,
    permutation_null,
    permutation_pvalue,
    qn_statistic,
    quantile_table,
    run_test,
    simulate_gaussian,
    spectral_mc_null,
    spectra_to_sample,
    torsethaugen_spectrum,
    TorsethaugenParams,
    default_frequency_grid,
    uniform_grid,
)
from fda2s import cli, resampling, runner, sea
from fda2s.errors import (
    FdaError,
    GridMismatch,
    InvalidParams,
    RecordTooShort,
    SingularCovariance,
    TooFewCurves,
    TooFewReplicates,
    WrongInterval,
)
from fda2s.grids import sample_inner_products
from fda2s.io import format_test_result, write_functional_sample
from fda2s.projections import GVector, trig_g_functions
from fda2s.resampling import (PERMUTATION_CHUNK, SPECTRAL_MC_CHUNK, NullDistribution,
                              _SplitStatistic)
from fda2s.rng import substream
from fda2s.sea import (GaussianSynthesizer, SpectralDensity, estimate_spectra, estimator_grid,
                       parzen_estimates, sample_count)

from conftest import eigh_pca_oracle, permutation_report, smooth_curves


def gaussian_joint(rng, n_curves=40, n_points=41):
    grid = uniform_grid(Interval(0.0, 1.0), n_points)
    return FunctionalSample(grid, smooth_curves(rng, n_curves, grid), "joint")


class TestPermutationNull:
    @pytest.mark.parametrize("m,B,error", [
        (20, 0, ValueError), (1, 5, TooFewCurves), (39, 5, TooFewCurves),
    ])
    def test_no_replicate_or_a_group_of_one_rejected(self, rng, monkeypatch, m, B, error):
        joint = gaussian_joint(rng)
        g = BasisSpec("trig", {"k": 3}).build(joint)
        # the group sizes are checked before any replicate is drawn
        monkeypatch.setattr(resampling, "substream", None)
        with pytest.raises(error):
            permutation_null(joint, g, m, B, 1)

    @pytest.mark.parametrize("B", [2.5, 5.0, "5"])
    def test_replicate_count_that_is_not_an_integer_rejected(self, rng, B):
        joint = gaussian_joint(rng)
        with pytest.raises(ValueError, match=f"^B must be an integer, got {B!r}$"):
            permutation_null(joint, BasisSpec("trig", {"k": 3}).build(joint), 20, B, 1)

    def test_numpy_integer_replicate_count_accepted(self, rng):
        joint = gaussian_joint(rng)
        g = BasisSpec("trig", {"k": 3}).build(joint)
        assert np.array_equal(permutation_null(joint, g, 20, np.int64(5), 1).values,
                              permutation_null(joint, g, 20, 5, 1).values)

    def test_seed_that_is_not_an_integer_rejected(self, rng):
        # 1.5 would otherwise draw seed 1's splits and be reported as 1.5
        joint = gaussian_joint(rng, n_curves=12)
        x, y = (FunctionalSample(joint.grid, rows) for rows in (joint.values[:6],
                                                               joint.values[6:]))
        with pytest.raises(ValueError, match="got 1.5"):
            run_test(x, y, BasisSpec.parse("indicator:k=2"), "permutation", B=5, seed=1.5)

    def test_single_replicate_finite(self, rng):
        joint = gaussian_joint(rng)
        null = permutation_null(joint, BasisSpec("trig", {"k": 3}).build(joint), 20, 1, 3)
        assert null.values.shape == (1,)
        assert np.isfinite(null.values[0]) and null.values[0] >= 0.0

    def test_same_seed_same_sequence(self, rng):
        joint = gaussian_joint(rng)
        g = BasisSpec("indicator", {"k": 2}).build(joint)
        a = permutation_null(joint, g, 25, 50, 12)
        b = permutation_null(joint, g, 25, 50, 12)
        assert np.array_equal(a.values, b.values)

    def test_report_is_built_without_threads(self, rng):
        # the report's p-value is the null's, which runs on one thread
        joint = gaussian_joint(rng)
        x, y = (FunctionalSample(joint.grid, rows) for rows in np.split(joint.values, [20]))
        basis = BasisSpec("pca", {"d": 2})
        report = json.loads(permutation_report(x, y, basis, 64, 9))
        null = permutation_null(joint, basis.build(joint), 20, 64, 9)
        assert report["p_resampled"] == permutation_pvalue(null.observed, null.values)

    def test_null_quantiles_near_chi2(self, rng):
        # synthetic Gaussian-curve joint sample, trig k=2, m=n=100
        joint = gaussian_joint(rng, n_curves=200, n_points=33)
        null = permutation_null(joint, BasisSpec("trig", {"k": 3}).build(joint), 100, 2000, 4)
        emp = np.quantile(null.values, [0.5, 0.9, 0.95])
        ref = np.array([1.386, 4.605, 5.992])
        assert np.max(np.abs(emp - ref) / ref) < 0.08

    def test_data_driven_g_rebuild_gives_identical_qn(self, rng):
        # averages of |coefficients| depend only on the pooled set, so
        # rebuilding the g-functions from a relabeled sample changes nothing
        joint = gaussian_joint(rng, n_curves=30)
        g_once = trig_g_functions(joint, 3)
        scores = sample_inner_products(joint, g_once.functions)
        from fda2s.rng import substream

        for r in range(5):
            perm = substream(77, r).permutation(30)
            relabeled = FunctionalSample(joint.grid, joint.values[perm])
            g_rebuilt = trig_g_functions(relabeled, 3)
            s2 = sample_inner_products(relabeled, g_rebuilt.functions)
            q1 = qn_statistic(scores[perm][:18], scores[perm][18:]).qn
            q2 = qn_statistic(s2[:18], s2[18:]).qn
            assert q1 == pytest.approx(q2, abs=1e-10, rel=1e-10)

    def test_too_many_failures_raise(self, rng):
        # k = 8 indicators from 3+3 curves: every replicate is singular
        joint = gaussian_joint(rng, n_curves=6)
        with pytest.raises(SingularCovariance):
            permutation_null(joint, BasisSpec("indicator", {"k": 8}).build(joint), 3, 20, 1)

    def test_projection_functions_on_another_grid_rejected(self, rng):
        # same point count as the sample's [0, 1] grid, but on [0, 2]
        joint = gaussian_joint(rng, n_curves=12)
        other = uniform_grid(Interval(0.0, 2.0), len(joint.grid))
        g = BasisSpec.parse("indicator:k=2").build(FunctionalSample(other, joint.values))
        with pytest.raises(GridMismatch):
            permutation_null(joint, g, 6, 5, 1)

    def test_super_uniform_under_exchangeability(self):
        rng = np.random.default_rng(314)
        grid = uniform_grid(Interval(0.0, 1.0), 25)
        hits = 0
        for i in range(200):
            joint = FunctionalSample(grid, smooth_curves(rng, 40, grid))
            g = trig_g_functions(joint, 3)
            null = permutation_null(joint, g, 25, 99, 9000 + i)
            scores = sample_inner_products(joint, g.functions)
            observed = qn_statistic(scores[:25], scores[25:]).qn
            hits += permutation_pvalue(observed, null.values) <= 0.05
        assert 0.02 <= hits / 200 <= 0.09


def per_replicate_null(joint, basis, m, B, seed):
    """Oracle: replicate r is qn_statistic on the split drawn from substream(seed, r)."""
    scores = sample_inner_products(joint, basis.build(joint).functions)
    values = []
    for r in range(B):
        perm = substream(seed, r).permutation(joint.n_curves)
        values.append(
            qn_statistic(scores[perm[:m]], scores[perm[m:]]).qn
        )
    return np.array(values)


def assert_matches_oracle(values, oracle):
    # relative to the chi-square scale, as for the statistic itself
    assert values.shape == oracle.shape
    assert np.all(np.abs(values - oracle) <= 1e-10 * np.maximum(np.abs(oracle), 1.0))


@st.composite
def small_problems(draw):
    """Random joint sample (N <= 40), indicator basis (k <= 4), split size and seed."""
    k = draw(st.integers(1, 4))
    n_curves = draw(st.integers(k + 6, 40))
    m = draw(st.integers(2, n_curves - 2))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = uniform_grid(Interval(0.0, 1.0), 17)
    joint = FunctionalSample(grid, data.normal(size=(n_curves, 17)), "joint")
    seed = draw(st.integers(0, 2**63 - 1))
    return joint, BasisSpec("indicator", {"k": k}), m, seed


PROPERTY = settings(max_examples=40)


class TestClosedFormNull:
    @PROPERTY
    @given(small_problems(), st.integers(1, 60))
    def test_matches_per_replicate_oracle(self, problem, B):
        joint, basis, m, seed = problem
        null = permutation_null(joint, basis.build(joint), m, B, seed)
        assert null.n_failed == 0
        assert_matches_oracle(null.values, per_replicate_null(joint, basis, m, B, seed))

    @PROPERTY
    @given(small_problems())
    def test_same_x_index_set_bit_identical(self, problem):
        joint, basis, m, seed = problem
        scores = sample_inner_products(joint, basis.build(joint).functions)
        split = _SplitStatistic(scores, m)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(joint.n_curves)
        others = [rng.permutation(joint.n_curves)[:m] for _ in range(5)]
        values = split.values(np.array([perm[:m], *others, rng.permutation(perm[:m])]))
        assert values[0].tobytes() == values[-1].tobytes()

    def test_singular_split_fails_where_the_direct_evaluation_fails(self):
        # split {0,1,2} vs {3,4,5} has zero within-sample scatter
        scores = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        values = _SplitStatistic(scores, 3).values(np.array([[0, 1, 2], [5, 3, 4], [0, 1, 3]]))
        assert np.isnan(values[0]) and np.isnan(values[1])
        for x in ([0, 1, 2], [3, 4, 5]):
            y = [i for i in range(6) if i not in x]
            with pytest.raises(SingularCovariance):
                qn_statistic(scores[x], scores[y])
        direct = qn_statistic(scores[[0, 1, 3]], scores[[2, 4, 5]])
        assert values[2] == pytest.approx(direct.qn, rel=1e-12)

    @settings(PROPERTY, max_examples=10)
    @given(small_problems(), st.integers(1, PERMUTATION_CHUNK - 1))
    def test_partial_last_chunk_matches_oracle_at_any_thread_count(self, problem, extra):
        joint, basis, m, seed = problem
        B = PERMUTATION_CHUNK + extra
        oracle = per_replicate_null(joint, basis, m, B, seed)
        null = permutation_null(joint, basis.build(joint), m, B, seed)
        assert_matches_oracle(null.values, oracle)
        x, y = (FunctionalSample(joint.grid, rows) for rows in np.split(joint.values, [m]))
        permutation_report(x, y, basis, B, seed)  # builds no thread pool

    @settings(PROPERTY, max_examples=5)
    @given(small_problems())
    def test_values_bit_identical_to_per_replicate_substreams(self, problem):
        joint, basis, m, seed = problem
        B = 2 * PERMUTATION_CHUNK + 5
        g = basis.build(joint)
        split = _SplitStatistic(sample_inner_products(joint, g.functions), m)
        x_rows = np.array(
            [substream(seed, r).permutation(joint.n_curves)[:m] for r in range(B)]
        )
        expected = split.values(x_rows)
        null = permutation_null(joint, g, m, B, seed)
        assert null.n_failed == 0
        assert null.values.tobytes() == expected.tobytes()


    @PROPERTY
    @given(small_problems())
    def test_a_lone_split_gives_the_bits_it_gives_in_a_batch(self, problem):
        joint, basis, m, seed = problem
        split = _SplitStatistic(sample_inner_products(joint, basis.build(joint).functions), m)
        rng = np.random.default_rng(seed)
        rows = np.array([rng.permutation(joint.n_curves)[:m] for _ in range(7)])
        batch = split.values(rows)
        for i, row in enumerate(rows):
            assert split.values(row[None, :]).tobytes() == batch[i:i + 1].tobytes()

    @PROPERTY
    @given(small_problems())
    def test_a_split_and_its_mirror_give_the_same_bits_when_m_equals_n(self, problem):
        joint, basis, _, seed = problem
        N = joint.n_curves - joint.n_curves % 2
        scores = sample_inner_products(joint, basis.build(joint).functions)[:N]
        perm = np.random.default_rng(seed).permutation(N)
        values = _SplitStatistic(scores, N // 2).values(np.array([perm[:N // 2], perm[N // 2:]]))
        assert values[0].tobytes() == values[1].tobytes()


class TestPermutationWorkspace:
    """One permutation buffer per call and the statistic's one mask serve every chunk."""

    @staticmethod
    def split_of(joint, m):
        return _SplitStatistic(
            sample_inner_products(joint, BasisSpec("trig", {"k": 3}).build(joint).functions), m)

    @pytest.mark.parametrize("B", [1, 255, 256, 257, 513])
    @pytest.mark.parametrize("m", [20, 27])  # of 40 curves: m = n, and m != n
    def test_values_match_a_fresh_allocation_run(self, rng, B, m):
        # chunk edges, and the lone split of B = 1 and B = 257; a fresh
        # statistic, and so a fresh mask, for every chunk and the observed split
        joint = gaussian_joint(rng)
        g = BasisSpec("trig", {"k": 3}).build(joint)
        x_rows = np.array([substream(11, r).permutation(joint.n_curves)[:m] for r in range(B)])
        fresh = np.concatenate([self.split_of(joint, m).values(x_rows[s:s + PERMUTATION_CHUNK])
                                for s in range(0, B, PERMUTATION_CHUNK)])
        null = permutation_null(joint, g, m, B, 11)
        assert null.n_failed == 0
        assert null.values.tobytes() == fresh.tobytes()
        [observed] = self.split_of(joint, m).values(np.arange(m)[None, :])
        assert null.observed == observed

    @pytest.mark.parametrize("m", [20, 27])
    def test_values_leave_the_mask_all_false(self, rng, m):
        joint = gaussian_joint(rng)
        N = joint.n_curves
        split = self.split_of(joint, m)
        x_rows = np.array([rng.permutation(N)[:m] for _ in range(2 * PERMUTATION_CHUNK + 3)])
        chunked = [split.values(x_rows[s:s + PERMUTATION_CHUNK])
                   for s in range(0, x_rows.shape[0], PERMUTATION_CHUNK)]
        assert split._mask.shape == (PERMUTATION_CHUNK, N) and not split._mask.any()
        # more rows than a chunk: the mask grows, and every value keeps its bits
        whole = split.values(x_rows)
        assert split._mask.shape == (x_rows.shape[0], N) and not split._mask.any()
        assert whole.tobytes() == np.concatenate(chunked).tobytes()
        for rows in (x_rows[:5], x_rows[:1], x_rows[4::-1]):
            assert split.values(rows).tobytes() == self.split_of(joint, m).values(rows).tobytes()
            assert not split._mask.any()

    def test_a_singular_statistic_leaves_the_mask_all_false(self, rng):
        # T fails the singular rule, so `whiten` is None and every split fails
        scores = rng.normal(size=(40, 1)) * np.ones((1, 2))
        split = _SplitStatistic(scores, 20)
        assert split.whiten is None
        x_rows = np.array([rng.permutation(40)[:20] for _ in range(PERMUTATION_CHUNK + 1)])
        assert np.isnan(split.values(x_rows)).all()
        assert split._mask.shape == (PERMUTATION_CHUNK, 40) and not split._mask.any()

    @pytest.mark.parametrize("m", [20, 27])
    def test_a_strided_view_of_x_rows_gives_the_bits_of_its_copy(self, rng, m):
        # the draws hand over the first m columns of whole permutations
        joint = gaussian_joint(rng)
        split = self.split_of(joint, m)
        perms = np.array([rng.permutation(joint.n_curves) for _ in range(7)])
        view = perms[:, :m]
        assert not view.flags.c_contiguous
        want = split.values(np.ascontiguousarray(view)).tobytes()
        assert split.values(view).tobytes() == want

    @pytest.mark.parametrize("m", [20, 27])
    def test_one_bool_mask_is_allocated_per_call(self, rng, monkeypatch, m):
        joint = gaussian_joint(rng)
        g = BasisSpec("trig", {"k": 3}).build(joint)
        allocated, used = [], []
        zeros, values = np.zeros, _SplitStatistic.values

        def counting_zeros(*args, **kwargs):
            allocated.append(zeros(*args, **kwargs))
            return allocated[-1]

        def recording_values(self, x_rows):
            out = values(self, x_rows)
            used.append(self._mask)
            return out

        monkeypatch.setattr(np, "zeros", counting_zeros)
        monkeypatch.setattr(_SplitStatistic, "values", recording_values)
        permutation_null(joint, g, m, 2 * PERMUTATION_CHUNK + 1, 11)
        [mask] = [a for a in allocated if a.dtype == bool]
        assert mask.shape == (PERMUTATION_CHUNK, joint.n_curves)
        assert len(used) == 4  # three chunks and the observed split
        assert all(u is mask for u in used)

    def test_concatenate_samples_keeps_its_vstack(self, rng, monkeypatch):
        x, y = (gaussian_joint(rng, n_curves=n) for n in (3, 4))
        handed = []

        def recorded(grid, values, label):
            handed.append(values)
            return FunctionalSample(grid, values, label)

        monkeypatch.setattr(runner, "FunctionalSample", recorded)
        joint = concatenate_samples(x, y)
        [values] = handed
        assert joint.values is values
        assert joint.values.flags.owndata and not joint.values.flags.writeable
        assert np.array_equal(joint.values, np.vstack([x.values, y.values]))


def equal_halves(rng, shift=0.0):
    """x and y of 4 curves each on a 101-point grid, the x-curves raised by `shift`."""
    grid = uniform_grid(Interval(0.0, 1.0), 101)
    values = smooth_curves(rng, 8, grid)
    values[:4] += shift
    return FunctionalSample(grid, values[:4], "x"), FunctionalSample(grid, values[4:], "y")


class TestObservedSplitTies:
    """With m = n = 4 a replicate draws the observed split or its mirror with
    probability 2/70, and the add-one p-value must count it."""

    basis = BasisSpec.parse("indicator:k=2")

    def test_every_draw_of_the_observed_split_or_its_mirror_is_counted(self, rng):
        B, seed = 300, 7
        halves = ({0, 1, 2, 3}, {4, 5, 6, 7})
        ties = [r for r in range(B)
                if set(substream(seed, r).permutation(8)[:4].tolist()) in halves]
        assert len(ties) >= 2
        for _ in range(20):
            x, y = equal_halves(rng)
            result = run_test(x, y, self.basis, "permutation", B=B, seed=seed)
            joint = concatenate_samples(x, y)
            g = self.basis.build(joint)
            null = permutation_null(joint, g, 4, B, seed)
            assert null.n_failed == 0
            tied = null.values[ties]
            assert np.all(tied == tied[0])
            exceed = np.count_nonzero(null.values >= tied[0])
            assert result.p_resampled == (1 + exceed) / (B + 1)
            # the reported statistic is still the direct evaluation
            direct = qn_statistic(sample_inner_products(x, g.functions),
                                  sample_inner_products(y, g.functions))
            assert result.qn == direct.qn

    def test_p_value_is_the_exact_level_within_monte_carlo_error(self, rng):
        # x raised apart from y: the observed split and its mirror are the two
        # most extreme of the 70 splits, so the exact p-value is 2/70
        B, level = 2000, 2 / 70
        sd = math.sqrt(level * (1 - level) / B)
        for seed in range(10):
            x, y = equal_halves(rng, shift=4.0)
            joint = concatenate_samples(x, y)
            scores = sample_inner_products(joint, self.basis.build(joint).functions)
            splits = list(itertools.combinations(range(8), 4))  # observed first, mirror last
            qn = [qn_statistic(scores[list(s)], np.delete(scores, s, axis=0)).qn
                  for s in splits]
            assert min(qn[0], qn[-1]) > 1.01 * max(qn[1:-1])
            p = run_test(x, y, self.basis, "permutation", B=B, seed=seed).p_resampled
            assert abs(p - level) <= 3.5 * sd, (seed, p)


class TestRunTestCalibrations:
    """run_test's own checks, all before any replicate is drawn."""

    basis = BasisSpec.parse("indicator:k=2")

    @pytest.fixture
    def pair(self, rng, monkeypatch):
        monkeypatch.setattr(resampling, "substream", None)
        joint = gaussian_joint(rng, n_curves=12)
        return (FunctionalSample(joint.grid, joint.values[:6]),
                FunctionalSample(joint.grid, joint.values[6:]))

    @pytest.mark.parametrize("calibration", ["asymptotic", "permutation"])
    def test_sim_rejected_outside_spectral_mc(self, pair, calibration):
        with pytest.raises(ValueError, match=f"'{calibration}' takes no sim"):
            run_test(*pair, self.basis, calibration, B=5, seed=1, sim=SimConfig())

    @pytest.mark.parametrize("calibration", ["asymptotic", "permutation"])
    def test_threads_rejected_outside_spectral_mc(self, pair, calibration):
        with pytest.raises(ValueError, match=f"'{calibration}' runs on one thread; got n_jobs=2"):
            run_test(*pair, self.basis, calibration, B=5, seed=1, n_jobs=2)

    @pytest.mark.parametrize("name, value", [("B", 5), ("seed", 1)])
    def test_asymptotic_refuses_null_settings(self, pair, name, value):
        # it draws no null, so a B or seed would be accepted and ignored
        with pytest.raises(ValueError, match=f"'asymptotic' takes no {name}$"):
            run_test(*pair, self.basis, "asymptotic", **{name: value})

    def test_spectral_mc_without_sim_rejected(self, pair):
        with pytest.raises(ValueError, match="'spectral-mc' needs sim"):
            run_test(*pair, self.basis, "spectral-mc", B=5, seed=1)

    def test_unknown_calibration_names_all_three(self, pair):
        with pytest.raises(ValueError, match="'bootstrap'") as info:
            run_test(*pair, self.basis, "bootstrap", B=5, seed=1)
        for name in ("'asymptotic'", "'permutation'", "'spectral-mc'"):
            assert name in str(info.value)


class TestPermutationPvalue:
    def test_add_one_estimator(self):
        assert permutation_pvalue(10.0, np.arange(9.0)) == pytest.approx(0.1)

    def test_observed_zero_gives_one(self):
        assert permutation_pvalue(0.0, np.array([0.5, 1.0, 2.0])) == 1.0

    def test_bounds(self, rng):
        values = rng.chisquare(2, size=200)
        p = permutation_pvalue(float(values.max()) + 1.0, values)
        assert p == pytest.approx(1.0 / 201.0)
        assert permutation_pvalue(-1.0, values) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(TooFewReplicates):
            permutation_pvalue(1.0, [])

    def test_nan_observed_rejected_and_infinite_allowed(self):
        # no replicate is >= NaN, so it would get the smallest p the null allows
        with pytest.raises(ValueError, match="^observed_qn must not be NaN, got nan$"):
            permutation_pvalue(float("nan"), [1.0, 2.0])
        assert permutation_pvalue(math.inf, [1.0, 2.0]) == pytest.approx(1.0 / 3.0)
        assert permutation_pvalue(-math.inf, [1.0, 2.0]) == 1.0


def pooled(text: str, spectra) -> tuple[FunctionalSample, GVector]:
    """The pooled spectra and the g-vector of basis `text` built from them, as run_test does."""
    joint = spectra_to_sample(spectra)
    return joint, BasisSpec.parse(text).build(joint)


class TestSpectralMcNull:
    def test_single_replicate_desk_scale(self):
        fs = 1.28
        grid = default_frequency_grid(fs, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        spectra = [
            estimate_spectrum(simulate_gaussian(s, 600.0, fs, seed=i), 60)
            for i in range(4)
        ]
        sim = SimConfig(duration=600.0, fs=fs, parzen_L=60, n_freq=481)
        null = spectral_mc_null(*pooled("indicator:k=2", spectra), 2, sim, 1, 5)
        assert null.values.shape == (1,) and null.values[0] >= 0.0

    def test_average_of_identical_spectra(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        avg = average_spectrum([s, s, s])
        assert np.array_equal(avg.values, s.values)

    @pytest.mark.parametrize("combine", [average_spectrum, spectra_to_sample])
    def test_spectra_on_two_grids_raise_grid_mismatch(self, combine):
        params = TorsethaugenParams(2.0, 4.0)
        s, t = (torsethaugen_spectrum(params, default_frequency_grid(fs, tp=4.0))
                for fs in (1.28, 2.56))
        with pytest.raises(GridMismatch, match="do not share a frequency grid"):
            combine([s, t])

    @pytest.mark.parametrize("duration", [np.inf, np.nan, 0.0])
    def test_a_duration_that_makes_no_record_rejected(self, duration):
        # SimConfig checks its fields once, so no null sees such a duration
        with pytest.raises(InvalidParams, match=f"duration must be finite and positive, "
                                                f"got {duration}"):
            SimConfig(duration=duration)

    @pytest.mark.parametrize("combine", [average_spectrum, spectra_to_sample])
    def test_no_spectra_rejected(self, combine):
        with pytest.raises(ValueError, match="need at least one spectral density"):
            combine([])

    @staticmethod
    def _spectra(count, duration, first_seed, fs=1.28, n_freq=481):
        grid = default_frequency_grid(fs, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        return [
            estimate_spectrum(simulate_gaussian(s, duration, fs, seed=first_seed + i), 60,
                              n_freq)
            for i in range(count)
        ]

    def test_deterministic_across_thread_counts(self):
        spectra = self._spectra(8, 900.0, 10)
        sim = SimConfig(duration=900.0, fs=1.28, parzen_L=60, n_freq=481)
        B = 4 * SPECTRAL_MC_CHUNK + 1
        for text in ("indicator:k=3", "pca:d=2", "bspline:order=4,interior=2"):
            joint, g = pooled(text, spectra)
            serial = spectral_mc_null(joint, g, 4, sim, B, 21, n_jobs=1)
            threaded = spectral_mc_null(joint, g, 4, sim, B, 21, n_jobs=3)
            assert np.array_equal(serial.values, threaded.values), text

    @pytest.mark.parametrize("basis", ["indicator:k=8", "pca:d=2", "bspline:order=4,interior=2"])
    def test_replicate_matches_its_definition(self, basis):
        spectra = self._spectra(10, 600.0, 40)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        B, seed = SPECTRAL_MC_CHUNK + 2, 9  # 2 in a partial chunk
        null = spectral_mc_null(*pooled(basis, spectra), 5, sim, B, seed)
        basis = BasisSpec.parse(basis)
        assert null.n_failed == 0
        s_avg = average_spectrum(spectra)
        synth = GaussianSynthesizer(int(round(sim.duration * sim.fs)), sim.fs)
        for r in range(B):
            records = synth.simulate(s_avg, substream(seed, r), 10)
            grid, est = estimate_spectra(records, sim.fs, sim.parzen_L, sim.n_freq)
            joint = FunctionalSample(grid, est)
            scores = sample_inner_products(joint, basis.build(joint).functions)
            qn = qn_statistic(scores[:5], scores[5:]).qn
            assert null.values[r] == pytest.approx(qn, rel=1e-10)

    def test_pca_with_more_spectra_than_frequencies_matches_the_dense_oracle(self):
        # m + n = 12 spectra on 9 frequencies: each replicate's stack is N > P
        spectra = self._spectra(12, 600.0, 50, n_freq=9)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=9)
        B, seed = SPECTRAL_MC_CHUNK + 1, 3
        null = spectral_mc_null(*pooled("pca:d=2", spectra), 6, sim, B, seed)
        assert null.n_failed == 0
        s_avg = average_spectrum(spectra)
        synth = GaussianSynthesizer(int(round(sim.duration * sim.fs)), sim.fs)
        for r in range(B):
            records = synth.simulate(s_avg, substream(seed, r), 12)
            grid, est = estimate_spectra(records, sim.fs, sim.parzen_L, sim.n_freq)
            funcs = eigh_pca_oracle(est, grid.weights, 2)[1]
            scores = sample_inner_products(FunctionalSample(grid, est), funcs)
            qn = qn_statistic(scores[:6], scores[6:]).qn
            assert null.values[r] == pytest.approx(qn, rel=1e-10)

    @pytest.mark.parametrize("m,n,B,basis,error", [
        (2, 2, 0, "pca:d=1", ValueError),
        (1, 3, 5, "pca:d=1", TooFewCurves),
        (3, 1, 5, "pca:d=1", TooFewCurves),
        # trig needs [0, 1]; the estimator grid is [0, pi*fs]
        (2, 2, 5, "trig:k=3", WrongInterval),
    ], ids=["2-2-0-ValueError", "1-3-5-TooFewCurves", "3-1-5-TooFewCurves",
            "2-2-5-trig-WrongInterval"])
    def test_no_replicate_or_a_group_of_one_rejected(self, monkeypatch, m, n, B, basis, error):
        spectra = self._spectra(m + n, 600.0, 70)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        # the group sizes and the basis are checked before any replicate is drawn
        monkeypatch.setattr(resampling, "substream", None)
        basis = BasisSpec.parse(basis)
        x, y = spectra_to_sample(spectra[:m]), spectra_to_sample(spectra[m:])
        with pytest.raises(error):
            run_test(x, y, basis, "spectral-mc", B=B, seed=1, sim=sim)
        if basis.scheme != "trig":  # a trig g cannot be built on the estimator grid
            joint = spectra_to_sample(spectra)
            with pytest.raises(error):
                spectral_mc_null(joint, basis.build(joint), m, sim, B, 1)

    @pytest.mark.parametrize("n_jobs", [0, -4])
    def test_threads_below_one_rejected(self, monkeypatch, n_jobs):
        # rejected before any replicate is drawn
        spectra = self._spectra(4, 600.0, 70)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        monkeypatch.setattr(resampling, "substream", None)
        basis = BasisSpec.parse("indicator:k=2")
        x, y = spectra_to_sample(spectra[:2]), spectra_to_sample(spectra[2:])
        message = f"^n_jobs must be at least 1, got {n_jobs}$"
        with pytest.raises(ValueError, match=message):
            run_test(x, y, basis, "spectral-mc", B=5, seed=1, n_jobs=n_jobs, sim=sim)
        joint = spectra_to_sample(spectra)
        with pytest.raises(ValueError, match=message):
            spectral_mc_null(joint, basis.build(joint), 2, sim, 5, 1, n_jobs=n_jobs)

    def test_g_off_the_spectra_grid_rejected(self, monkeypatch):
        spectra = self._spectra(4, 600.0, 70)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        unit = uniform_grid(Interval(0.0, 1.0), 481)
        waves = FunctionalSample(unit, smooth_curves(np.random.default_rng(3), 6, unit))
        monkeypatch.setattr(resampling, "substream", None)
        with pytest.raises(GridMismatch, match="frequency grid"):
            spectral_mc_null(spectra_to_sample(spectra), trig_g_functions(waves), 2, sim, 3, 1)

    @pytest.mark.parametrize("text", ["indicator:k=3", "pca:d=2"])
    def test_each_test_builds_its_basis_once(self, monkeypatch, text):
        spectra = self._spectra(6, 600.0, 50)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        basis, built_from, build = BasisSpec.parse(text), [], BasisSpec.build
        monkeypatch.setattr(BasisSpec, "build",
                            lambda self, joint: built_from.append(joint) or build(self, joint))
        x, y = spectra_to_sample(spectra[:3]), spectra_to_sample(spectra[3:])
        run_test(x, y, basis, "spectral-mc", B=3, seed=2, sim=sim)
        assert len(built_from) == 1
        run_test(x, y, basis, "permutation", B=5, seed=2)
        assert len(built_from) == 2

    def test_chunk_size_does_not_change_values(self, monkeypatch):
        spectra = self._spectra(10, 600.0, 60, n_freq=241)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=40, n_freq=241)
        # the 6 b-spline scores need more than 6 spectra
        for text, N in (("indicator:k=2", 6), ("pca:d=2", 6), ("bspline:order=4,interior=2", 10)):
            joint, g = pooled(text, spectra[:N])
            values = []
            for chunk in (1, 3, 7):
                monkeypatch.setattr(resampling, "SPECTRAL_MC_CHUNK", chunk)
                values.append(spectral_mc_null(joint, g, N // 2, sim, 7, 3).values)
            assert np.array_equal(values[0], values[1]), text
            assert np.array_equal(values[0], values[2]), text

    def test_no_null_forms_an_estimate(self, monkeypatch):
        # every basis scores the autocovariances in the lag domain, so no
        # replicate estimate is formed, clipped or checked for negative values
        def estimate(*args):
            raise AssertionError("parzen_estimates called")

        spectra = self._spectra(10, 600.0, 70)  # the 6 b-spline scores need more than 6
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        joints = {text: pooled(text, spectra)
                  for text in ("pca:d=2", "indicator:k=3", "bspline:order=4,interior=2")}
        monkeypatch.setattr(sea, "parzen_estimates", estimate)
        assert "parzen_estimates" not in vars(resampling)  # no reference of its own
        for text, (joint, g) in joints.items():
            assert spectral_mc_null(joint, g, 5, sim, 3, 1).n_effective == 3, text

    def test_negative_input_value_rejected_before_any_draw(self, monkeypatch):
        spectra = self._spectra(4, 600.0, 70)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        joint, g = pooled("indicator:k=2", spectra)
        values = joint.values.copy()
        values[3, 100] = -1e-9
        monkeypatch.setattr(resampling, "substream", None)
        with pytest.raises(ValueError, match="non-negative"):
            spectral_mc_null(FunctionalSample(joint.grid, values), g, 2, sim, 3, 1)
        # the grid is checked first, and named
        off_grid = FunctionalSample(estimator_grid(1.28, 241), values[:, ::2])
        with pytest.raises(GridMismatch, match="estimator grid"):
            spectral_mc_null(off_grid, BasisSpec.parse("indicator:k=2").build(off_grid),
                             2, sim, 3, 1)

    def test_builds_one_density_the_average_of_its_rows(self, monkeypatch):
        spectra = self._spectra(4, 600.0, 70)
        joint, g = pooled("indicator:k=2", spectra)
        expected = average_spectrum(spectra).values
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        built, post_init = [], SpectralDensity.__post_init__
        monkeypatch.setattr(SpectralDensity, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        spectral_mc_null(joint, g, 2, sim, 3, 1)
        assert len(built) == 1
        assert np.array_equal(built[0].values, expected)

    @pytest.mark.parametrize("fs,n_freq", [(1.28, 241), (2.56, 481)])
    def test_spectra_off_the_estimator_grid_rejected(self, fs, n_freq):
        # the null estimates on estimator_grid(1.28, 481): a grid of another
        # size, or of the same size over another band, is refused up front
        spectra = self._spectra(4, 600.0, 70, fs=fs, n_freq=n_freq)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        basis = BasisSpec.parse("indicator:k=2")
        with pytest.raises(GridMismatch, match="estimator grid"):
            spectral_mc_null(*pooled("indicator:k=2", spectra), 2, sim, 3, 1)
        x, y = spectra_to_sample(spectra[:2]), spectra_to_sample(spectra[2:])
        with pytest.raises(GridMismatch, match="estimator grid"):
            run_test(x, y, basis, "spectral-mc", B=3, seed=1, sim=sim)

    def test_window_longer_than_half_the_record_rejected(self):
        spectra = self._spectra(4, 600.0, 70)
        joint, g = pooled("indicator:k=2", spectra)
        for L, error in ((0, InvalidParams), (400, RecordTooShort)):
            with pytest.raises(error):
                sim = SimConfig(duration=600.0, fs=1.28, parzen_L=L, n_freq=481)
                spectral_mc_null(joint, g, 2, sim, 3, 1)

    @pytest.mark.parametrize("L", [60.5, 2.0, True])
    def test_non_integer_window_length_rejected_before_any_draw(self, monkeypatch, L):
        # np.arange(L + 1) would run 60.5 as 61 and True as 1
        spectra = self._spectra(4, 600.0, 70)
        x, y = spectra_to_sample(spectra[:2]), spectra_to_sample(spectra[2:])
        monkeypatch.setattr(resampling, "substream", None)
        with pytest.raises(InvalidParams, match=f"^parzen_L must be an integer, got {L!r}$"):
            sim = SimConfig(duration=600.0, fs=1.28, parzen_L=L, n_freq=481)
            run_test(x, y, BasisSpec.parse("indicator:k=2"), "spectral-mc", B=20, seed=1,
                     sim=sim)


# For each setting of runner.CALIBRATIONS, a value other than the one it keeps
# under a calibration that does not read it.
SET = {"B": 5, "seed": 1, "n_jobs": 2, "sim": SimConfig()}
UNREAD = [(calibration, setting) for calibration, reads in runner.CALIBRATIONS.items()
          for setting in sorted({s for r in runner.CALIBRATIONS.values() for s in r})
          if setting not in reads]


@functools.cache
def contract_inputs() -> dict:
    """Valid inputs of the CONTRACT calls, built once."""
    spectra = TestSpectralMcNull._spectra(6, 600.0, 50)
    return {"pair": (spectra_to_sample(spectra[:3]), spectra_to_sample(spectra[3:])),
            "joint": pooled("indicator:k=3", spectra),
            "waves": gaussian_joint(np.random.default_rng(3)),
            "record": TimeSeriesRecord(1.28, np.random.default_rng(5).normal(size=768)),
            "sea": torsethaugen_spectrum(TorsethaugenParams(2.0, 8.0),
                                         default_frequency_grid(2, tp=8.0))}


def calibrated(calibration: str, **changed):
    """`run_test` of the settings `calibration` reads, TestCalibrationTable's given ones
    but for those `changed`, on the 3-vs-3 contract spectra."""
    given = {**TestCalibrationTable.given, **changed}
    return run_test(*contract_inputs()["pair"], TestCalibrationTable.basis, calibration,
                    **{name: given[name] for name in runner.CALIBRATIONS[calibration]})


def _null(null, *settings):
    return null(*contract_inputs()["joint"], 3, *settings)


UNIT = Interval(0.0, 1.0)
GRID = uniform_grid(UNIT, 41)
SIM = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
DF = "degrees of freedom k"
WHITE = np.eye(1, 61)  # autocovariances c(0..60) of unit white noise
# Every public entry point's counts and real settings: the entry, the parameter, its
# least value (None for a real setting), a valid integer value, a call that passes
# its argument as the parameter, and the name the messages give it.
CONTRACT = [
    ("permutation", "B", 1, 3, lambda v: calibrated("permutation", B=v), "B"),
    ("permutation", "seed", 0, 2, lambda v: calibrated("permutation", seed=v), "seed"),
    ("spectral-mc", "B", 1, 3, lambda v: calibrated("spectral-mc", B=v), "B"),
    ("spectral-mc", "seed", 0, 2, lambda v: calibrated("spectral-mc", seed=v), "seed"),
    ("spectral-mc", "n_jobs", 1, 1, lambda v: calibrated("spectral-mc", n_jobs=v), "n_jobs"),
    ("permutation_null", "B", 1, 3, lambda v: _null(permutation_null, v, 2), "B"),
    ("permutation_null", "seed", 0, 2, lambda v: _null(permutation_null, 3, v), "seed"),
    ("spectral_mc_null", "B", 1, 3, lambda v: _null(spectral_mc_null, SIM, v, 2), "B"),
    ("spectral_mc_null", "seed", 0, 2, lambda v: _null(spectral_mc_null, SIM, 3, v), "seed"),
    ("spectral_mc_null", "n_jobs", 1, 1, lambda v: _null(spectral_mc_null, SIM, 3, 2, v),
     "n_jobs"),
    ("permutation_null", "m", 2, 3,
     lambda v: permutation_null(*contract_inputs()["joint"], v, 3, 2), "m"),
    ("spectral_mc_null", "m", 2, 3,
     lambda v: spectral_mc_null(*contract_inputs()["joint"], v, SIM, 3, 2), "m"),
    ("substream", "seed", 0, 3, lambda v: substream(v, 1), "seed"),
    ("substream", "index", 0, 3, lambda v: substream(1, v), "replicate index"),
    ("chi_square_sf", "k", 1, 3, lambda v: chi_square_sf(2.0, v), DF),
    ("chi_square_isf", "k", 1, 3, lambda v: chi_square_isf(0.05, v), DF),
    ("quantile_table", "k", 1, 3, lambda v: quantile_table(np.arange(1.0, 101.0), v), DF),
    ("BasisSpec", "indicator-k", 1, 3, lambda v: BasisSpec("indicator", {"k": v}),
     "indicator parameter 'k'"),
    ("BasisSpec", "bspline-order", 2, 5, lambda v: BasisSpec("bspline", {"order": v}),
     "bspline parameter 'order'"),
    ("BasisSpec", "bspline-interior", 0, 7, lambda v: BasisSpec("bspline", {"interior": v}),
     "bspline parameter 'interior'"),
    ("BasisSpec", "trig-k", 1, 3, lambda v: BasisSpec("trig", {"k": v}),
     "trig parameter 'k'"),
    ("BasisSpec", "pca-d", 1, 2, lambda v: BasisSpec("pca", {"d": v}), "pca parameter 'd'"),
    ("indicator_basis", "k", 1, 3, lambda v: indicator_basis(UNIT, v, GRID), "k"),
    ("bspline_basis_g", "order", 2, 4, lambda v: bspline_basis_g(UNIT, v, 3, GRID), "order"),
    ("bspline_basis_g", "interior_nodes", 0, 3, lambda v: bspline_basis_g(UNIT, 4, v, GRID),
     "interior_nodes"),
    ("trig_g_functions", "k_max", 1, 3, lambda v: trig_g_functions(contract_inputs()["waves"], v),
     "k_max"),
    ("fourier_coefficients", "k_max", 1, 3,
     lambda v: fourier_coefficients(contract_inputs()["waves"], v), "k_max"),
    ("pca_basis", "d", 1, 2, lambda v: pca_basis(contract_inputs()["waves"], v), "d"),
    ("equidistant_spec", "order", 2, 4, lambda v: equidistant_spec(UNIT, v, 5), "order"),
    ("equidistant_spec", "n_sites", 2, 5, lambda v: equidistant_spec(UNIT, 4, v), "n_sites"),
    ("BSplineSpec", "order", 2, 2, lambda v: BSplineSpec(v, [0.0, 0.0, 1.0, 1.0]), "order"),
    ("uniform_grid", "n", 2, 11, lambda v: uniform_grid(UNIT, v), "n"),
    ("RegistrationSpec", "n_grid", 2, 101, lambda v: RegistrationSpec(n_grid=v), "n_grid"),
    ("RegistrationSpec", "spline_order", 2, 6, lambda v: RegistrationSpec(spline_order=v),
     "spline_order"),
    ("RegistrationSpec", "n_knots", 2, 61, lambda v: RegistrationSpec(n_knots=v), "n_knots"),
    ("SimConfig", "duration", None, 600, lambda v: SimConfig(duration=v), "duration"),
    ("SimConfig", "fs", None, 2, lambda v: SimConfig(fs=v), "fs"),
    ("SimConfig", "parzen_L", 1, 60, lambda v: SimConfig(parzen_L=v), "parzen_L"),
    ("SimConfig", "n_freq", 2, 481, lambda v: SimConfig(n_freq=v), "n_freq"),
    ("estimate_spectrum", "parzen_L", 1, 60,
     lambda v: estimate_spectrum(contract_inputs()["record"], v), "parzen_L"),
    ("estimate_spectrum", "n_freq", 2, 481,
     lambda v: estimate_spectrum(contract_inputs()["record"], 60, v), "n_freq"),
    ("estimate_spectra", "fs", None, 2,
     lambda v: estimate_spectra(contract_inputs()["record"].values, v, 60, 481), "fs"),
    ("parzen_estimates", "fs", None, 2, lambda v: parzen_estimates(WHITE, v, 481), "fs"),
    ("estimator_grid", "fs", None, 2, lambda v: estimator_grid(v, 481), "fs"),
    ("estimator_grid", "n_freq", 2, 481, lambda v: estimator_grid(1.28, v), "n_freq"),
    ("default_frequency_grid", "fs", None, 2, lambda v: default_frequency_grid(v), "fs"),
    ("default_frequency_grid", "tp", None, 8, lambda v: default_frequency_grid(1.28, tp=v),
     "tp"),
    ("default_frequency_grid", "n_freq", 2, 481,
     lambda v: default_frequency_grid(1.28, n_freq=v), "n_freq"),
    ("TorsethaugenParams", "hs", None, 2, lambda v: TorsethaugenParams(v, 8.0), "hs"),
    ("TorsethaugenParams", "tp", None, 8, lambda v: TorsethaugenParams(2.0, v), "tp"),
    ("TimeSeriesRecord", "fs", None, 2, lambda v: TimeSeriesRecord(v, np.zeros(4)), "fs"),
    ("GaussianSynthesizer", "n_samples", 2, 768, lambda v: GaussianSynthesizer(v, 1.28),
     "n_samples"),
    ("GaussianSynthesizer", "fs", None, 2, lambda v: GaussianSynthesizer(768, v), "fs"),
    ("GaussianSynthesizer.amplitude_normals", "n_records", 1, 2,
     lambda v: GaussianSynthesizer(768, 2).amplitude_normals(substream(1, 0), v), "n_records"),
    ("GaussianSynthesizer.simulate", "n_records", 1, 2,
     lambda v: GaussianSynthesizer(768, 2).simulate(contract_inputs()["sea"], substream(1, 0), v),
     "n_records"),
    ("simulate_gaussian", "duration", None, 600,
     lambda v: simulate_gaussian(contract_inputs()["sea"], v, 2, 1), "duration"),
    ("simulate_gaussian", "fs", None, 2,
     lambda v: simulate_gaussian(contract_inputs()["sea"], 600, v, 1), "fs"),
    ("simulate_gaussian", "seed", 0, 1,
     lambda v: simulate_gaussian(contract_inputs()["sea"], 600, 2, v), "seed"),
    ("sample_count", "duration", None, 600, lambda v: sample_count(v, 1.28), "duration"),
    ("sample_count", "fs", None, 2, lambda v: sample_count(600, v), "fs"),
]
# What no count is, and what no real setting is, by the rule each breaks.
NOT_COUNTS = [(v, "be an integer") for v in (True, 2.0, 2.5, math.nan, math.inf, "3")]
NOT_REAL = ([(v, "be a number") for v in (True, "3")]
            + [(v, "be finite and positive") for v in (math.nan, math.inf, -math.inf, 0, -1)])
REFUSALS = [(row, value, rule) for row in CONTRACT for value, rule in (
    NOT_REAL if row[2] is None else
    NOT_COUNTS + [(v, f"be at least {row[2]}") for v in sorted({row[2] - 1, 0, -1})
                  if v < row[2]])]


class TestCalibrationTable:
    """run_test and parse_calibration follow runner.CALIBRATIONS, whatever its entries,
    and every CONTRACT entry point refuses what is not a count or a real setting."""

    basis = BasisSpec.parse("indicator:k=3")
    # settings each calibration that reads them takes in these tests
    given = {"B": 3, "seed": 2, "n_jobs": 1, "sim": SIM}

    @pytest.fixture(scope="class")
    def spectra(self):
        return contract_inputs()["pair"]

    @pytest.mark.parametrize("calibration, setting", UNREAD)
    def test_unread_setting_raises(self, spectra, monkeypatch, calibration, setting):
        monkeypatch.setattr(resampling, "substream", None)  # before any draw
        with pytest.raises(ValueError, match=f"^calibration '{calibration}' "):
            run_test(*spectra, self.basis, calibration, **{setting: SET[setting]})

    @pytest.mark.parametrize("calibration", list(runner.CALIBRATIONS))
    def test_parse_calibration_round_trips(self, calibration):
        assert runner.parse_calibration(f" {calibration.upper()} ") == (calibration, {})
        spaced = f" {calibration.title()} : b = 7 "
        if "B" in runner.CALIBRATIONS[calibration]:
            assert runner.parse_calibration(f"{calibration}:B=7") == (calibration, {"B": 7})
            assert runner.parse_calibration(spaced) == (calibration, {"B": 7})
        else:
            with pytest.raises(ValueError, match=f"'{calibration}' takes no parameters"):
                runner.parse_calibration(spaced)

    @pytest.mark.parametrize("call, nulls", [
        ("asymptotic", []), ("permutation", ["permutation_null"]),
        ("spectral-mc", ["spectral_mc_null"]), ("fda2s quantiles", ["permutation_null"]),
    ])
    def test_nulls_are_looked_up_in_runner_when_called(self, spectra, monkeypatch, tmp_path,
                                                       call, nulls):
        # the benchmark captures each null by wrapping these two runner globals, and
        # `fda2s quantiles` draws its null through the runner too
        calls = []

        def counting(name):
            null = getattr(runner, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return null(*args, **kwargs)
            return counted

        for name in ("permutation_null", "spectral_mc_null"):
            monkeypatch.setattr(runner, name, counting(name))
        if call == "fda2s quantiles":
            paths = [tmp_path / "x.csv", tmp_path / "y.csv"]
            for sample, path in zip(spectra, paths):
                write_functional_sample(sample, path)
            assert cli.main(["quantiles", "--x", str(paths[0]), "--y", str(paths[1]),
                             "--basis", "indicator:k=3", "--calibration", "permutation:B=100",
                             "--seed", "2", "-o", str(tmp_path / "table.csv")]) == 0
        else:
            calibrated(call)
        assert calls == nulls

    @pytest.mark.parametrize("calibration, null", [
        ("asymptotic", None), ("permutation", "permutation_null"),
        ("spectral-mc", "spectral_mc_null"),
    ])
    @pytest.mark.parametrize("omitted", [(), ("B", "seed")])
    def test_each_null_receives_exactly_its_settings(self, spectra, monkeypatch, calibration,
                                                     null, omitted):
        received = {}

        def receiving(name):
            signature = inspect.signature(getattr(runner, name))

            def wrapped(*args, **kwargs):
                received[name] = signature.bind(*args, **kwargs).arguments
                return NullDistribution(np.zeros(3), 0)
            return wrapped

        for name in ("permutation_null", "spectral_mc_null"):
            monkeypatch.setattr(runner, name, receiving(name))
        reads = runner.CALIBRATIONS[calibration]
        given = {name: self.given[name] for name in reads if name not in omitted}
        run_test(*spectra, self.basis, calibration, **given)
        if null is None:
            assert received == {}
            return
        [(name, arguments)] = received.items()
        assert name == null and arguments["m"] == spectra[0].n_curves
        settings = {key: value for key, value in arguments.items()
                    if key not in ("joint", "g", "m")}
        assert sorted(settings) == sorted(reads)
        assert {key: settings[key] for key in given} == given
        if "B" in omitted:
            assert settings["B"] == runner.DEFAULT_B
        if "seed" in omitted:
            assert type(settings["seed"]) is int

    @pytest.mark.parametrize("calibration", [c for c, reads in runner.CALIBRATIONS.items()
                                             if "n_jobs" not in reads])
    @pytest.mark.parametrize("n_jobs", [True, 1.0])
    def test_unread_n_jobs_is_only_the_integer_1(self, spectra, monkeypatch, calibration,
                                                 n_jobs):
        # each equals 1, yet neither is the integer 1 an unread n_jobs must be
        monkeypatch.setattr(resampling, "substream", None)  # before any draw
        settings = {name: self.given[name] for name in runner.CALIBRATIONS[calibration]}
        with pytest.raises(ValueError, match=f"^calibration '{calibration}' runs on one "
                                             f"thread; got n_jobs={n_jobs}$"):
            run_test(*spectra, self.basis, calibration, n_jobs=n_jobs, **settings)

    @pytest.mark.parametrize("calibration", [c for c, reads in runner.CALIBRATIONS.items()
                                             if "seed" in reads])
    def test_numpy_integer_seed_reports_as_the_integer(self, calibration):
        reports = [format_test_result(calibrated(calibration, seed=seed))
                   for seed in (3, np.int64(3))]
        assert reports[0] == reports[1]
        assert json.loads(reports[1])["seed"] == 3

    @pytest.mark.parametrize("row, value, rule", REFUSALS,
                             ids=[f"{row[0]}-{row[1]}-{value!r}" for row, value, _ in REFUSALS])
    def test_booleans_and_non_integers_rejected(self, row, value, rule):
        # the contract of every CONTRACT entry: the rule broken, with the parameter named
        *_, call, named = row
        message = f"^{re.escape(named)} must {rule}, got {re.escape(repr(value))}$"
        with pytest.raises(FdaError, match=message):
            call(value)

    @pytest.mark.parametrize("row", CONTRACT, ids=[f"{row[0]}-{row[1]}" for row in CONTRACT])
    def test_numpy_integers_accepted(self, row):
        _, _, _, valid, call, _ = row
        call(np.int64(valid))

    @pytest.mark.parametrize("estimate", [
        lambda fs: estimate_spectra(contract_inputs()["record"].values, fs, 60, 481),
        lambda fs: parzen_estimates(WHITE, fs, 481),
    ], ids=["estimate_spectra", "parzen_estimates"])
    def test_fs_is_checked_before_the_cached_map(self, estimate):
        # True == 1, so a Parzen map cached for fs=1 would answer fs=True
        estimate(1)
        with pytest.raises(InvalidParams, match=r"^fs must be a number, got True$"):
            estimate(True)


def counting_substream(monkeypatch):
    """Wrap `resampling.substream`; the returned list collects its calls."""
    calls = []

    def counted(seed, index):
        calls.append(index)
        return substream(seed, index)

    monkeypatch.setattr(resampling, "substream", counted)
    return calls


class TestReplicateDriver:
    """Both nulls build one generator per chunk, at any thread count."""

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_permutation_null_builds_one_generator_per_chunk(self, rng, monkeypatch, chunks):
        # in order, on one thread; the last chunk is a partial one
        joint = gaussian_joint(rng)
        x, y = (FunctionalSample(joint.grid, rows) for rows in np.split(joint.values, [20]))
        B = (chunks - 1) * PERMUTATION_CHUNK + 5
        calls = counting_substream(monkeypatch)
        permutation_report(x, y, BasisSpec("trig", {"k": 3}), B, 4)
        assert calls == list(range(0, B, PERMUTATION_CHUNK))

    @pytest.mark.parametrize("n_jobs", [1, 3])
    def test_spectral_mc_null_builds_one_generator_per_chunk(self, monkeypatch, n_jobs):
        spectra = TestSpectralMcNull._spectra(4, 600.0, 80)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        B = 2 * SPECTRAL_MC_CHUNK + 1
        calls = counting_substream(monkeypatch)
        spectral_mc_null(*pooled("indicator:k=2", spectra), 2, sim, B, 4, n_jobs=n_jobs)
        assert len(calls) == math.ceil(B / SPECTRAL_MC_CHUNK)
        assert sorted(calls) == list(range(0, B, SPECTRAL_MC_CHUNK))


class TestQuantileTable:
    def test_interpolated_median_of_1_to_100(self):
        table = quantile_table(np.arange(1.0, 101.0), 2, (0.5,))
        assert table.empirical[0] == pytest.approx(50.5)

    def test_chi2_pseudo_sample_relative_errors(self):
        # inverse-CDF oracle: quantiles of this pseudo-sample are near exact
        u = (np.arange(100_000) + 0.5) / 100_000
        pseudo = chi2.ppf(u, 2)
        table = quantile_table(pseudo, 2)
        assert np.max(np.abs(table.relative_error)) < 0.02

    def test_monotone_empirical(self, rng):
        table = quantile_table(rng.chisquare(3, 500), 3)
        assert np.all(np.diff(table.empirical) >= 0)

    def test_probs_validation(self, rng):
        values = rng.chisquare(2, 200)
        with pytest.raises(ValueError,
                           match=r"^probs must be strictly increasing, got \[0.5, 0.5\]$"):
            quantile_table(values, 2, (0.5, 0.5))
        for probs, given in (([], r"\[\]"), (0.5, "0.5"), ([[0.1, 0.5]], r"\[\[0.1, 0.5\]\]")):
            with pytest.raises(ValueError,
                               match=rf"^probs must be a non-empty 1-d sequence, got {given}$"):
                quantile_table(values, 2, probs)
        for probs in ((0.0, 0.5), (0.5, 1.0), (0.5, float("nan"))):
            with pytest.raises(ValueError, match=r"^probs must lie strictly inside \(0, 1\), got "):
                quantile_table(values, 2, probs)

    def test_too_few_replicates(self):
        with pytest.raises(TooFewReplicates):
            quantile_table(np.arange(50.0), 2)

    def test_zero_empirical_quantile_rejected(self):
        values = np.concatenate([np.zeros(60), np.arange(1.0, 41.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="p=0.5"):
                quantile_table(values, 2)
        assert quantile_table(values, 2, (0.9, 0.95)).empirical[0] > 0.0

    def test_relative_error_convention(self):
        table = quantile_table(np.arange(1.0, 101.0), 2, (0.5,))
        expected = (table.asymptotic[0] - table.empirical[0]) / table.empirical[0]
        assert table.relative_error[0] == pytest.approx(expected)
