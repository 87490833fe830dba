"""Permutation splits, the spectral MC null, p-values, and quantile tables."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from fda2s import (
    BasisSpec,
    FunctionalSample,
    Interval,
    ResamplingPlan,
    SimConfig,
    average_spectrum,
    estimate_spectrum,
    permutation_null,
    permutation_pvalue,
    qn_statistic,
    quantile_table,
    simulate_gaussian,
    spectral_mc_null,
    spectral_mc_test,
    torsethaugen_spectrum,
    TorsethaugenParams,
    default_frequency_grid,
    uniform_grid,
)
from fda2s import resampling
from fda2s.errors import (
    GridMismatch,
    InvalidParams,
    NegativeEstimate,
    RecordTooShort,
    SingularCovariance,
    TooFewReplicates,
)
from fda2s.grids import sample_inner_products
from fda2s.projections import trig_g_functions
from fda2s.resampling import PERMUTATION_CHUNK, SPECTRAL_MC_CHUNK, _SplitStatistic
from fda2s.rng import substream
from fda2s.sea import GaussianSynthesizer, estimate_spectra

from conftest import smooth_curves


def gaussian_joint(rng, n_curves=40, n_points=41):
    grid = uniform_grid(Interval(0.0, 1.0), n_points)
    return FunctionalSample(grid, smooth_curves(rng, n_curves, grid), "joint")


class TestResamplingPlan:
    @pytest.mark.parametrize("args,error", [
        ((0, 1, (20, 20)), ValueError), ((5, 1, (1, 20)), ValueError),
        # the engine is the function called, so a method name is no argument
        (("spectral-mc", 50, 1, (20, 20)), TypeError),
    ])
    def test_invalid_plan_rejected(self, args, error):
        with pytest.raises(error):
            ResamplingPlan(*args)


class TestPermutationNull:
    def test_single_replicate_finite(self, rng):
        joint = gaussian_joint(rng)
        plan = ResamplingPlan(1, 3, (20, 20))
        null = permutation_null(joint, BasisSpec("trig", {"k": 3}), plan)
        assert null.values.shape == (1,)
        assert np.isfinite(null.values[0]) and null.values[0] >= 0.0

    def test_same_seed_same_sequence(self, rng):
        joint = gaussian_joint(rng)
        plan = ResamplingPlan(50, 12, (25, 15))
        basis = BasisSpec("indicator", {"k": 2})
        a = permutation_null(joint, basis, plan)
        b = permutation_null(joint, basis, plan)
        assert np.array_equal(a.values, b.values)

    def test_parallel_matches_serial_bitexact(self, rng):
        joint = gaussian_joint(rng)
        plan = ResamplingPlan(64, 9, (20, 20))
        basis = BasisSpec("pca", {"d": 2})
        serial = permutation_null(joint, basis, plan, n_jobs=1)
        threaded = permutation_null(joint, basis, plan, n_jobs=4)
        assert np.array_equal(serial.values, threaded.values)

    def test_null_quantiles_near_chi2(self, rng):
        # synthetic Gaussian-curve joint sample, trig k=2, m=n=100
        joint = gaussian_joint(rng, n_curves=200, n_points=33)
        plan = ResamplingPlan(2000, 4, (100, 100))
        null = permutation_null(joint, BasisSpec("trig", {"k": 3}), plan)
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
        plan = ResamplingPlan(20, 1, (3, 3))
        with pytest.raises(SingularCovariance):
            permutation_null(joint, BasisSpec("indicator", {"k": 8}), plan)

    def test_projection_functions_on_another_grid_rejected(self, rng):
        # same point count as the sample's [0, 1] grid, but on [0, 2]
        joint = gaussian_joint(rng, n_curves=12)
        other = uniform_grid(Interval(0.0, 2.0), len(joint.grid))
        g = BasisSpec.parse("indicator:k=2").build(FunctionalSample(other, joint.values))
        plan = ResamplingPlan(5, 1, (6, 6))
        with pytest.raises(GridMismatch):
            permutation_null(joint, g, plan)

    def test_super_uniform_under_exchangeability(self):
        rng = np.random.default_rng(314)
        grid = uniform_grid(Interval(0.0, 1.0), 25)
        basis = BasisSpec("trig", {"k": 3})
        hits = 0
        for i in range(200):
            joint = FunctionalSample(grid, smooth_curves(rng, 40, grid))
            plan = ResamplingPlan(99, 9000 + i, (25, 15))
            null = permutation_null(joint, basis, plan)
            g = trig_g_functions(joint, 3)
            scores = sample_inner_products(joint, g.functions)
            observed = qn_statistic(scores[:25], scores[25:]).qn
            hits += permutation_pvalue(observed, null.values) <= 0.05
        assert 0.02 <= hits / 200 <= 0.09


def per_replicate_null(joint, basis, plan):
    """Oracle: replicate r is qn_statistic on the split drawn from substream(seed, r)."""
    scores = sample_inner_products(joint, basis.build(joint).functions)
    m = plan.sizes[0]
    values = []
    for r in range(plan.B):
        perm = substream(plan.seed, r).permutation(joint.n_curves)
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


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestClosedFormNull:
    @PROPERTY
    @given(small_problems(), st.integers(1, 60))
    def test_matches_per_replicate_oracle(self, problem, B):
        joint, basis, m, seed = problem
        plan = ResamplingPlan(B, seed, (m, joint.n_curves - m))
        null = permutation_null(joint, basis, plan)
        assert null.n_failed == 0
        assert_matches_oracle(null.values, per_replicate_null(joint, basis, plan))

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
        plan = ResamplingPlan(PERMUTATION_CHUNK + extra, seed, (m, joint.n_curves - m))
        oracle = per_replicate_null(joint, basis, plan)
        serial = permutation_null(joint, basis, plan, n_jobs=1)
        threaded = permutation_null(joint, basis, plan, n_jobs=3)
        assert_matches_oracle(serial.values, oracle)
        assert serial.values.tobytes() == threaded.values.tobytes()

    @settings(PROPERTY, max_examples=5)
    @given(small_problems())
    def test_values_bit_identical_to_per_replicate_substreams(self, problem):
        joint, basis, m, seed = problem
        plan = ResamplingPlan(2 * PERMUTATION_CHUNK + 5, seed, (m, joint.n_curves - m))
        split = _SplitStatistic(sample_inner_products(joint, basis.build(joint).functions), m)
        x_rows = np.array(
            [substream(seed, r).permutation(joint.n_curves)[:m] for r in range(plan.B)]
        )
        expected = split.values(x_rows)
        for n_jobs in (1, 3):
            null = permutation_null(joint, basis, plan, n_jobs=n_jobs)
            assert null.n_failed == 0
            assert null.values.tobytes() == expected.tobytes()


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
        plan = ResamplingPlan(1, 5, (2, 2))
        null = spectral_mc_null(
            spectra[:2], spectra[2:], sim, BasisSpec("indicator", {"k": 2}), plan
        )
        assert null.values.shape == (1,) and null.values[0] >= 0.0

    def test_average_of_identical_spectra(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        avg = average_spectrum([s, s, s])
        assert np.array_equal(avg.values, s.values)

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
        plan = ResamplingPlan(4 * SPECTRAL_MC_CHUNK + 1, 21, (4, 4))
        for text in ("indicator:k=3", "pca:d=2"):
            basis = BasisSpec.parse(text)
            serial = spectral_mc_null(spectra[:4], spectra[4:], sim, basis, plan, n_jobs=1)
            threaded = spectral_mc_null(spectra[:4], spectra[4:], sim, basis, plan, n_jobs=3)
            assert np.array_equal(serial.values, threaded.values), text

    @pytest.mark.parametrize("basis", ["indicator:k=8", "pca:d=2"])
    def test_replicate_matches_its_definition(self, basis):
        spectra = self._spectra(10, 600.0, 40)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        plan = ResamplingPlan(SPECTRAL_MC_CHUNK + 2, 9, (5, 5))  # 2 in a partial chunk
        basis = BasisSpec.parse(basis)
        null = spectral_mc_null(spectra[:5], spectra[5:], sim, basis, plan)
        assert null.n_failed == 0
        s_avg = average_spectrum(spectra)
        synth = GaussianSynthesizer(int(round(sim.duration * sim.fs)), sim.fs)
        for r in range(plan.B):
            records = synth.simulate(s_avg, substream(plan.seed, r), 10)
            grid, est = estimate_spectra(records, sim.fs, sim.parzen_L, sim.n_freq)
            joint = FunctionalSample(grid, est)
            scores = sample_inner_products(joint, basis.build(joint).functions)
            qn = qn_statistic(scores[:5], scores[5:]).qn
            assert null.values[r] == pytest.approx(qn, rel=1e-10)


    def test_chunk_size_does_not_change_values(self, monkeypatch):
        spectra = self._spectra(6, 600.0, 60, n_freq=241)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=40, n_freq=241)
        plan = ResamplingPlan(7, 3, (3, 3))
        basis = BasisSpec.parse("indicator:k=2")
        values = []
        for chunk in (1, 3, 7):
            monkeypatch.setattr(resampling, "SPECTRAL_MC_CHUNK", chunk)
            values.append(spectral_mc_null(spectra[:3], spectra[3:], sim, basis, plan).values)
        assert np.array_equal(values[0], values[1]) and np.array_equal(values[0], values[2])

    def test_negative_estimate_raises(self, monkeypatch):
        # c(0) = 0, c(1) = 1 gives a density proportional to cos(omega dt)
        def acov(self, std, rngs, n_records, max_lag):
            return np.broadcast_to(np.eye(1, max_lag + 1, 1), (len(rngs), n_records, max_lag + 1))

        monkeypatch.setattr(GaussianSynthesizer, "autocovariances", acov)
        spectra = self._spectra(4, 600.0, 70)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        plan = ResamplingPlan(3, 1, (2, 2))
        with pytest.raises(NegativeEstimate):
            spectral_mc_null(spectra[:2], spectra[2:], sim, BasisSpec.parse("indicator:k=2"), plan)

    @pytest.mark.parametrize("fs,n_freq", [(1.28, 241), (2.56, 481)])
    def test_spectra_off_the_estimator_grid_rejected(self, fs, n_freq):
        # the null estimates on estimator_grid(1.28, 481): a grid of another
        # size, or of the same size over another band, is refused up front
        spectra = self._spectra(4, 600.0, 70, fs=fs, n_freq=n_freq)
        sim = SimConfig(duration=600.0, fs=1.28, parzen_L=60, n_freq=481)
        plan = ResamplingPlan(3, 1, (2, 2))
        basis = BasisSpec.parse("indicator:k=2")
        with pytest.raises(GridMismatch, match="estimator grid"):
            spectral_mc_null(spectra[:2], spectra[2:], sim, basis, plan)
        with pytest.raises(GridMismatch, match="estimator grid"):
            spectral_mc_test(spectra[:2], spectra[2:], basis, sim, B=3, seed=1)

    def test_window_longer_than_half_the_record_rejected(self):
        spectra = self._spectra(4, 600.0, 70)
        plan = ResamplingPlan(3, 1, (2, 2))
        for L, error in ((0, InvalidParams), (400, RecordTooShort)):
            sim = SimConfig(duration=600.0, fs=1.28, parzen_L=L, n_freq=481)
            with pytest.raises(error):
                spectral_mc_null(spectra[:2], spectra[2:], sim, BasisSpec.parse("indicator:k=2"), plan)


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
        with pytest.raises(ValueError):
            quantile_table(values, 2, (0.5, 0.5))
        with pytest.raises(ValueError):
            quantile_table(values, 2, (0.0, 0.5))
        with pytest.raises(ValueError):
            quantile_table(values, 2, (0.5, 1.0))

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
