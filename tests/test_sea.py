"""Wave spectra, Gaussian synthesis, and Parzen lag-window estimation."""

import numpy as np
import pytest

from fda2s import sea
from fda2s import (
    Grid,
    SpectralDensity,
    TimeSeriesRecord,
    TorsethaugenParams,
    default_frequency_grid,
    estimate_spectrum,
    parzen_window,
    simulate_gaussian,
    torsethaugen_spectrum,
)
from fda2s.rng import substream
from fda2s.errors import (
    InvalidParams,
    NegativeEstimate,
    NonFiniteValue,
    NyquistViolation,
    RecordTooShort,
)


def lag_sum_autocovariances(row, max_lag):
    """Direct O(n L) biased autocovariances of the mean-subtracted row."""
    x = row - row.mean()
    n = x.size
    return np.array([np.dot(x[: n - h], x[h:]) / n for h in range(max_lag + 1)])


class TestTorsethaugen:
    def test_exact_hs_round_trip(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        assert s.hs == pytest.approx(2.0, abs=1e-9)

    def test_peak_scales_with_tp(self):
        grid = default_frequency_grid(1.28, tp=4.0, n_freq=2001)
        s40 = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        s41 = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.1), grid)
        dw = grid.points[1] - grid.points[0]
        assert abs(s40.peak_angular_frequency - 2 * np.pi / 4.0) <= dw
        assert abs(s41.peak_angular_frequency - 2 * np.pi / 4.1) <= dw
        ratio = s40.peak_angular_frequency / s41.peak_angular_frequency
        assert ratio == pytest.approx(4.1 / 4.0, abs=2 * dw)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            TorsethaugenParams(0.0, 4.0)
        with pytest.raises(InvalidParams):
            TorsethaugenParams(2.0, -1.0)

    def test_grid_must_reach_three_peaks(self):
        short = Grid(np.linspace(0.0, 2.0, 101))
        with pytest.raises(InvalidParams):
            torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), short)

    def test_swell_dominated_branch(self):
        # tp above the fully developed boundary 6.6 * hs^(1/3)
        grid = default_frequency_grid(1.28, tp=12.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 12.0), grid)
        assert s.hs == pytest.approx(2.0, abs=1e-9)
        dw = grid.points[1] - grid.points[0]
        assert abs(s.peak_angular_frequency - 2 * np.pi / 12.0) <= dw


class TestSignificantWaveHeight:
    def test_unit_density(self):
        s = SpectralDensity(Grid(np.linspace(0.0, 1.0, 101)), np.ones(101))
        assert s.hs == pytest.approx(4.0)

    def test_zero_density(self):
        s = SpectralDensity(Grid(np.linspace(0.0, 1.0, 11)), np.zeros(11))
        assert s.hs == 0.0

    def test_scales_linearly(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        for c in (0.5, 3.0):
            scaled = SpectralDensity(grid, c**2 * s.values)
            assert scaled.hs == pytest.approx(c * s.hs, rel=1e-12)


class TestSimulateGaussian:
    def test_thirty_minutes_at_1_28_hz(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        rec = simulate_gaussian(s, 1800.0, 1.28, seed=1)
        assert rec.values.size == 2304

    def test_zero_density_gives_zero_record(self):
        s = SpectralDensity(Grid(np.linspace(0.0, 2.0, 33)), np.zeros(33))
        rec = simulate_gaussian(s, 100.0, 2.0, seed=4)
        assert np.all(rec.values == 0.0)

    def test_long_record_variance(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        rec = simulate_gaussian(s, 7200.0, 1.28, seed=0)
        assert rec.values.var() == pytest.approx(0.25, rel=0.10)

    def test_deterministic_per_seed(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        a = simulate_gaussian(s, 300.0, 1.28, seed=9)
        b = simulate_gaussian(s, 300.0, 1.28, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_nearly_uncorrelated(self):
        grid = default_frequency_grid(1.28, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        a = simulate_gaussian(s, 3600.0, 1.28, seed=1).values
        b = simulate_gaussian(s, 3600.0, 1.28, seed=2).values
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(a.size)

    def test_nyquist_violation(self):
        # flat density up to twice the Nyquist rate of fs = 1.28
        grid = Grid(np.linspace(0.0, 8.0, 101))
        s = SpectralDensity(grid, np.ones(101))
        with pytest.raises(NyquistViolation):
            simulate_gaussian(s, 100.0, 1.28, seed=0)

    def test_too_short(self):
        s = SpectralDensity(Grid(np.linspace(0.0, 1.0, 11)), np.ones(11))
        with pytest.raises(InvalidParams):
            simulate_gaussian(s, 0.1, 2.0, seed=0)

    @pytest.mark.parametrize("duration", [np.inf, np.nan, 0.0, -100.0])
    def test_duration_that_makes_no_record_rejected(self, duration):
        # int(round(inf * fs)) raised OverflowError, NaN a bare conversion error
        s = SpectralDensity(Grid(np.linspace(0.0, 0.6, 33)), np.ones(33))
        with pytest.raises(InvalidParams,
                           match=f"duration must be finite and positive, got {duration}"):
            simulate_gaussian(s, duration, 1.28, seed=0)

    @pytest.mark.parametrize("fs", [np.inf, np.nan, 0.0])
    def test_fs_that_makes_no_record_rejected(self, fs):
        s = SpectralDensity(Grid(np.linspace(0.0, 0.6, 33)), np.ones(33))
        with pytest.raises(InvalidParams, match=f"fs must be finite and positive, got {fs}"):
            simulate_gaussian(s, 100.0, fs, seed=0)

    def test_seed_that_is_not_an_integer_rejected(self):
        # 3.7 would otherwise be truncated and give seed 3's record
        s = SpectralDensity(Grid(np.linspace(0.0, 0.6, 33)), np.ones(33))
        with pytest.raises(ValueError, match="got 3.7"):
            simulate_gaussian(s, 100.0, 1.28, 3.7)

    def test_numpy_integer_seed_is_the_same_seed(self):
        s = SpectralDensity(Grid(np.linspace(0.0, 0.6, 33)), np.ones(33))
        assert np.array_equal(simulate_gaussian(s, 100.0, 1.28, np.int64(3)).values,
                              simulate_gaussian(s, 100.0, 1.28, 3).values)


class TestTimeSeriesRecord:
    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_time_rejected(self, t0):
        with pytest.raises(NonFiniteValue, match="t0 must be finite"):
            TimeSeriesRecord(1.28, np.zeros(10), t0=t0)


class TestParzenScorer:
    """Lag-domain scores against those of the estimates of the records `simulate` makes."""

    @staticmethod
    def _spectra(fs):
        # a flat band (every cell, Nyquist included) and a peaked sea spectrum
        flat = SpectralDensity(Grid(np.linspace(0.0, np.pi * fs, 65)), np.ones(65))
        sea_state = torsethaugen_spectrum(
            TorsethaugenParams(2.0, 4.0), default_frequency_grid(fs, tp=4.0))
        return flat, sea_state

    @staticmethod
    def _sim(n, L, fs=1.28):
        """Settings whose records have n samples, Parzen length L on 481 points."""
        sim = sea.SimConfig(duration=n / fs, fs=fs, parzen_L=L)
        assert sea.sample_count(sim.duration, sim.fs) == n
        return sim

    @pytest.mark.parametrize("n", [2304, 2303, 200, 201])
    @pytest.mark.parametrize("L", [1, 60, "half"])
    def test_match_the_simulated_records(self, n, L):
        L = (n - 1) // 2 if L == "half" else L
        sim = self._sim(n, L)
        z = np.stack([substream(5, r).standard_normal((2, 4, n // 2 + 1)) for r in range(3)])
        functions = np.random.default_rng(n).normal(size=(5, sim.n_freq))
        for s in self._spectra(sim.fs):
            scorer = sea.ParzenScorer(sim, s, functions)
            got = scorer.scores(z)
            want = []
            for r in range(3):
                grid, est = sea.estimate_spectra(scorer.synth.simulate(s, substream(5, r), 4),
                                                 sim.fs, L, sim.n_freq)
                want.append((est * grid.weights) @ functions.T)
            want = np.stack(want)
            assert got.shape == (3, 4, 5)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_each_generator_is_its_own_block(self):
        sim = self._sim(500, 30)
        z = np.stack([substream(2, r).standard_normal((2, 3, 251)) for r in range(5)])
        functions = np.random.default_rng(2).normal(size=(4, sim.n_freq))
        for f in (functions, sea.estimate_span(sim)):
            scorer = sea.ParzenScorer(sim, self._spectra(1.28)[1], f)
            together = scorer.scores(z)
            one_by_one = [scorer.scores(z[r:r + 1])[0] for r in range(5)]
            assert np.array_equal(together, np.stack(one_by_one))

    @pytest.mark.parametrize("n", [500, 501])
    def test_draws_are_left_unchanged(self, n):
        sim = self._sim(n, 30)
        scorer = sea.ParzenScorer(sim, self._spectra(1.28)[1], np.ones((2, sim.n_freq)))
        synth = scorer.synth
        z = np.stack([synth.amplitude_normals(substream(4, r), 3) for r in range(2)])
        in_place = np.empty_like(z)
        for r, row in enumerate(in_place):
            assert synth.amplitude_normals(substream(4, r), 3, out=row) is row
        assert np.array_equal(in_place, z)
        before = z.copy()
        scorer.scores(z)
        assert z.tobytes() == before.tobytes()

    def test_lag_tables_are_read_only(self):
        sim = self._sim(64, 5)
        functions = np.ones((3, sim.n_freq))
        scorer = sea.ParzenScorer(sim, self._spectra(1.28)[0], functions)
        z = substream(1, 0).standard_normal((1, 2, 2, 33))
        before = scorer.scores(z)
        assert before.shape == (1, 2, 3)
        for table in (*sea._lag_tables(64, 5), *scorer._tables):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
        # the tables keep nothing of the functions they were built from
        functions[0, 0] = 2.0
        assert scorer.scores(z).tobytes() == before.tobytes()


class TestEstimateSpan:
    """Functions orthonormal in L2(w) whose span holds every Parzen estimate."""

    # n_freq = 9 < L + 1: the span has rank 9
    @pytest.mark.parametrize("L,n_freq", [(60, 481), (60, 9), (1, 481)])
    def test_orthonormal_and_rebuild_the_estimates(self, L, n_freq):
        sim = sea.SimConfig(duration=600.0, parzen_L=L, n_freq=n_freq)
        grid = sea.estimator_grid(sim.fs, n_freq)
        span = sea.estimate_span(sim)
        assert span.shape == (min(L + 1, n_freq), n_freq)
        gram = (span * grid.weights) @ span.T
        assert np.max(np.abs(gram - np.eye(span.shape[0]))) <= 1e-12
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0),
                                  default_frequency_grid(sim.fs, tp=4.0))
        scorer = sea.ParzenScorer(sim, s, span)
        # the estimates from their coordinates, their scores on the span
        coords = scorer.scores(scorer.synth.amplitude_normals(substream(3, 0), 5)[None])[0]
        records = scorer.synth.simulate(s, substream(3, 0), 5)
        est = sea.estimate_spectra(records, sim.fs, L, n_freq)[1]
        assert np.max(np.abs(coords @ span - est)) <= 1e-12 * np.max(np.abs(est))


class TestParzenWindow:
    def test_piecewise_cubic_values(self):
        assert parzen_window(np.array([0.0]))[0] == 1.0
        assert parzen_window(np.array([0.5]))[0] == pytest.approx(0.25)
        assert parzen_window(np.array([1.0]))[0] == 0.0
        assert parzen_window(np.array([0.25]))[0] == pytest.approx(
            1 - 6 * 0.0625 + 6 * 0.015625
        )

    def test_vanishes_beyond_one(self):
        assert np.all(parzen_window(np.array([1.1, 2.0])) == 0.0)

    def test_transform_is_non_negative(self):
        # sum_{|h| <= L} w(h/L) cos(omega h): with biased autocovariances, which
        # are positive semi-definite, a Parzen estimate needs no clip at 0
        omega = np.linspace(0.0, np.pi, 4097)
        for L in range(1, 121):
            lags = np.arange(1, L + 1)
            transform = 1.0 + 2.0 * parzen_window(lags / L) @ np.cos(np.outer(lags, omega))
            assert transform.min() >= -1e-12 * transform.max(), L


class TestEstimateSpectrum:
    def test_white_noise_roughly_flat(self):
        rng = np.random.default_rng(5)
        rec = TimeSeriesRecord(2.0, rng.normal(0, 1, 10_000))
        s = estimate_spectrum(rec, 60)
        lo, hi = int(0.1 * len(s.freq)), int(0.9 * len(s.freq))
        band = s.values[lo:hi]
        assert band.max() / band.min() <= 3.0

    def test_sinusoid_peak_location(self):
        fs = 4.0
        t = np.arange(20_000) / fs
        w0 = 3.0
        rec = TimeSeriesRecord(fs, np.sin(w0 * t))
        s = estimate_spectrum(rec, 60)
        bandwidth = 2 * np.pi * 2 / (60 / fs)
        assert abs(s.peak_angular_frequency - w0) <= bandwidth

    def test_integral_matches_sample_variance(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0, 2, 4000)
        rec = TimeSeriesRecord(1.28, values)
        s = estimate_spectrum(rec, 60)
        biased_var = float(np.mean((values - values.mean()) ** 2))
        assert s.sigma2 == pytest.approx(biased_var, rel=1e-10)

    def test_record_too_short(self):
        rec = TimeSeriesRecord(1.0, np.arange(100.0))
        with pytest.raises(RecordTooShort):
            estimate_spectrum(rec, 60)

    @pytest.mark.parametrize("L", [60.5, 2.0, True])
    def test_non_integer_window_length_rejected(self, L):
        rec = TimeSeriesRecord(1.28, np.random.default_rng(5).normal(size=768))
        with pytest.raises(InvalidParams, match=f"^parzen_L must be an integer, got {L!r}$"):
            estimate_spectrum(rec, L)
        assert np.array_equal(estimate_spectrum(rec, np.int64(2)).values,
                              estimate_spectrum(rec, 2).values)

    # 30-min and 8-h records at 1.28 Hz, odd n, and windows up to the longest
    # check_lag_window allows, (n - 1) // 2, where the zero padding is widest
    @pytest.mark.parametrize("n,L", [(2304, 60), (2303, 60), (1001, 30), (500, 7), (131, 64),
                                     (36864, 60), (2304, 1151)])
    def test_matches_lag_sum_oracle(self, n, L):
        fs, n_freq = 1.28, 97
        rows = np.random.default_rng(n).normal(size=(3, n)).cumsum(axis=1)
        acov = np.array([lag_sum_autocovariances(row, L) for row in rows])
        assert np.max(np.abs(sea._autocovariances(rows, L) - acov)) <= 1e-12 * acov[:, 0].max()
        # the Parzen lag-window sum, clipped and rescaled to the variance
        dt, lags = 1.0 / fs, np.arange(L + 1)
        omega = np.linspace(0.0, np.pi * fs, n_freq)
        coeffs = acov * parzen_window(lags / L) * np.where(lags > 0, 2.0, 1.0)
        dens = np.clip(dt / np.pi * coeffs @ np.cos(np.outer(lags * dt, omega)), 0.0, None)
        dens *= (acov[:, 0] / (dens @ Grid(omega).weights))[:, None]
        grid, values = sea.estimate_spectra(rows, fs, L, n_freq)
        assert np.array_equal(grid.points, omega)
        assert np.max(np.abs(values - dens)) <= 1e-12 * dens.max()

    # `fda2s spectrum` estimates one record at a time, a batch estimates many
    @pytest.mark.parametrize("n", [2303, 2304, 36864])
    def test_row_alone_is_the_same_bits_as_in_a_batch(self, n):
        rows = np.random.default_rng(n).normal(size=(20, n)).cumsum(axis=1)
        batch = sea._autocovariances(rows, 60)
        estimates = sea.estimate_spectra(rows, 1.28)[1]
        for r in range(20):
            assert sea._autocovariances(rows[r:r + 1], 60)[0].tobytes() == batch[r].tobytes()
            assert sea.estimate_spectra(rows[r], 1.28)[1][0].tobytes() == estimates[r].tobytes()

    # the floor is relative to the batch's largest value, at any scale
    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
    def test_negative_estimate_raises(self, monkeypatch, scale):
        # c(0) = 0, c(1) = scale gives a density proportional to cos(omega dt)
        monkeypatch.setattr(sea, "_autocovariances",
                            lambda rows, L: scale * np.eye(1, L + 1, 1))
        rec = TimeSeriesRecord(1.0, np.random.default_rng(0).normal(size=500))
        with pytest.raises(NegativeEstimate):
            estimate_spectrum(rec, 60)

    def test_tiny_record_estimates(self):
        values = 1e-9 * np.random.default_rng(8).normal(size=2000)
        s = estimate_spectrum(TimeSeriesRecord(1.0, values), 60)
        assert np.all(s.values >= 0.0)
        assert s.sigma2 == pytest.approx(np.var(values), rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        rec = TimeSeriesRecord(1.0, np.cumsum(rng.normal(size=2000)))
        s = estimate_spectrum(rec, 60)
        assert np.all(s.values >= 0.0)


class TestRoundTrip:
    def test_estimate_recovers_target(self):
        fs = 1.28
        grid = default_frequency_grid(fs, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        rec = simulate_gaussian(s, 7200.0, fs, seed=0)
        est = estimate_spectrum(rec, 60)
        target = np.interp(est.freq.points, grid.points, s.values)
        num = np.trapezoid((est.values - target) ** 2, est.freq.points)
        den = np.trapezoid(target**2, est.freq.points)
        assert np.sqrt(num / den) <= 0.15
        assert est.sigma2 == pytest.approx(0.25, rel=0.05)
