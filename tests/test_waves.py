"""Downcrossing segmentation, registration to [0, 1], and normalization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

from fda2s import (
    RegistrationSpec,
    TimeSeriesRecord,
    TorsethaugenParams,
    WaveRecord,
    default_frequency_grid,
    downcrossings,
    normalize_sample,
    register_sample,
    segment_waves,
    simulate_gaussian,
    torsethaugen_spectrum,
)
from fda2s.errors import NoWaves, ZeroVariance
from fda2s import waves as waves_module
from fda2s.waves import _registration_basis, _warp_times


def simulated_record(seed=3, duration=1800.0, tp=4.0):
    grid = default_frequency_grid(1.28, tp=tp)
    s = torsethaugen_spectrum(TorsethaugenParams(2.0, tp), grid)
    return simulate_gaussian(s, duration, 1.28, seed=seed)


def where_oracle(rec):
    """Waves by a full-record mask per wave: (raw_times, raw_values, period)."""
    centered = rec.values - rec.values.mean()
    times = rec.times
    crossings = downcrossings(TimeSeriesRecord(rec.fs, centered, rec.t0), 0.0)
    waves = []
    for a, b in zip(crossings[:-1], crossings[1:]):
        inside = np.where((times > a) & (times < b))[0]
        waves.append((np.concatenate([[a], times[inside], [b]]),
                      np.concatenate([[0.0], centered[inside], [0.0]]), float(b - a)))
    return waves


def spline_oracle(wave, spec):
    """One wave through make_interp_spline and the projector; None when dropped."""
    t, v = wave.raw_times, wave.raw_values
    if spec.constrain_upcross:
        ups = [t[i] + (0.0 - v[i]) / (v[i + 1] - v[i]) * (t[i + 1] - t[i])
               for i in range(t.size - 1) if v[i] <= 0.0 < v[i + 1]]
        ups = [x for x in ups if t[0] < x < t[-1]]
        if not ups:
            return None
        t_up = ups[0]
        u = np.array([0.5 * (x - t[0]) / (t_up - t[0]) if x <= t_up
                      else 0.5 + 0.5 * (x - t_up) / (t[-1] - t_up) for x in t])
    else:
        u = (t - t[0]) / (t[-1] - t[0])
    grid, projector = _registration_basis(spec)
    k = min(spec.spline_order - 1, t.size - 1)
    return projector @ make_interp_spline(u, v, k=k)(grid.points)


def register_one(wave, spec):
    """The registered values of one wave on its own."""
    sample, kept, dropped = register_sample([wave], spec, min_interior=0)
    assert kept.tolist() == [0] and dropped == 0
    return sample.values[0]


def random_waves(rng, sizes):
    waves = []
    for n in sizes:
        t = 3.0 + np.cumsum(rng.uniform(0.2, 1.5, n))
        v = rng.normal(size=n)
        v[0] = v[-1] = 0.0
        waves.append(WaveRecord(t, v, float(t[-1] - t[0])))
    return waves


class TestDowncrossings:
    def test_sine_zeros_with_negative_slope(self):
        fs = 200.0
        t = np.arange(0.0, 2.0, 1.0 / fs)
        rec = TimeSeriesRecord(fs, np.sin(2 * np.pi * t))
        times = downcrossings(rec, 0.0)
        assert times.size == 2
        assert np.allclose(times, [0.5, 1.5], atol=1.0 / fs)

    def test_constant_record_empty(self):
        rec = TimeSeriesRecord(1.0, np.full(50, 2.0))
        assert downcrossings(rec, 2.0).size == 0
        assert downcrossings(rec, 0.0).size == 0

    def test_hand_placed_crossing_linear_interpolation(self):
        # values 3,1,-1,-3 at t = 0,1,2,3: crossing of 0 exactly at t = 1.5
        rec = TimeSeriesRecord(1.0, np.array([3.0, 1.0, -1.0, -3.0]))
        times = downcrossings(rec, 0.0)
        assert times.size == 1
        assert times[0] == pytest.approx(1.5, abs=1e-12)
        # crossing of level 2 at t = 0.5
        assert downcrossings(rec, 2.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_sample_exactly_at_level_counts_as_below(self):
        rec = TimeSeriesRecord(1.0, np.array([1.0, 0.0, 1.0, -1.0]))
        times = downcrossings(rec, 0.0)
        # the touch at t=1 is a crossing (previous sample above); the rise
        # back up is not
        assert times.size == 2
        assert times[0] == pytest.approx(1.0, abs=1e-12)


class TestSegmentWaves:
    def test_two_full_sine_cycles(self):
        fs = 500.0
        t = np.arange(0.0, 3.0, 1.0 / fs)
        rec = TimeSeriesRecord(fs, np.sin(2 * np.pi * t))
        waves = segment_waves(rec)
        assert len(waves) == 2
        for w in waves:
            assert w.period == pytest.approx(1.0, abs=1e-6)

    def test_mean_level_definition(self):
        rec = simulated_record(seed=8, duration=600.0)
        shifted = TimeSeriesRecord(rec.fs, rec.values + 5.0, rec.t0)
        a = segment_waves(rec)
        b = segment_waves(shifted)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            assert np.allclose(wa.raw_values, wb.raw_values, atol=1e-9)
            assert wa.period == pytest.approx(wb.period, abs=1e-9)

    def test_thirty_minute_record_count_envelope(self):
        waves = segment_waves(simulated_record(seed=3))
        assert 225 <= len(waves) <= 900  # duration/(2 tp) .. duration/(tp/2)

    def test_no_waves(self):
        rec = TimeSeriesRecord(1.0, np.linspace(0.0, 1.0, 30))
        with pytest.raises(NoWaves):
            segment_waves(rec)

    @pytest.mark.parametrize("rec", [
        TimeSeriesRecord(1.28, simulated_record(seed=14, duration=900.0).values, t0=-417.3),
        # mean exactly 0 and samples exactly on it, at and between crossings
        TimeSeriesRecord(1.0, np.tile([1.0, 0.0, -1.0, 0.0, 2.0, 0.0, 0.0, -2.0], 5)),
        TimeSeriesRecord(1.28, np.tile([1.0, 0.0, -1.0, 0.0], 9), t0=12.5),
    ])
    def test_bit_identical_to_mask_oracle(self, rec):
        waves = segment_waves(rec)
        expected = where_oracle(rec)
        assert len(waves) == len(expected) >= 2
        for w, (t, v, period) in zip(waves, expected):
            assert np.array_equal(w.raw_times, t)
            assert np.array_equal(w.raw_values, v)
            assert w.period == period

    def test_partition_no_gaps_no_overlaps(self):
        waves = segment_waves(simulated_record(seed=4, duration=900.0))
        for prev, nxt in zip(waves[:-1], waves[1:]):
            assert prev.raw_times[-1] == nxt.raw_times[0]


class TestRegisterWave:
    def test_symmetric_wave_roundtrip(self):
        fs = 64.0
        t = np.arange(0.0, 2.0, 1.0 / fs)
        rec = TimeSeriesRecord(fs, -np.sin(2 * np.pi * t))
        wave = segment_waves(rec)[0]
        out = register_one(wave, RegistrationSpec())
        grid, _ = _registration_basis(RegistrationSpec())
        target = -np.sin(2 * np.pi * grid.points)
        assert np.max(np.abs(out - target)) < 1e-3

    def test_linear_map_domain(self):
        t = np.linspace(10.0, 12.5, 11)
        v = -np.sin(2 * np.pi * (t - 10.0) / 2.5)
        wave = WaveRecord(t, v, 2.5)
        sample, kept, dropped = register_sample([wave], RegistrationSpec())
        assert kept.tolist() == [0] and dropped == 0
        assert sample.grid.points[0] == 0.0 and sample.grid.points[-1] == 1.0

    def test_two_piece_map_against_analytic_oracle(self):
        # closed-form wave with its upcrossing at 40% of the span
        t = np.linspace(0.0, 1.0, 201)
        v = np.where(t <= 0.4, -np.sin(np.pi * t / 0.4), np.sin(np.pi * (t - 0.4) / 0.6))
        wave = WaveRecord(t, v, 1.0)
        u, has_up = _warp_times(t, v, np.array([t.size]), True)
        assert has_up.tolist() == [True]
        t_up = 0.4

        def analytic(ti):
            if ti <= t_up:
                return 0.5 * ti / t_up
            return 0.5 + 0.5 * (ti - t_up) / (1.0 - t_up)

        expected = np.array([analytic(ti) for ti in t])
        assert np.max(np.abs(u - expected)) < 1e-6
        vals = register_one(wave, RegistrationSpec(constrain_upcross=True))
        # the registered curve crosses zero going up at 0.5 (spline-level)
        g = _registration_basis(RegistrationSpec(constrain_upcross=True))[0].points
        sign_change = np.where((vals[:-1] <= 0) & (vals[1:] > 0))[0]
        crossing = g[sign_change[0]]
        assert abs(crossing - 0.5) < 0.02

    def test_registered_endpoints_zero(self):
        waves = segment_waves(simulated_record(seed=5, duration=900.0))
        sample, _, _ = register_sample(waves, RegistrationSpec())
        assert np.max(np.abs(sample.values[:, [0, -1]])) <= 1e-8

    def test_no_upcrossing(self):
        # a constrained wave without an upcrossing is dropped; alone, none survive
        t = np.linspace(0.0, 1.0, 21)
        below = WaveRecord(t, -np.sin(np.pi * t), 1.0)  # never above zero
        good = WaveRecord(t, -np.sin(2 * np.pi * t), 1.0)
        spec = RegistrationSpec(constrain_upcross=True)
        u, has_up = _warp_times(t, below.raw_values, np.array([t.size]), True)
        assert has_up.tolist() == [False] and np.all(np.isnan(u))
        sample, kept, dropped = register_sample([below, good], spec, min_interior=0)
        assert dropped == 1 and kept.tolist() == [1]
        assert np.array_equal(sample.values[0], register_one(good, spec))
        with pytest.raises(NoWaves):
            register_sample([below], spec, min_interior=0)

    def test_constrained_sample_all_at_half(self):
        # kept: the waves with an upcrossing, pinned at 0.5 as the oracle pins it
        waves = segment_waves(simulated_record(seed=6, duration=900.0))
        spec = RegistrationSpec(constrain_upcross=True)
        sample, kept, dropped = register_sample(waves, spec)
        expected = [i for i, w in enumerate(waves)
                    if w.raw_times.size - 2 >= 4 and spline_oracle(w, spec) is not None]
        assert kept.tolist() == expected
        assert dropped == len(waves) - len(expected)
        for row, i in zip(sample.values, kept):
            values = spline_oracle(waves[i], spec)
            assert np.max(np.abs(row - values)) <= 1e-10 * np.max(np.abs(values))

    def test_reduced_order_fallback_for_tiny_waves(self):
        wave = WaveRecord(np.array([0.0, 0.4, 1.0]), np.array([0.0, -1.0, 0.0]), 1.0)
        assert np.all(np.isfinite(register_one(wave, RegistrationSpec())))


class TestBatchedRegistration:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 30), min_size=1, max_size=12),
        order=st.integers(2, 8),
        constrain=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_make_interp_spline_oracle(self, sizes, order, constrain, seed):
        waves = random_waves(np.random.default_rng(seed), sizes)
        spec = RegistrationSpec(spline_order=order, constrain_upcross=constrain)
        expected = [spline_oracle(w, spec) for w in waves]
        survivors = [i for i, e in enumerate(expected) if e is not None]
        if not survivors:
            with pytest.raises(NoWaves):
                register_sample(waves, spec, min_interior=0)
            return
        sample, kept, dropped = register_sample(waves, spec, min_interior=0)
        assert kept.tolist() == survivors
        assert dropped == len(waves) - len(survivors)
        assert sample.n_curves == len(survivors)
        for row, i in zip(sample.values, kept):
            values = expected[i]
            assert np.max(np.abs(row - values)) <= 1e-10 * np.max(np.abs(values))

    @pytest.mark.parametrize("spec", [
        RegistrationSpec(), RegistrationSpec(spline_order=5, constrain_upcross=True),
    ])
    @pytest.mark.parametrize("budget", [waves_module.REGISTER_POINTS, 300])
    def test_long_waves_match_oracle(self, monkeypatch, spec, budget):
        # waves of a few hundred samples, as records sampled at 64 Hz give;
        # a budget of 300 points puts every wave in a batch of its own
        monkeypatch.setattr(waves_module, "REGISTER_POINTS", budget)
        waves = random_waves(np.random.default_rng(8), [400, 650, 3, 400, 512])
        expected = [spline_oracle(w, spec) for w in waves]
        sample, kept, dropped = register_sample(waves, spec, min_interior=0)
        assert kept.tolist() == [i for i, e in enumerate(expected) if e is not None]
        assert dropped == len(waves) - kept.size
        for row, i in zip(sample.values, kept):
            values = expected[i]
            assert np.max(np.abs(row - values)) <= 1e-10 * np.max(np.abs(values))

    def test_upcrossing_stays_inside_its_wave(self):
        # the step from one wave's last sample (below zero) to the next
        # wave's first (above it) is no upcrossing of either wave
        below = WaveRecord(np.linspace(0.0, 10.0, 8), -np.linspace(1.0, 2.0, 8), 10.0)
        above = WaveRecord(np.linspace(1.0, 5.0, 8), np.linspace(1.0, 2.0, 8), 4.0)
        spec = RegistrationSpec(constrain_upcross=True)
        with pytest.raises(NoWaves):
            register_sample([below, above], spec, min_interior=0)
        _, kept, dropped = register_sample([below, above], RegistrationSpec())
        assert dropped == 0 and kept.tolist() == [0, 1]

    def test_memory_is_linear_in_wave_length(self):
        # a dense collocation matrix for 4000 samples alone takes 128 MB
        wave = random_waves(np.random.default_rng(9), [4000])[0]
        tracemalloc.start()
        try:
            register_sample([wave], RegistrationSpec(), min_interior=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rows_follow_input_order_with_mixed_sizes(self, monkeypatch):
        waves = random_waves(np.random.default_rng(21), [12, 7, 30, 12, 9, 7, 2, 12, 12, 7])
        spec = RegistrationSpec()
        whole, _, _ = register_sample(waves, spec, min_interior=0)
        # the nine waves of degree 5 split across batches of two or three
        monkeypatch.setattr(waves_module, "REGISTER_POINTS", 3 * (12 + spec.n_grid))
        sample, kept, dropped = register_sample(waves, spec, min_interior=0)
        assert dropped == 0 and kept.tolist() == list(range(len(waves)))
        assert np.array_equal(sample.values, whole.values)
        for row, wave in zip(sample.values, waves):
            single = register_one(wave, spec)
            assert np.max(np.abs(row - single)) <= 1e-12 * np.max(np.abs(single))

    @pytest.mark.parametrize("times,values,message", [
        ([0.0, 0.2, 0.2, 0.5, 0.7, 0.9, 1.0], [0.0, -1.0, -0.5, 0.5, 1.0, 0.3, 0.0],
         "strictly increasing"),
        ([0.0, 0.3, 0.2, 0.5, 0.7, 0.9, 1.0], [0.0, -1.0, -0.5, 0.5, 1.0, 0.3, 0.0],
         "strictly increasing"),
        ([0.0, 0.1, 0.2, np.nan, 0.7, 0.9, 1.0], [0.0, -1.0, -0.5, 0.5, 1.0, 0.3, 0.0],
         "wave times and values must be finite"),
        ([0.0, 0.1, 0.2, 0.5, 0.7, 0.9, 1.0], [0.0, -1.0, -0.5, 0.5, np.inf, 0.3, 0.0],
         "wave times and values must be finite"),
        ([0.0, 0.1, 0.2, 0.5, 0.7, 0.9, 1.0], [0.0, -1.0, np.nan, 0.5, 1.0, 0.3, 0.0],
         "wave times and values must be finite"),
    ])
    def test_bad_times_or_values_raise(self, times, values, message):
        bad = WaveRecord(np.array(times), np.array(values), 1.0)
        good = random_waves(np.random.default_rng(5), [7, 7])
        with pytest.raises(ValueError, match=message):
            register_sample([good[0], bad, good[1]], RegistrationSpec())
        with pytest.raises(ValueError, match=message):
            register_sample([bad], RegistrationSpec(), min_interior=0)


class TestRegistrationObjects:
    def test_projector_is_cached_and_read_only(self):
        spec = RegistrationSpec(constrain_upcross=True)
        grid, projector = _registration_basis(spec)
        assert _registration_basis(RegistrationSpec(constrain_upcross=True))[1] is projector
        with pytest.raises(ValueError):
            projector[0, 0] = 1.0
        wave = random_waves(np.random.default_rng(8), [12])[0]
        first = register_one(wave, RegistrationSpec())
        again = register_one(wave, RegistrationSpec())
        assert np.array_equal(first, again)
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_registered_waves_stay_read_only_with_their_values(self):
        waves = random_waves(np.random.default_rng(9), [3, 9, 14, 2, 11])
        copies = [(w.raw_times.copy(), w.raw_values.copy(), w.period) for w in waves]
        sample, kept, dropped = register_sample(waves, RegistrationSpec())
        # the waves with at least four interior samples, in input order
        assert dropped == 2 and kept.tolist() == [1, 2, 4]
        with pytest.raises(ValueError):
            sample.values[0, 0] = 1.0
        for row, i in zip(sample.values, kept):
            alone = register_one(waves[i], RegistrationSpec())
            assert np.max(np.abs(row - alone)) <= 1e-12 * np.max(np.abs(alone))
        # the input waves are left as they were
        for w, (t, v, period) in zip(waves, copies):
            assert np.array_equal(w.raw_times, t) and np.array_equal(w.raw_values, v)
            assert w.period == period
            for arr in (w.raw_times, w.raw_values):
                with pytest.raises(ValueError):
                    arr[0] = 1.0


class TestRegistrationInvariances:
    def test_time_shift_invariance(self):
        rec = simulated_record(seed=7, duration=600.0)
        shifted = TimeSeriesRecord(rec.fs, rec.values, rec.t0 + 123.0)
        spec = RegistrationSpec()
        a, _, _ = register_sample(segment_waves(rec), spec)
        b, _, _ = register_sample(segment_waves(shifted), spec)
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_amplitude_equivariance(self):
        rec = simulated_record(seed=9, duration=600.0)
        doubled = TimeSeriesRecord(rec.fs, 2.0 * rec.values, rec.t0)
        spec = RegistrationSpec()
        a, _, _ = register_sample(segment_waves(rec), spec)
        b, _, _ = register_sample(segment_waves(doubled), spec)
        assert np.allclose(b.values, 2.0 * a.values, rtol=1e-12, atol=1e-12)


class TestNormalizeSample:
    def test_divides_by_record_std(self):
        rec = simulated_record(seed=10, duration=600.0)
        sample, _, _ = register_sample(segment_waves(rec), RegistrationSpec())
        out = normalize_sample(sample, rec)
        std = np.std(rec.values - rec.values.mean(), ddof=1)
        assert np.allclose(out.values, sample.values / std, rtol=1e-12)

    def test_not_idempotent(self):
        rec = simulated_record(seed=11, duration=600.0)
        sample, _, _ = register_sample(segment_waves(rec), RegistrationSpec())
        once = normalize_sample(sample, rec)
        twice = normalize_sample(once, rec)
        std = np.std(rec.values - rec.values.mean(), ddof=1)
        assert not np.allclose(twice.values, once.values)
        assert np.allclose(twice.values, once.values / std, rtol=1e-12)

    def test_zero_variance(self):
        rec = TimeSeriesRecord(1.0, np.zeros(100))
        grid_rec = simulated_record(seed=12, duration=600.0)
        sample, _, _ = register_sample(segment_waves(grid_rec), RegistrationSpec())
        with pytest.raises(ZeroVariance):
            normalize_sample(sample, rec)

    def test_renormalized_record_has_unit_sigma_hs_four(self):
        from fda2s import estimate_spectrum, significant_wave_height

        rec = simulated_record(seed=13, duration=1800.0)
        std = np.std(rec.values - rec.values.mean(), ddof=1)
        rescaled = TimeSeriesRecord(rec.fs, rec.values / std, rec.t0)
        hs = significant_wave_height(estimate_spectrum(rescaled, 60))
        assert hs == pytest.approx(4.0, rel=0.10)
