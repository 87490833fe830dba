"""Downcrossing segmentation, registration to [0, 1], and normalization."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline, make_interp_spline

from fda2s import (
    RegistrationSpec,
    TimeSeriesRecord,
    TorsethaugenParams,
    Waves,
    default_frequency_grid,
    downcrossings,
    normalize_sample,
    register_sample,
    segment_waves,
    simulate_gaussian,
    torsethaugen_spectrum,
)
from fda2s.errors import IllConditioned, NoWaves, ZeroVariance
from fda2s import waves as waves_module
from fda2s.waves import (
    _grid_runs,
    _interpolate,
    _not_a_knot,
    _registration_basis,
    _site_intervals,
    _warp_times,
)


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


@functools.cache
def dense_projector(spec):
    """Common grid and the dense projector ``D (D'D)^-1 D'`` of the registration
    basis with its end coefficients pinned, built by scipy and a dense solve."""
    points = np.linspace(0.0, 1.0, spec.n_grid)
    k = spec.spline_order - 1
    knots = np.concatenate([np.zeros(k), np.linspace(0.0, 1.0, spec.n_knots), np.ones(k)])
    design = BSpline.design_matrix(points, knots, k).toarray()[:, 1:-1]
    return points, design @ np.linalg.solve(design.T @ design, design.T)


def spline_oracle(wave, spec):
    """One wave through make_interp_spline and a dense projector; None when dropped."""
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
    points, projector = dense_projector(spec)
    k = min(spec.spline_order - 1, t.size - 1)
    return projector @ make_interp_spline(u, v, k=k)(points)


def waves_of(*waves):
    """One `Waves` set from (times, values) pairs or `Wave` views."""
    times, values = zip(*(wave[:2] for wave in waves))
    offsets = np.concatenate([[0], np.cumsum([len(t) for t in times])])
    return Waves(np.concatenate(times), np.concatenate(values), offsets)


def register_one(wave, spec):
    """The registered values of one wave on its own."""
    sample, kept, dropped = register_sample(waves_of(wave), spec, min_interior=0)
    assert kept.tolist() == [0] and dropped == 0
    return sample.values[0]


def random_waves(rng, sizes):
    waves = []
    for n in sizes:
        t = 3.0 + np.cumsum(rng.uniform(0.2, 1.5, n))
        v = rng.normal(size=n)
        v[0] = v[-1] = 0.0
        waves.append((t, v))
    return waves_of(*waves)


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
        simulate_gaussian(torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0),
                                                default_frequency_grid(64.0, tp=4.0)),
                          120.0, 64.0, seed=15),
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


class TestWaves:
    def test_length_and_indexing(self):
        sizes = [2, 5, 3, 4]
        ws = waves_of(*[(np.arange(n) + 10.0 * i, np.full(n, float(i)))
                        for i, n in enumerate(sizes)])
        assert len(ws) == 4 and ws.offsets.tolist() == [0, 2, 7, 10, 14]
        assert ws[1].raw_times.tolist() == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert ws[-1].raw_values.tolist() == [3.0] * 4
        assert ws[2].period == 2.0 and type(ws[2].period) is float
        with pytest.raises(IndexError):
            ws[4]
        part = ws[1:3]
        assert isinstance(part, Waves) and len(part) == 2
        assert part.offsets.tolist() == [0, 5, 8] and part.periods.tolist() == [4.0, 2.0]
        for got, want in zip(part, [ws[1], ws[2]]):
            assert np.array_equal(got.raw_times, want.raw_times)
            assert np.array_equal(got.raw_values, want.raw_values)
        assert [w.period for w in ws[::-2]] == [3.0, 4.0]
        assert len(ws[4:]) == 0
        assert [w.raw_times.size for w in ws] == sizes

    def test_items_are_read_only_views(self):
        ws = segment_waves(simulated_record(seed=4, duration=300.0))
        wave = ws[3]
        assert np.shares_memory(wave.raw_times, ws.times)
        assert np.shares_memory(wave.raw_values, ws.values)
        for arr in (wave.raw_times, wave.raw_values, ws.times, ws.values, ws.offsets,
                    ws.periods):
            with pytest.raises(ValueError):
                arr[0] = 1
        # the constructor copies what it is given
        t, v = np.array([0.0, 1.0, 2.0]), np.array([0.0, -1.0, 0.0])
        one = Waves(t, v, [0, 3])
        t[1] = v[1] = 5.0
        assert one[0].raw_times.tolist() == [0.0, 1.0, 2.0]
        assert one[0].raw_values.tolist() == [0.0, -1.0, 0.0]

    def test_constructor_keeps_only_owned_read_only_arrays(self):
        t, v = np.array([0.0, 1.0, 2.0]), np.array([0.0, -1.0, 0.0])
        offsets = np.array([0, 3], dtype=np.intp)
        for arr in (t, v, offsets):
            arr.flags.writeable = False
        one = Waves(t, v, offsets)
        assert one.times is t and one.values is v and one.offsets is offsets
        # a read-only view of a writeable array, or another dtype, is copied
        base = np.array([0.0, 1.0, 2.0])
        view = base.view()
        view.flags.writeable = False
        other = Waves(view, v.astype(np.float32), offsets)
        assert not np.shares_memory(other.times, base) and other.values.dtype == np.float64
        base[1] = 5.0
        assert other[0].raw_times.tolist() == [0.0, 1.0, 2.0]
        # kept arrays go through every check too
        bad = np.array([0.0, 2.0, 1.0])
        bad.flags.writeable = False
        with pytest.raises(ValueError, match="strictly increasing"):
            Waves(bad, v, offsets)

    @pytest.mark.parametrize("fs", [1.28, 64.0])
    def test_segmented_waves_share_their_crossings(self, fs):
        grid = default_frequency_grid(fs, tp=4.0)
        s = torsethaugen_spectrum(TorsethaugenParams(2.0, 4.0), grid)
        ws = segment_waves(simulate_gaussian(s, 600.0, fs, seed=16))
        first, last = ws.offsets[:-1], ws.offsets[1:] - 1
        assert np.array_equal(ws.times[last[:-1]], ws.times[first[1:]])
        assert np.all(ws.values[first] == 0.0) and np.all(ws.values[last] == 0.0)
        assert np.array_equal(ws.periods, ws.times[last] - ws.times[first])

    @pytest.mark.parametrize("times,values,offsets,message", [
        ([0.0, 1.0, 2.0], [0.0, 0.0], [0, 3], "matching time/value arrays"),
        ([[0.0, 1.0]], [[0.0, 0.0]], [0, 2], "matching time/value arrays"),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0] * 5, [0, 1, 5], "length >= 2"),
        ([0.0, 1.0, 2.0], [0.0] * 3, [0, 2], "^offsets must run from 0 to the sample count$"),
        ([0.0, 1.0, 2.0], [0.0] * 3, [1, 3], "^offsets must run from 0 to the sample count$"),
        ([0.0, 1.0, 2.0], [0.0] * 3, [], "^offsets must run from 0 to the sample count$"),
        ([0.0, np.inf, 2.0], [0.0] * 3, [0, 3], "must be finite"),
        ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0], [0, 3], "must be finite"),
        ([0.0, 1.0, 1.0], [0.0] * 3, [0, 3], "strictly increasing"),
        ([0.0, 2.0, 3.0, 1.0], [0.0] * 4, [0, 2, 4], "strictly increasing"),
    ])
    def test_construction_rejects_bad_waves(self, times, values, offsets, message):
        with pytest.raises(ValueError, match=message):
            Waves(np.array(times), np.array(values), offsets)

    def test_waves_may_restart_in_time(self):
        # only the steps inside a wave must increase
        ws = Waves(np.array([5.0, 6.0, 0.0, 1.0]), np.zeros(4), [0, 2, 4])
        assert len(ws) == 2 and ws.periods.tolist() == [1.0, 1.0]

    def test_periods_are_derived_and_read_only(self):
        # each wave's period runs from its first sample to its last
        ws = Waves(np.array([0.0, 1.0, 2.0, 2.0, 3.5]), np.zeros(5), [0, 3, 5])
        assert ws.periods.tolist() == [2.0, 1.5] and ws[0].period == 2.0
        assert not ws.periods.flags.writeable
        with pytest.raises(TypeError):
            Waves(np.array([0.0, 1.0, 2.0]), np.zeros(3), [0, 3], [99.0])


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
        sample, kept, dropped = register_sample(waves_of((t, v)), RegistrationSpec())
        assert kept.tolist() == [0] and dropped == 0
        assert sample.grid.points[0] == 0.0 and sample.grid.points[-1] == 1.0

    def test_two_piece_map_against_analytic_oracle(self):
        # closed-form wave with its upcrossing at 40% of the span
        t = np.linspace(0.0, 1.0, 201)
        v = np.where(t <= 0.4, -np.sin(np.pi * t / 0.4), np.sin(np.pi * (t - 0.4) / 0.6))
        wave = (t, v, 1.0)
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
        below = (t, -np.sin(np.pi * t))  # never above zero
        good = (t, -np.sin(2 * np.pi * t))
        spec = RegistrationSpec(constrain_upcross=True)
        u, has_up = _warp_times(t, below[1], np.array([t.size]), True)
        assert has_up.tolist() == [False] and np.all(np.isnan(u))
        sample, kept, dropped = register_sample(waves_of(below, good), spec, min_interior=0)
        assert dropped == 1 and kept.tolist() == [1]
        assert np.array_equal(sample.values[0], register_one(good, spec))
        with pytest.raises(NoWaves):
            register_sample(waves_of(below), spec, min_interior=0)

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
        wave = (np.array([0.0, 0.4, 1.0]), np.array([0.0, -1.0, 0.0]), 1.0)
        assert np.all(np.isfinite(register_one(wave, RegistrationSpec())))


class TestBatchedRegistration:
    @settings(max_examples=60)
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
        pair = waves_of((np.linspace(0.0, 10.0, 8), -np.linspace(1.0, 2.0, 8)),
                        (np.linspace(1.0, 5.0, 8), np.linspace(1.0, 2.0, 8)))
        spec = RegistrationSpec(constrain_upcross=True)
        with pytest.raises(NoWaves):
            register_sample(pair, spec, min_interior=0)
        _, kept, dropped = register_sample(pair, RegistrationSpec())
        assert dropped == 0 and kept.tolist() == [0, 1]

    def test_memory_is_linear_in_wave_length(self):
        # a dense collocation matrix for 4000 samples alone takes 128 MB
        wave = random_waves(np.random.default_rng(9), [4000])
        tracemalloc.start()
        try:
            register_sample(wave, RegistrationSpec(), min_interior=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rows_are_fitted_where_they_are_interpolated(self):
        # the interpolated rows, fitted in place, and the fit's work copy are
        # the only (waves, grid) arrays live at once
        waves = segment_waves(simulated_record(seed=4, duration=8 * 3600.0, tp=8.0))
        spec = RegistrationSpec()
        register_sample(waves[:20], spec)  # the basis, and scipy's import
        tracemalloc.start()
        try:
            sample, _, _ = register_sample(waves, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sample.n_curves > 4000
        assert peak <= 2.5 * sample.values.nbytes

    def test_rows_follow_input_order_with_mixed_sizes(self, monkeypatch):
        waves = random_waves(np.random.default_rng(21), [12, 7, 30, 12, 9, 7, 2, 12, 12, 7])
        spec = RegistrationSpec()
        whole, _, _ = register_sample(waves, spec, min_interior=0)
        # a batch holds samples plus an eighth of the grid points: the nine
        # waves of degree 5 split into batches of two, three and four, after
        # the one wave of degree 1
        monkeypatch.setattr(waves_module, "REGISTER_POINTS", 3 * (12 + spec.n_grid // 8))
        batches = []

        def counted(u, values, lengths, k, points, band, out):
            batches.append(lengths.size)
            return _interpolate(u, values, lengths, k, points, band, out)

        monkeypatch.setattr(waves_module, "_interpolate", counted)
        sample, kept, dropped = register_sample(waves, spec, min_interior=0)
        assert batches == [1, 2, 3, 4]
        assert dropped == 0 and kept.tolist() == list(range(len(waves)))
        assert np.array_equal(sample.values, whole.values)
        for row, wave in zip(sample.values, waves):
            assert np.array_equal(row, register_one(wave, spec))

    @settings(max_examples=40)
    @given(
        sizes=st.lists(st.integers(3, 600), min_size=1, max_size=12),
        constrain=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batches_do_not_change_the_result(self, sizes, constrain, seed):
        # the rows are the same bits whether a wave shares its batch with
        # none, some or all of the others
        waves = random_waves(np.random.default_rng(seed), sizes)
        spec = RegistrationSpec(constrain_upcross=constrain)
        results = []
        for budget in (waves_module.REGISTER_POINTS, 300, 2**20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(waves_module, "REGISTER_POINTS", budget)
                try:
                    results.append(register_sample(waves, spec, min_interior=0))
                except NoWaves:
                    results.append(None)
        first = results[0]
        for other in results[1:]:
            if first is None:
                assert other is None
                continue
            assert np.array_equal(other[0].values, first[0].values)
            assert np.array_equal(other[1], first[1]) and other[2] == first[2]

    @pytest.mark.parametrize("constrain", [False, True])
    def test_one_wave_alone_is_its_row_in_a_set_of_fifty(self, constrain):
        # the common-basis fit works curve by curve: no row depends on the others
        rng = np.random.default_rng(50)
        waves = random_waves(rng, rng.integers(8, 400, 50))
        spec = RegistrationSpec(constrain_upcross=constrain)
        sample, kept, _ = register_sample(waves, spec)
        assert kept.size > 25
        for row, i in zip(sample.values, kept):
            assert np.array_equal(row, register_one(waves[i], spec))

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
        # the set rejects the wave when it is built, before any registration
        bad = (np.array(times), np.array(values))
        good = random_waves(np.random.default_rng(5), [7, 7])
        with pytest.raises(ValueError, match=message):
            waves_of(good[0], bad, good[1])
        with pytest.raises(ValueError, match=message):
            waves_of(bad)

    @pytest.mark.parametrize("constrain", [False, True])
    def test_constant_times_raise_on_both_paths(self, constrain):
        # a wave whose times are all equal has no time span to warp over;
        # the set that would hold it cannot be built, whatever the path
        good = random_waves(np.random.default_rng(5), [9, 9, 9])
        values = [0.0, -1.0, -0.5, 0.5, 1.0, 0.8, 0.5, 0.2, 0.0]
        bad = (np.full(9, 2.0), np.array(values))
        spec = RegistrationSpec(constrain_upcross=constrain)
        with pytest.raises(ValueError, match="strictly increasing"):
            register_sample(waves_of(*good, bad), spec)

    @pytest.mark.parametrize("constrain", [False, True])
    def test_non_finite_wave_raises_on_both_paths(self, constrain):
        # the NaN hides the only upcrossing: the constrained path must not
        # count the wave as one without an upcrossing and drop it, and the
        # set that would hold it cannot be built
        values = [0.0, -1.0, -0.5, np.nan, 1.0, 0.8, 0.5, 0.2, 0.0]
        bad = (np.arange(9.0), np.array(values))
        good = random_waves(np.random.default_rng(5), [9])[0]
        with pytest.raises(ValueError, match="wave times and values must be finite"):
            register_sample(waves_of(good, bad), RegistrationSpec(constrain_upcross=constrain))


def interpolate_one(u, v, k, points):
    """One wave's interpolant on points, and make_interp_spline's."""
    band, out = np.empty((3 * k + 1) * u.size), np.empty((1, points.size))
    got = _interpolate(u, v, np.array([u.size]), k, points, band, out)[0]
    return got, make_interp_spline(u, v, k=k)(points)


class TestGridEvaluation:
    """Interval lookup and piecewise-polynomial evaluation at their edge cases."""

    GRID = _registration_basis(RegistrationSpec())[0].points

    @pytest.mark.parametrize("k, u", [
        # odd k: interior sites are knots; sites on grid points 50 and 75
        (5, np.array([0.0, 0.08, 0.2, 0.31, 0.5, 0.66, 0.75, 0.87, 0.93, 1.0])),
        # even k: midpoints of sites are knots; 0.45 and 0.55 meet at 0.5
        (4, np.array([0.0, 0.1, 0.22, 0.45, 0.55, 0.7, 0.83, 1.0])),
        (3, np.array([0.0, 0.13, 0.5, 0.72, 1.0])),
    ])
    def test_inner_knot_on_a_grid_point(self, k, u):
        inner = (u[(k + 1) // 2:u.size - (k + 1) // 2] if k % 2
                 else (u[k // 2:u.size - k // 2 - 1] + u[k // 2 + 1:u.size - k // 2]) / 2)
        assert 0.5 in inner and self.GRID[50] == 0.5
        v = np.random.default_rng(17).normal(size=u.size)
        got, want = interpolate_one(u, v, k, self.GRID)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_upcrossing_sample_warps_onto_a_grid_point(self):
        # a sample exactly at zero before a rise is the upcrossing: pinned at
        # u = 0.5, it is an inner knot on grid point 50
        t = np.linspace(0.0, 1.0, 13)
        v = np.array([0.0, -0.4, -1.1, -0.9, -0.6, -0.2, 0.0, 0.3, 0.9, 1.2, 0.8, 0.4, 0.0])
        spec = RegistrationSpec(constrain_upcross=True)
        u, has_up = _warp_times(t, v, np.array([t.size]), True)
        assert has_up.tolist() == [True] and u[6] == 0.5 == self.GRID[50]
        wave = waves_of((t, v))[0]
        want, got = spline_oracle(wave, spec), register_one(wave, spec)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_closed_right_end(self, k):
        # u = 1 belongs to the last knot interval, and the interpolant meets
        # the last sample there
        u = np.array([0.0, 0.05, 0.21, 0.34, 0.4, 0.62, 0.8, 0.97, 1.0])
        v = np.random.default_rng(18).normal(size=u.size)
        got, want = interpolate_one(u, v, k, self.GRID)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert abs(got[-1] - v[-1]) <= 1e-10 * np.max(np.abs(v))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_grid_runs_match_a_per_wave_search(self, k):
        # sites on grid points (multiples of 0.01), so odd-k knots and some
        # even-k midpoints fall exactly on grid points; waves of k + 1 sites
        # have no interior knots; one wave has several knots between two
        # grid points, whose intervals hold none
        rng = np.random.default_rng(30 + k)
        sites = []
        for n in [k + 1, 14, k + 1, 40, k + 2, k + 1, 9 + k]:
            inside = np.sort(rng.choice(np.arange(1, 100), n - 2, replace=False))
            sites.append(self.GRID[np.concatenate([[0], inside, [100]])])
        sites.append(np.concatenate([self.GRID[:50:7], 0.5 + np.arange(1, 2 * k + 2) * 1e-3,
                                     self.GRID[60::10]]))
        lengths = np.array([s.size for s in sites])
        u = np.concatenate(sites)
        knots, _, kstart, inner = _not_a_knot(u, lengths, k)
        if k % 2:
            assert np.isin(knots[inner], self.GRID).sum() >= 30
        else:
            assert np.isin(knots[inner], self.GRID).any()
        assert (lengths - k - 1 == 0).sum() == 3
        lp, runs = _grid_runs(self.GRID, knots, kstart, inner, k)
        assert np.all(runs > 0) and np.all(np.diff(lp) > 0)
        expected = []
        for w, n in enumerate(lengths):
            wave_knots = knots[kstart[w]:kstart[w] + n + k + 1]
            l = np.searchsorted(wave_knots, self.GRID, "right") - 1
            expected.append(kstart[w] + np.minimum(l, n - 1))  # the right end closed
        assert np.array_equal(np.repeat(lp, runs), np.concatenate(expected))
        v = rng.normal(size=u.size)
        got = _interpolate(u, v, lengths, k, self.GRID, np.empty((3 * k + 1) * u.size),
                           np.empty((lengths.size, self.GRID.size)))
        starts = np.cumsum(lengths) - lengths
        for row, a, n in zip(got, starts, lengths):
            want = make_interp_spline(u[a:a + n], v[a:a + n], k=k)(self.GRID)
            assert np.max(np.abs(row - want)) <= 1e-10 * np.max(np.abs(want))

    def test_reduced_degree_waves_without_inner_knots(self):
        # n <= spline order - 1 samples: degree n - 1, one knot interval
        spec = RegistrationSpec()
        waves = random_waves(np.random.default_rng(19), [2, 3, 4, 5, 6])
        sample, kept, _ = register_sample(waves, spec, min_interior=0)
        assert kept.tolist() == [0, 1, 2, 3, 4]
        for row, wave in zip(sample.values, waves):
            want = spline_oracle(wave, spec)
            assert np.max(np.abs(row - want)) <= 1e-10 * np.max(np.abs(want))
        u = np.array([0.0, 0.3, 0.45, 0.8, 1.0])
        got, want = interpolate_one(u, np.array([0.0, -1.0, 0.5, 2.0, 0.0]), 4, self.GRID)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def searched_intervals(u, lengths, k, knots, kstart):
    """Knot interval of each site by a binary search per wave, the right end closed."""
    starts = np.cumsum(lengths) - lengths
    return np.concatenate([
        kstart[w] + np.minimum(np.searchsorted(knots[kstart[w]:kstart[w] + n + k + 1],
                                               u[a:a + n], "right") - 1, n - 1)
        for w, (a, n) in enumerate(zip(starts, lengths))])


class TestSiteIntervals:
    """The not-a-knot rule fixes each site's knot interval by its index."""

    @settings(max_examples=60)
    @given(
        k=st.integers(1, 7),
        extra=st.lists(st.integers(0, 598), min_size=1, max_size=8),
        evenly=st.booleans(),
        constrain=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_matches_a_search(self, k, extra, evenly, constrain, seed):
        rng = np.random.default_rng(seed)
        # wave lengths 2-600, at least k + 1; inner samples evenly spaced as
        # a record's are, or not, between crossings at random fractions
        lengths = np.array([max(2 + e, k + 1) for e in extra])
        times = []
        for n in lengths:
            step = np.full(n - 1, 0.25) if evenly else rng.uniform(0.05, 1.0, n - 1)
            step[[0, -1]] *= rng.uniform(0.0, 1.0, 2) + 1e-9
            times.append(5.0 + np.concatenate([[0.0], np.cumsum(step)]))
        values = np.concatenate([np.r_[0.0, rng.normal(size=n - 2), 0.0] for n in lengths])
        u, has_up = _warp_times(np.concatenate(times), values, lengths, constrain)
        inside = np.repeat(has_up, lengths)
        u, lengths = u[inside], lengths[has_up]
        if not lengths.size:
            return
        knots, _, kstart, _ = _not_a_knot(u, lengths, k)
        expected = searched_intervals(u, lengths, k, knots, kstart)
        assert np.array_equal(_site_intervals(u, lengths, k, knots, kstart), expected)

    @pytest.mark.parametrize("k", [2, 4])
    def test_a_midpoint_rounded_onto_its_left_site(self, k):
        # sites i and i + 1 adjacent doubles: their midpoint, a knot for even
        # k, rounds to one of them, here to site i, whose interval it opens
        i = k // 2 + 1
        for a in 0.5 + np.arange(2) * 2.0**-53:
            if (a + np.nextafter(a, 1.0)) / 2 == a:
                break
        u = np.concatenate([np.linspace(0.0, 0.4, i), [a, np.nextafter(a, 1.0)],
                            np.linspace(0.6, 1.0, k + 1)])
        lengths = np.array([u.size])
        knots, _, kstart, _ = _not_a_knot(u, lengths, k)
        assert a in knots[k + 1:u.size]
        expected = searched_intervals(u, lengths, k, knots, kstart)
        assert np.array_equal(_site_intervals(u, lengths, k, knots, kstart), expected)
        assert knots[expected[i]] == a


class TestRegistrationObjects:
    @pytest.mark.parametrize("spec", [RegistrationSpec(n_knots=90),
                                      RegistrationSpec(n_knots=200),
                                      RegistrationSpec(n_grid=51)])
    def test_spec_the_grid_cannot_fit_is_rejected(self, spec):
        # 92 pinned functions on 101 points: normal matrix condition ~5e14;
        # 202 functions on 101 points, and 63 on 51, outnumber the points
        waves = random_waves(np.random.default_rng(8), [12, 15])
        with pytest.raises(IllConditioned):
            register_sample(waves, spec)

    def test_spec_without_a_free_function_is_rejected(self):
        # order + knots - 2 functions, both end ones pinned
        with pytest.raises(ValueError, match="spline order 2 with 2 knot sites"):
            RegistrationSpec(spline_order=2, n_knots=2)
        waves = random_waves(np.random.default_rng(8), [12, 15])
        for order, knots in ((2, 3), (3, 2)):  # one free function
            sample, _, _ = register_sample(waves, RegistrationSpec(spline_order=order,
                                                                   n_knots=knots))
            assert np.all(np.isfinite(sample.values))

    def test_the_fit_is_built_once_per_spec(self):
        spec = RegistrationSpec(spline_order=5, n_knots=40)
        grid, fit = built = _registration_basis(spec)
        assert _registration_basis(RegistrationSpec(spline_order=5, n_knots=40)) is built
        fresh_grid, fresh_fit = _registration_basis.__wrapped__(spec)
        values = np.random.default_rng(3).normal(size=(7, spec.n_grid))
        assert np.array_equal(grid.points, fresh_grid.points)
        assert fit(values).tobytes() == fresh_fit(values).tobytes()
        assert fit(values).tobytes() == fresh_fit(values).tobytes()  # unchanged by use

    def test_repeated_registration_is_equal_and_read_only(self):
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
            assert np.array_equal(row, register_one(waves[i], RegistrationSpec()))
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
        from fda2s import estimate_spectrum

        rec = simulated_record(seed=13, duration=1800.0)
        std = np.std(rec.values - rec.values.mean(), ddof=1)
        rescaled = TimeSeriesRecord(rec.fs, rec.values / std, rec.t0)
        hs = estimate_spectrum(rescaled, 60).hs
        assert hs == pytest.approx(4.0, rel=0.10)
