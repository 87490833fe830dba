"""Acceptance suite: one test per release criterion, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.  Stochastic criteria use fixed seeds chosen once; tolerances
are pinned in the assertions.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import fda2s as f
from fda2s.grids import sample_inner_products

from test_qn import oracle_qn
from conftest import smooth_curves


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number}: FAIL ({time.time() - start:.1f}s) - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS ({time.time() - start:.1f}s) - {description}")


def tiny_dataset(rng, scheme_text):
    m = int(rng.integers(3, 9))
    n = int(rng.integers(3, 9))
    grid = f.uniform_grid(f.Interval(0.0, 1.0), int(rng.integers(30, 60)))
    x = f.FunctionalSample(grid, smooth_curves(rng, m, grid), "x")
    y = f.FunctionalSample(grid, smooth_curves(rng, n, grid), "y")
    joint = f.concatenate_samples(x, y)
    g = f.BasisSpec.parse(scheme_text).build(joint)
    return x, y, g


def test_criterion_1_oracle_equivalence():
    with criterion(1, "qn matches the monolithic brute-force oracle to 1e-10"):
        rng = np.random.default_rng(42)
        schemes = [
            "indicator:k=1", "indicator:k=2", "indicator:k=3",
            "bspline:order=2,interior=0", "bspline:order=3,interior=0",
            "trig:k=3,parts=both", "trig:k=3,parts=odd",
            "pca:d=1", "pca:d=2",
        ]
        start = time.time()
        for i in range(20):
            scheme = schemes[i % len(schemes)]
            x, y, g = tiny_dataset(rng, scheme)
            res = f.qn_statistic(f.score_matrix(x, g), f.score_matrix(y, g))
            expected = oracle_qn(x.grid.points, x.values, y.values, g.functions)
            assert res.qn == pytest.approx(expected, rel=1e-10), scheme
        assert time.time() - start < 1.0


def test_criterion_2_invariance_suite():
    with criterion(2, "swap/shift/recombination/permutation invariance + determinism"):
        rng = np.random.default_rng(7)
        for i in range(50):
            x, y, g = tiny_dataset(rng, "indicator:k=3")
            sx, sy = f.score_matrix(x, g), f.score_matrix(y, g)
            base = f.qn_statistic(sx, sy).qn

            swapped = f.qn_statistic(sy, sx).qn
            assert swapped == pytest.approx(base, abs=1e-9, rel=1e-9)

            shift = smooth_curves(rng, 1, x.grid)[0]
            xs = f.FunctionalSample(x.grid, x.values + shift)
            ys = f.FunctionalSample(y.grid, y.values + shift)
            shifted = f.qn_statistic(f.score_matrix(xs, g), f.score_matrix(ys, g)).qn
            assert shifted == pytest.approx(base, abs=1e-9, rel=1e-9)

            while True:
                T = rng.normal(size=(3, 3))
                if np.linalg.cond(T) <= 1e6:
                    break
            recombined = f.qn_statistic(sx @ T, sy @ T).qn
            assert recombined == pytest.approx(base, rel=1e-6, abs=1e-6)

            perm = rng.permutation(x.n_curves)
            xp = f.FunctionalSample(x.grid, x.values[perm])
            permuted = f.qn_statistic(f.score_matrix(xp, g), sy).qn
            assert permuted == pytest.approx(base, abs=1e-9, rel=1e-9)

        joint = f.FunctionalSample(
            f.uniform_grid(f.Interval(0.0, 1.0), 41),
            smooth_curves(rng, 40, f.uniform_grid(f.Interval(0.0, 1.0), 41)),
        )
        plan = f.ResamplingPlan(64, 123, (20, 20))
        basis = f.BasisSpec("trig", {"k": 3})
        serial = f.permutation_null(joint, basis, plan, n_jobs=1)
        threaded = f.permutation_null(joint, basis, plan, n_jobs=4)
        assert np.array_equal(serial.values, threaded.values)


def test_criterion_3_chi_square_reference():
    with criterion(3, "chi-square inverse reproduces the reference quantile rows"):
        probs = (0.5, 0.9, 0.95, 0.975, 0.99)
        expected_12 = (11.34, 18.549, 21.026, 23.337, 26.217)
        expected_8 = (7.344, 13.362, 15.507, 17.535, 20.09)
        for k, expected in ((12, expected_12), (8, expected_8)):
            for p, q in zip(probs, expected):
                assert f.chi_square_isf(1.0 - p, k) == pytest.approx(q, abs=5e-3)


def test_criterion_4_null_calibration_at_paper_scale():
    with criterion(4, "166 synthetic waves, trig k=2, split 106/60: quantiles near chi2_2"):
        fs = 1.28
        grid = f.default_frequency_grid(fs, tp=8.0)
        spectrum = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 8.0), grid)
        record = f.simulate_gaussian(spectrum, 1800.0, fs, seed=202)
        waves = f.segment_waves(record)
        sample, _, _ = f.register_sample(waves, f.RegistrationSpec(), label="waves")
        assert sample.n_curves >= 166
        joint = f.FunctionalSample(sample.grid, sample.values[:166], "joint")
        plan = f.ResamplingPlan(2000, 0, (106, 60))
        null = f.permutation_null(joint, f.BasisSpec("trig", {"k": 3}), plan)
        table = f.quantile_table(null.values, 2, (0.5, 0.9, 0.95, 0.975, 0.99))
        reference = np.array([1.386, 4.605, 5.992, 7.378, 9.21])
        deviation = np.abs(table.empirical - reference) / reference
        assert np.max(deviation) <= 0.08, deviation


def test_criterion_5_small_sample_bias_sign():
    with criterion(5, "10-vs-10 spectral MC: asymptotic quantiles underestimate"):
        fs = 1.28
        grid = f.default_frequency_grid(fs, tp=4.0)
        spectrum = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 4.0), grid)
        sim = f.SimConfig(1800.0, fs, 60, 481)
        basis = f.BasisSpec("indicator", {"k": 8})
        negatives = 0
        for seed in range(10):
            spectra = [
                f.estimate_spectrum(
                    f.simulate_gaussian(spectrum, 1800.0, fs,
                                        seed=f.substream(1000 + seed, i)), 60)
                for i in range(20)
            ]
            plan = f.ResamplingPlan(500, seed, (10, 10))
            null = f.spectral_mc_null(
                spectra[:10], spectra[10:], sim, basis, plan, n_jobs=4
            )
            table = f.quantile_table(null.values, 8, (0.9, 0.95, 0.975))
            negatives += bool(np.all(table.relative_error < 0))
        assert negatives >= 8, negatives


def test_criterion_6_power_on_close_alternatives():
    with criterion(6, "Torsethaugen Tp 4.0 vs 4.1: MC p-value small in most seeds"):
        fs = 1.28
        grid = f.default_frequency_grid(fs, tp=4.0)
        s40 = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 4.0), grid)
        s41 = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 4.1), grid)
        sim = f.SimConfig(1800.0, fs, 60, 481)
        basis = f.BasisSpec("indicator", {"k": 8})
        hits = 0
        for seed in range(10):
            sx = [
                f.estimate_spectrum(
                    f.simulate_gaussian(s40, 1800.0, fs,
                                        seed=f.substream(2000 + seed, i)), 60)
                for i in range(10)
            ]
            sy = [
                f.estimate_spectrum(
                    f.simulate_gaussian(s41, 1800.0, fs,
                                        seed=f.substream(3000 + seed, i)), 60)
                for i in range(10)
            ]
            result = f.spectral_mc_test(sx, sy, basis, sim, B=1000, seed=seed,
                                        n_jobs=4)
            hits += result.p_resampled <= 0.10
        assert hits >= 6, hits


def test_criterion_7_spectral_round_trip():
    with criterion(7, "simulate + estimate recovers the target density"):
        fs = 1.28
        grid = f.default_frequency_grid(fs, tp=4.0)
        target = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 4.0), grid)
        assert f.significant_wave_height(target) == pytest.approx(2.0, abs=1e-9)
        record = f.simulate_gaussian(target, 7200.0, fs, seed=0)
        estimate = f.estimate_spectrum(record, 60)
        resampled = np.interp(estimate.freq.points, grid.points, target.values)
        num = np.trapezoid((estimate.values - resampled) ** 2, estimate.freq.points)
        den = np.trapezoid(resampled**2, estimate.freq.points)
        assert np.sqrt(num / den) <= 0.15
        assert estimate.sigma2 == pytest.approx(0.25, rel=0.05)


def test_criterion_8_asymmetry_detection():
    with criterion(8, "odd-trig test detects shape asymmetry and holds its level"):
        grid = f.uniform_grid(f.Interval(0.0, 1.0), 101)
        t = grid.points

        def wave_group(rng, n, asym_amp):
            rows = -rng.normal(1.0, 0.1, (n, 1)) * np.sin(2 * np.pi * t)
            rows = rows + asym_amp * np.sin(4 * np.pi * t)
            for l in (1, 2, 3):
                rows = rows + rng.normal(0, 0.05, (n, 1)) * np.sin(2 * np.pi * l * t)
            return f.FunctionalSample(grid, rows)

        basis = f.BasisSpec("trig", {"k": 3, "parts": "odd"})
        alt_rejections = 0
        null_rejections = 0
        for seed in range(10):
            rng = np.random.default_rng(800 + seed)
            asym = wave_group(rng, 150, 0.3)
            sym = wave_group(rng, 150, 0.0)
            res = f.run_test(asym, sym, basis)
            assert res.k == 1
            alt_rejections += res.p_asymptotic <= 0.05
            res0 = f.run_test(wave_group(rng, 150, 0.0), wave_group(rng, 150, 0.0), basis)
            null_rejections += res0.p_asymptotic <= 0.05
        assert alt_rejections >= 9, alt_rejections
        assert null_rejections <= 2, null_rejections


def test_criterion_9_pipeline_sanity():
    with criterion(9, "segmentation partitions the record; endpoints registered to 0"):
        fs = 1.28
        grid = f.default_frequency_grid(fs, tp=4.0)
        spectrum = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 4.0), grid)
        record = f.simulate_gaussian(spectrum, 1800.0, fs, seed=31)
        waves = f.segment_waves(record)
        assert 225 <= len(waves) <= 900  # duration/(2 tp) .. duration/(tp/2)
        for prev, nxt in zip(waves[:-1], waves[1:]):
            assert prev.raw_times[-1] == nxt.raw_times[0]  # no gaps, no overlaps
        sample, registered, dropped = f.register_sample(waves, f.RegistrationSpec())
        assert sample.n_curves + dropped == len(waves)
        assert np.max(np.abs(sample.values[:, [0, -1]])) <= 1e-8
