"""The command-line interface: exit codes, determinism, file outputs."""

import json

import numpy as np
import pytest

from fda2s.cli import main
from fda2s.io import (
    format_test_result,
    read_functional_sample,
    read_record,
    write_functional_sample,
    write_record,
)
from fda2s import (
    BasisSpec,
    FunctionalSample,
    Interval,
    RegistrationSpec,
    SimConfig,
    SpectralDensity,
    TimeSeriesRecord,
    register_sample,
    run_test,
    sea,
    segment_waves,
    spectra_to_sample,
    uniform_grid,
)
from fda2s.runner import CALIBRATIONS

from conftest import smooth_curves


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def record_file(tmp_path):
    path = tmp_path / "rec.csv"
    code = run("simulate", "--hs", 2, "--tp", 4.0, "--duration", 900,
               "--fs", 1.28, "--seed", 7, "-o", path)
    assert code == 0
    return path


class TestSimulate:
    def test_record_length(self, tmp_path):
        out = tmp_path / "rec.csv"
        assert run("simulate", "--hs", 2, "--tp", 4.0, "--duration", 1800,
                   "--fs", 1.28, "--seed", 1, "-o", out) == 0
        rec = read_record(out)
        assert rec.values.size == 2304

    def test_negative_hs_exits_2(self, tmp_path):
        code = run("simulate", "--hs", -1, "--tp", 4.0, "--seed", 1,
                   "-o", tmp_path / "r.csv")
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--hs", 2, "--tp", 4.0, "--duration", 300,
                "--fs", 1.28, "--seed", 5)
        assert run(*args, "-o", a) == 0
        assert run(*args, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run("simulate", "--hs", 2, "--tp", 4.0, "--duration", 60,
                   "--seed", 2**64, "-o", out) == 2
        assert "2**64" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_seed_prints_one(self, tmp_path, capsys):
        assert run("simulate", "--hs", 1, "--tp", 5.0, "--duration", 300,
                   "-o", tmp_path / "r.csv") == 0
        assert "seed" in capsys.readouterr().err


class TestSpectrum:
    def test_default_parzen_is_60(self, record_file, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--input", record_file, "-o", out) == 0
        rec = read_record(record_file)
        explicit = tmp_path / "spec60.csv"
        assert run("spectrum", "--input", record_file, "--parzen", 60,
                   "-o", explicit) == 0
        assert out.read_bytes() == explicit.read_bytes()

    def test_integral_matches_variance(self, record_file, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--input", record_file, "-o", out) == 0
        rec = read_record(record_file)
        sample = read_functional_sample(out)
        s = SpectralDensity(sample.grid, sample.values[0])
        biased = float(np.mean((rec.values - rec.values.mean()) ** 2))
        assert abs(s.sigma2 - biased) / biased < 0.02

    def test_rows_are_the_records_estimates_in_input_order(self, record_file, tmp_path):
        short, other = tmp_path / "short.csv", tmp_path / "other.csv"
        for path, seed in ((short, 8), (other, 9)):
            assert run("simulate", "--hs", 3, "--tp", 6.0, "--duration", 400,
                       "--fs", 1.28, "--seed", seed, "-o", path) == 0
        inputs = [short, record_file, other, short]
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--input", *inputs, "--parzen", 40, "--nfreq", 301,
                   "-o", out) == 0
        sample = read_functional_sample(out)
        assert sample.n_curves == 4
        for path, row in zip(inputs, sample.values):
            expected = sea.estimate_spectrum(read_record(path), 40, 301)
            assert np.array_equal(sample.grid.points, expected.freq.points)
            assert np.array_equal(row, expected.values)
        assert read_record(short).values.size != read_record(record_file).values.size
        # the records of one length, estimated in one batch, give the same rows
        same_length = [0, 2, 3]
        records = [read_record(inputs[i]) for i in same_length]
        rows = np.stack([record.values for record in records])
        assert not np.array_equal(rows[0], rows[1])
        grid, batch = sea.estimate_spectra(rows, records[0].fs, 40, 301)
        assert np.array_equal(grid.points, sample.grid.points)
        assert sample.values[same_length].tobytes() == batch.tobytes()

    def test_records_with_different_fs_exit_2(self, record_file, tmp_path, capsys):
        other = tmp_path / "fast.csv"
        assert run("simulate", "--hs", 2, "--tp", 4.0, "--duration", 300,
                   "--fs", 2.56, "--seed", 9, "-o", other) == 0
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--input", record_file, other, "-o", out) == 2
        err = capsys.readouterr().err
        assert "one fs" in err and str(other) in err
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [
        ("rec.csv", 0), (["rec.csv"], 0), (["rec.csv", "rec.csv"], 0),
        ([], 2), (5, 2), ([5], 2), (None, 2), ({"path": "rec.csv"}, 2),
    ])
    def test_config_input_takes_a_path_or_a_non_empty_list(self, record_file, tmp_path,
                                                           capsys, value, code):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": value}))
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--input", record_file, "--config", config, "-o", out) == code
        assert out.exists() == (code == 0)
        assert ("'input'" in capsys.readouterr().err) == (code == 2)

    def test_negative_estimate_exits_2(self, record_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sea, "_autocovariances", lambda rows, L: np.eye(1, L + 1, 1))
        out = tmp_path / "s.csv"
        assert run("spectrum", "--input", record_file, "-o", out) == 2
        assert "is negative beyond round-off" in capsys.readouterr().err
        assert not out.exists()

    def test_short_record_exits_2(self, tmp_path):
        path = tmp_path / "short.csv"
        write_record(TimeSeriesRecord(1.0, np.arange(30.0)), path)
        assert run("spectrum", "--input", path, "-o", tmp_path / "s.csv") == 2


class TestSegment:
    def test_sidecar_matches_rows(self, record_file, tmp_path):
        out = tmp_path / "waves.csv"
        assert run("segment", "--input", record_file, "-o", out) == 0
        sample = read_functional_sample(out)
        sidecar = json.loads((tmp_path / "waves.csv.json").read_text())
        assert sidecar["n_waves"] == sample.n_curves
        assert len(sidecar["periods"]) == sample.n_curves
        assert sidecar["record_std"] > 0
        assert sidecar["hs_interval"] == pytest.approx(4 * sidecar["record_std"])

    def test_sidecar_periods_are_the_kept_waves(self, record_file, tmp_path):
        out = tmp_path / "waves.csv"
        assert run("segment", "--input", record_file, "-o", out) == 0
        sidecar = json.loads((tmp_path / "waves.csv.json").read_text())
        waves = segment_waves(read_record(record_file))
        kept = [w.period for w in waves if w.raw_times.size - 2 >= 4]
        assert sidecar["dropped"] == len(waves) - len(kept) > 0
        assert sidecar["periods"] == kept
        assert sidecar["dropped_short"] == sidecar["dropped"]
        assert sidecar["dropped_no_upcrossing"] == 0

    def test_constrained_sidecar_splits_the_dropped_waves(self, tmp_path):
        # mean 0; each period crosses down onto the sample at 0, then stays
        # above zero: a wave of four interior samples without an upcrossing
        # inside it, then one with five that has one
        path = tmp_path / "rec.csv"
        write_record(TimeSeriesRecord(1.0, np.tile(
            [3.0, 0.0, 1.0, 2.0, 3.0, 2.0, -1.0, -3.0, -3.0, -4.0], 6)), path)
        out = tmp_path / "waves.csv"
        assert run("segment", "--input", path, "--constrain-upcross", "-o", out) == 0
        sidecar = json.loads((tmp_path / "waves.csv.json").read_text())
        waves = segment_waves(read_record(path))
        short = sum(w.raw_times.size - 2 < 4 for w in waves)
        assert len(waves) == 11 and short == 0
        assert sidecar["dropped"] == sidecar["dropped_no_upcrossing"] == 6
        assert sidecar["dropped_short"] == 0
        assert sidecar["n_waves"] == read_functional_sample(out).n_curves == 5
        spec = RegistrationSpec(constrain_upcross=True)
        _, kept, _ = register_sample(waves, spec)
        assert sidecar["periods"] == waves.periods[kept].tolist()
        assert run("segment", "--input", path, "-o", out) == 0
        sidecar = json.loads((tmp_path / "waves.csv.json").read_text())
        assert sidecar["dropped"] == sidecar["dropped_no_upcrossing"] == 0

    def test_flat_record_exits_3(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_record(TimeSeriesRecord(1.0, np.zeros(100)), path)
        assert run("segment", "--input", path, "-o", tmp_path / "w.csv") == 3

    def test_defaults_are_order6_knots61(self, record_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("segment", "--input", record_file, "-o", a) == 0
        assert run("segment", "--input", record_file, "--order", 6,
                   "--knots", 61, "--grid", 101, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--knots", 200, "202 basis functions exceed 101 grid points"),
        ("--grid", 51, "63 basis functions exceed 51 grid points"),
        ("--knots", 90, "exceeds 1e+12"),
    ])
    def test_spec_the_grid_cannot_fit_exits_2(self, record_file, tmp_path, capsys,
                                               flag, value, message):
        out = tmp_path / "w.csv"
        assert run("segment", "--input", record_file, flag, value, "-o", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "w.csv.json").exists()

    def test_config_string_value_converts_like_the_option(self, record_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": "81", "normalize": True}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("segment", "--input", record_file, "--config", config, "-o", a) == 0
        assert run("segment", "--input", record_file, "--grid", 81, "--normalize",
                   "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_functional_sample(a).grid.points.size == 81

    @pytest.mark.parametrize("config", [{"grid": 51.5}, {"normalize": "yes"}])
    def test_config_value_the_option_rejects_exits_2(self, record_file, tmp_path,
                                                     capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "w.csv"
        assert run("segment", "--input", record_file, "--config", path, "-o", out) == 2
        assert repr(next(iter(config))) in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_a_flag_overrides_is_still_checked(self, record_file, tmp_path,
                                                            capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": 51.5}))
        out = tmp_path / "w.csv"
        assert run("segment", "--input", record_file, "--grid", 81, "--config", path,
                   "-o", out) == 2
        assert "'grid'" in capsys.readouterr().err
        assert not out.exists()

    def test_constrain_upcross(self, record_file, tmp_path):
        out = tmp_path / "waves.csv"
        assert run("segment", "--input", record_file, "--constrain-upcross",
                   "-o", out) == 0
        sample = read_functional_sample(out)
        mid = sample.values[:, sample.values.shape[1] // 2]
        assert np.max(np.abs(mid)) < 0.2 * np.max(np.abs(sample.values))


# The ways the command line sets each setting of CALIBRATIONS, as a suffix to
# the calibration and flags; FDA2S_THREADS, which sets n_jobs, is left unread
# rather than refused.
SETTING_ARGV = {
    "B": [(":B=5", ())],
    "seed": [("", ("--seed", 5))],
    "n_jobs": [],
    "sim": [("", (flag, value)) for flag, value in (
        ("--mc-duration", 600), ("--mc-fs", 2.56), ("--mc-parzen", 7), ("--mc-nfreq", 241))],
}
UNREAD_ARGV = [(calibration + suffix, argv) for calibration, reads in CALIBRATIONS.items()
               for setting in sorted({s for r in CALIBRATIONS.values() for s in r})
               if setting not in reads for suffix, argv in SETTING_ARGV[setting]]


class TestTest:
    def _write_pair(self, tmp_path, rng, delta=0.0):
        grid = uniform_grid(Interval(0.0, 1.0), 101)
        x = FunctionalSample(grid, smooth_curves(rng, 30, grid))
        y_rows = smooth_curves(rng, 25, grid) + delta * np.sin(2 * np.pi * grid.points)
        y = FunctionalSample(grid, y_rows)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_functional_sample(x, xp)
        write_functional_sample(y, yp)
        return xp, yp

    def test_identical_samples_resampled_p_is_one(self, tmp_path, rng):
        xp, _ = self._write_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        assert run("test", "--x", xp, "--y", xp, "--basis", "trig:k=3,parts=both",
                   "--calibration", "permutation:B=99", "--seed", 3, "-o", out) == 0
        report = json.loads(out.read_text())
        assert report["qn"] == pytest.approx(0.0, abs=1e-20)
        assert report["p_resampled"] == 1.0
        assert report["p_resampled"] >= 1.0 / (99 + 1)

    def test_odd_basis_reports_k1(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        assert run("test", "--x", xp, "--y", yp, "--basis", "trig:k=3,parts=odd",
                   "-o", out) == 0
        report = json.loads(out.read_text())
        assert report["k"] == 1
        assert report["params"]["parts"] == "odd"

    def test_bare_permutation_draws_1000_replicates(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "permutation",
                   "--seed", 1, "-o", out) == 0
        assert json.loads(out.read_text())["n_resamples"] == 1000

    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\nx,2.0\n")
        out = tmp_path / "r.json"
        assert run("test", "--x", bad, "--y", bad, "-o", out) == 2
        assert "line 2" in capsys.readouterr().err

    def test_report_round_trips_bytes(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng, delta=0.5)
        out = tmp_path / "report.json"
        assert run("test", "--x", xp, "--y", yp, "--basis", "indicator:k=4",
                   "-o", out) == 0
        from fda2s.io import canonical_json

        text = out.read_text()
        assert canonical_json(json.loads(text)) == text

    def test_config_file_defaults(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"basis": "indicator:k=4"}))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("test", "--x", xp, "--y", yp, "--config", config, "-o", out1) == 0
        assert run("test", "--x", xp, "--y", yp, "--basis", "indicator:k=4",
                   "-o", out2) == 0
        assert json.loads(out1.read_text())["qn"] == json.loads(out2.read_text())["qn"]

    def test_flag_at_its_default_overrides_the_config(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"calibration": "permutation:B=50"}))
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "asymptotic",
                   "--config", config, "-o", out) == 0
        assert json.loads(out.read_text())["p_resampled"] is None

    @pytest.mark.parametrize("config", [[1, 2], "seed", 3])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, rng, capsys, config):
        xp, yp = self._write_pair(tmp_path, rng)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--config", path, "-o", out) == 2
        err = capsys.readouterr().err
        assert "JSON object" in err and str(path) in err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, rng, capsys):
        xp, yp = self._write_pair(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"basiss": "indicator:k=4"}))
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--config", config, "-o", out) == 2
        assert "'basiss'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_string_seed_converts_like_the_option(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "7"}))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "permutation:B=20",
                   "--config", config, "-o", out1) == 0
        assert run("test", "--x", xp, "--y", yp, "--calibration", "permutation:B=20",
                   "--seed", 7, "-o", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("seed", ["abc", 7.5, "7.5", None, [7]])
    def test_config_seed_the_option_rejects_exits_2(self, tmp_path, rng, capsys, seed):
        xp, yp = self._write_pair(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": seed}))
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "permutation:B=20",
                   "--config", config, "-o", out) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 5, -1])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, rng, capsys, seed):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "permutation:B=20",
                   "--seed", seed, "-o", out) == 2
        message = "2**64" if seed > 0 else "seed must be at least 0, got -1"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("basis,key", [
        ("trig:kk=1", "kk"), ("indicator:d=2", "d"), ("pca:weights=equal", "weights"),
        ("trig:k_max=2", "k_max"),
    ])
    def test_unknown_basis_parameter_exits_2(self, tmp_path, rng, capsys, basis, key):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--basis", basis, "-o", out) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("basis,key", [
        ("indicator:k=abc", "k"), ("pca:d=0", "d"), ("indicator:k=-3", "k"),
        ("trig:k=0", "k"), ("bspline:order=1", "order"), ("bspline:interior=-1", "interior"),
        ("trig:k=3,parts=even", "parts"), ("indicator:k=8,k=3", "k"),
    ])
    def test_invalid_basis_value_exits_2(self, tmp_path, rng, capsys, basis, key):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--basis", basis, "-o", out) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "7.5", "0", "-3"])
    def test_bad_resample_count_exits_2(self, tmp_path, rng, capsys, value):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "r.json"
        calibration = f"permutation:B={value}"
        assert run("test", "--x", xp, "--y", yp, "--calibration", calibration,
                   "--seed", 1, "-o", out) == 2
        err = capsys.readouterr().err
        assert "'B'" in err and calibration in err
        assert not out.exists()

    @pytest.mark.parametrize("calibration, message", [
        ("asymptotic:B=50", "'asymptotic' takes no parameters, got 'asymptotic:B=50'"),
        ("asymptotic:whatever",
         "malformed calibration parameter 'whatever' in 'asymptotic:whatever'"),
    ], ids=["asymptotic:B=50", "asymptotic:whatever"])
    def test_parameters_after_asymptotic_exit_2(self, tmp_path, rng, capsys, calibration,
                                                message):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", calibration,
                   "-o", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("calibration,extra,flags", [
        ("asymptotic", ("--seed", 5), "--seed"),
        ("asymptotic", ("--seed", 5, "--mc-fs", 2.56, "--mc-parzen", 7),
         "--seed, --mc-fs, --mc-parzen"),
        ("asymptotic", ("--mc-nfreq", 241), "--mc-nfreq"),
        ("permutation:B=50", ("--mc-duration", 3), "--mc-duration"),
        ("permutation:B=50", ("--mc-duration", 1800), "--mc-duration"),
    ])
    def test_flag_the_calibration_does_not_read_exits_2(self, tmp_path, rng, capsys,
                                                         calibration, extra, flags):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", calibration, *extra,
                   "-o", out) == 2
        assert f"does not combine with {flags}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("calibration, argv", UNREAD_ARGV)
    def test_every_setting_the_table_leaves_unread_exits_2(self, tmp_path, rng, capsys,
                                                          calibration, argv):
        xp, yp = self._write_pair(tmp_path, rng)
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", calibration, *argv,
                   "-o", out) == 2
        err = capsys.readouterr().err
        assert (argv[0] if argv else calibration) in err
        assert not out.exists()

    def test_config_flag_the_calibration_does_not_read_exits_2(self, tmp_path, rng, capsys):
        xp, yp = self._write_pair(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mc-duration": 600}))
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "permutation:B=20",
                   "--seed", 1, "--config", config, "-o", out) == 2
        assert "does not combine with --mc-duration" in capsys.readouterr().err
        assert not out.exists()

    def test_config_seed_under_asymptotic_exits_2(self, tmp_path, rng, capsys):
        xp, yp = self._write_pair(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        out = tmp_path / "r.json"
        assert run("test", "--x", xp, "--y", yp, "--config", config, "-o", out) == 2
        assert "does not combine with --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_spectral_mc_report_matches_the_library(self, tmp_path, monkeypatch):
        # simulate -> spectrum -> test through the command line alone
        paths, records = {}, {}
        for g, (name, tp) in enumerate((("x", 4.0), ("y", 4.2))):
            inputs = [tmp_path / f"{name}{i}.csv" for i in range(3)]
            for i, path in enumerate(inputs):
                assert run("simulate", "--hs", 2, "--tp", tp, "--duration", 600,
                           "--seed", 10 * g + i, "-o", path) == 0
            paths[name] = tmp_path / f"{name}.csv"
            assert run("spectrum", "--input", *inputs, "-o", paths[name]) == 0
            records[name] = [read_record(path) for path in inputs]
        x, y = (spectra_to_sample([sea.estimate_spectrum(rec) for rec in records[n]])
                for n in "xy")
        sim = SimConfig(duration=600.0)
        for basis in map(BasisSpec.parse, ("indicator:k=4", "pca:d=2")):
            expected = format_test_result(
                run_test(x, y, basis, "spectral-mc", B=8, seed=3, sim=sim))
            for threads in ("1", "2"):
                monkeypatch.setenv("FDA2S_THREADS", threads)
                out = tmp_path / f"r{threads}.json"
                assert run("test", "--x", paths["x"], "--y", paths["y"], "--basis", str(basis),
                           "--calibration", "spectral-mc:B=8", "--seed", 3,
                           "--mc-duration", 600, "-o", out) == 0
                assert out.read_text() == expected, basis
            # the same run with --mc-duration from a config file
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"mc-duration": 600}))
            out = tmp_path / "r_config.json"
            assert run("test", "--x", paths["x"], "--y", paths["y"], "--basis", str(basis),
                       "--calibration", "spectral-mc:B=8", "--seed", 3,
                       "--config", config, "-o", out) == 0
            assert out.read_text() == expected, basis

    def test_spectral_mc_on_wave_sample_exits_2(self, record_file, tmp_path, capsys):
        waves = tmp_path / "waves.csv"
        assert run("segment", "--input", record_file, "-o", waves) == 0
        assert read_functional_sample(waves).grid.points.size == 101
        out = tmp_path / "r.json"
        assert run("test", "--x", waves, "--y", waves, "--calibration", "spectral-mc:B=2",
                   "--seed", 1, "-o", out) == 2
        err = capsys.readouterr().err
        assert "estimator grid" in err and "broadcast" not in err
        assert not out.exists()

    def test_spectral_mc_negative_value_exits_2(self, tmp_path, rng, capsys):
        grid = sea.estimator_grid(1.28, 481)
        values = rng.uniform(0.5, 1.5, (6, 481))
        values[4, 200] = -1e-9
        paths = {}
        for name, rows in (("x", values[:3]), ("y", values[3:])):
            paths[name] = tmp_path / f"{name}.csv"
            write_functional_sample(FunctionalSample(grid, rows), paths[name])
        out = tmp_path / "r.json"
        assert run("test", "--x", paths["x"], "--y", paths["y"], "--basis", "indicator:k=2",
                   "--calibration", "spectral-mc:B=2", "--seed", 1, "-o", out) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("off_grid", ["x", "y"])
    def test_spectral_mc_checks_both_grids(self, tmp_path, rng, capsys, off_grid):
        good = sea.estimator_grid(1.28, 481)
        bad = sea.estimator_grid(2.56, 481)  # same size, other interval
        paths = {}
        for name in ("x", "y"):
            grid = bad if name == off_grid else good
            paths[name] = tmp_path / f"{name}.csv"
            write_functional_sample(
                FunctionalSample(grid, rng.uniform(0.5, 1.5, (3, 481))), paths[name]
            )
        out = tmp_path / "r.json"
        assert run("test", "--x", paths["x"], "--y", paths["y"],
                   "--calibration", "spectral-mc:B=2", "--seed", 1, "-o", out) == 2
        assert "estimator grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "2.5", "nan", "inf"])
    def test_bad_thread_count_exits_2(self, tmp_path, rng, monkeypatch, capsys, threads):
        xp, yp = self._write_pair(tmp_path, rng)
        monkeypatch.setenv("FDA2S_THREADS", threads)
        out = tmp_path / "report.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "spectral-mc:B=99",
                   "--seed", 3, "-o", out) == 2
        refusal = (f"at least 1, got {int(threads)}" if threads.lstrip("-").isdigit()
                   else f"an integer, got {threads!r}")
        assert f"FDA2S_THREADS must be {refusal}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("calibration, seed", [("asymptotic", ()),
                                                   ("permutation:B=99", ("--seed", 3))])
    def test_thread_count_is_read_only_by_spectral_mc(self, tmp_path, rng, monkeypatch,
                                                      calibration, seed):
        xp, yp = self._write_pair(tmp_path, rng)
        monkeypatch.setenv("FDA2S_THREADS", "abc")
        out = tmp_path / "report.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", calibration, *seed,
                   "-o", out) == 0
        assert out.exists()


class TestQuantiles:
    def _write_pair(self, tmp_path, rng, n):
        grid = uniform_grid(Interval(0.0, 1.0), 41)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_functional_sample(FunctionalSample(grid, smooth_curves(rng, n, grid)), xp)
        write_functional_sample(FunctionalSample(grid, smooth_curves(rng, n, grid)), yp)
        return xp, yp

    def test_generate_from_samples(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng, 60)
        out = tmp_path / "table.csv"
        assert run("quantiles", "--x", xp, "--y", yp, "--basis", "trig:k=3,parts=both",
                   "--calibration", "permutation:B=400", "--seed", 2, "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantile,0.5,0.9,0.95,0.975,0.99"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["Asymptotic", "MC", "Rel. error"]

    def test_generate_defaults_to_1000_permutations(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng, 20)
        tables = []
        for extra in ((), ("--calibration", "permutation:B=1000")):
            out = tmp_path / f"table{len(extra)}.csv"
            assert run("quantiles", "--x", xp, "--y", yp, "--basis", "trig:k=3",
                       *extra, "--seed", 2, "-o", out) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("command", ["test", "quantiles"])
    def test_singular_observed_covariance_exits_2(self, tmp_path, rng, capsys, command):
        # each sample repeats one curve: the observed split has no within-sample
        # scatter, almost every random split has some
        grid = uniform_grid(Interval(0.0, 1.0), 41)
        curves = smooth_curves(rng, 2, grid)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        for curve, path in zip(curves, (xp, yp)):
            write_functional_sample(FunctionalSample(grid, np.tile(curve, (20, 1))), path)
        out = tmp_path / "out"
        assert run(command, "--x", xp, "--y", yp, "--basis", "indicator:k=1",
                   "--calibration", "permutation:B=200", "--seed", 2, "-o", out) == 2
        assert "error: pooled covariance (condition number" in capsys.readouterr().err
        assert not out.exists()

    def _rejected_by_the_parser(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            run("quantiles", *argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_k_with_generate_exits_2(self, tmp_path, rng, capsys):
        # the null-values mode and its switch are gone: the parser rejects them
        xp, yp = self._write_pair(tmp_path, rng, 20)
        out = tmp_path / "table.csv"
        err = self._rejected_by_the_parser(
            capsys, "--generate", "--x", xp, "--y", yp, "--basis", "trig:k=3,parts=both",
            "--calibration", "permutation:B=50", "--seed", 2, "--k", 7, "-o", out)
        assert "unrecognized arguments: --generate --k 7" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ("--generate",), ("--x", "x.csv"), ("--y", "y.csv"), ("--basis", "pca:d=2"),
        ("--seed", 0), ("--generate", "--x", "x.csv", "--basis", "pca:d=2"),
        ("--calibration", "spectral-mc:B=5"), ("--calibration", "permutation:B=1000"),
    ])
    def test_null_values_with_generate_flags_exits_2(self, tmp_path, rng, capsys, extra):
        xp, yp = self._write_pair(tmp_path, rng, 20)
        path = tmp_path / "null.txt"
        path.write_text("\n".join(repr(float(v)) for v in rng.chisquare(3, 200)) + "\n")
        out = tmp_path / "table.csv"
        err = self._rejected_by_the_parser(
            capsys, "--x", xp, "--y", yp, "--basis", "trig:k=3",
            "--null-values", path, "--k", 3, *extra, "-o", out)
        assert f"unrecognized arguments: --null-values {path} --k 3" in err
        assert not out.exists()

    def test_requires_inputs(self, tmp_path, capsys):
        err = self._rejected_by_the_parser(capsys, "-o", tmp_path / "t.csv")
        assert "required: --x, --y, --basis" in err
        assert not (tmp_path / "t.csv").exists()


# The int and float flags of the five commands: the command, options under which it
# reads the flag, the flag, the parameter it sets and that parameter's least value
# (None for a real setting).
NUMBER_FLAGS = [
    *[("simulate", (), f"--{name}", name, None) for name in ("hs", "tp", "duration", "fs")],
    ("simulate", (), "--nfreq", "n_freq", 2),
    ("simulate", (), "--seed", "seed", 0),
    ("spectrum", (), "--parzen", "parzen_L", 1),
    ("spectrum", (), "--nfreq", "n_freq", 2),
    ("segment", (), "--grid", "n_grid", 2),
    ("segment", (), "--order", "spline_order", 2),
    ("segment", (), "--knots", "n_knots", 2),
    ("test", ("--calibration", "permutation:B=5"), "--seed", "seed", 0),
    ("test", ("--calibration", "spectral-mc:B=5"), "--mc-duration", "duration", None),
    ("test", ("--calibration", "spectral-mc:B=5"), "--mc-fs", "fs", None),
    ("test", ("--calibration", "spectral-mc:B=5"), "--mc-parzen", "parzen_L", 1),
    ("test", ("--calibration", "spectral-mc:B=5"), "--mc-nfreq", "n_freq", 2),
    ("quantiles", (), "--seed", "seed", 0),
]


def _refused_numbers():
    """(row, id) of each value a number flag refuses: argparse refuses 2.5, nan and inf
    for an int flag, the library 0 for a count (-1 for a seed, which may be 0) and nan,
    inf and 0 for a real setting (which may be 2.5)."""
    for command, reads, flag, name, least in NUMBER_FLAGS:
        if least is None:
            refused = [(v, f"{name} must be finite and positive, got {float(v)!r}")
                       for v in ("nan", "inf", "0")]
        else:
            refused = [(v, f"argument {flag}: invalid int value: '{v}'")
                       for v in ("2.5", "nan", "inf")]
            low = 0 if least > 0 else -1
            refused.append((low, f"{name} must be at least {least}, got {low}"))
        for value, message in refused:
            yield (command, (*reads, flag, value), message), f"{command}-{flag[2:]}-{value}"


NUMBER_ROWS, NUMBER_IDS = zip(*_refused_numbers())


@pytest.mark.parametrize("command, options, message", [
    ("test", ("--calibration", "asymptotic:"),
     "malformed calibration parameter '' in 'asymptotic:'"),
    ("test", ("--calibration", "permutation:"), "parameter '' in 'permutation:'"),
    ("test", ("--calibration", "spectral-mc:"), "parameter '' in 'spectral-mc:'"),
    ("quantiles", ("--calibration", "permutation:"), "parameter '' in 'permutation:'"),
    ("quantiles", ("--calibration", "asymptotic"),
     "permutation calibration only, got 'asymptotic'"),
    ("quantiles", ("--calibration", "spectral-mc:B=5"),
     "permutation calibration only, got 'spectral-mc:B=5'"),
    ("quantiles", ("--probs", "0.5,abc"),
     "--probs must be comma-separated numbers, got '0.5,abc'"),
    ("quantiles", ("--probs", "0.5,1.5"),
     "error: probs must lie strictly inside (0, 1), got [0.5, 1.5]"),
    ("quantiles", ("--probs", "0.9,0.5"),
     "error: probs must be strictly increasing, got [0.9, 0.5]"),
    ("quantiles", ("--probs", "0.5,0.5"),
     "error: probs must be strictly increasing, got [0.5, 0.5]"),
    ("segment", ("--order", 2, "--knots", 2), "spline order 2 with 2 knot sites"),
    ("test", ("--calibration", "bootstrap"), "unknown calibration 'bootstrap'"),
    ("test", ("--basis", "trig:k"), "malformed basis parameter 'k'"),
    ("test", ("--basis", "trig:"), "malformed basis parameter '' in 'trig:'"),
    ("test", ("--calibration", "permutation:B=5,B=6"),
     "repeated permutation parameter 'b' in 'permutation:B=5,B=6'"),
    ("segment", ("--grid", 1), "n_grid must be at least 2, got 1"),
    ("segment", ("--order", 1), "spline_order must be at least 2, got 1"),
    ("segment", ("--knots", 1), "n_knots must be at least 2, got 1"),
    ("spectrum", ("--nfreq", 1), "n_freq must be at least 2, got 1"),
    ("simulate", ("--nfreq", 1), "n_freq must be at least 2, got 1"),
    ("simulate", ("--duration", 1), "fs * duration must be at least 2, got 1"),
    ("test", ("--calibration", "spectral-mc:B=5", "--mc-nfreq", 1),
     "n_freq must be at least 2, got 1"),
    *NUMBER_ROWS,
], ids=["test-asymptotic:", "test-permutation:", "test-spectral-mc:",
        "quantiles-permutation:", "quantiles-asymptotic", "quantiles-spectral-mc", "probs",
        "probs-outside-0-1", "probs-not-increasing", "probs-repeated",
        "segment-order-2-knots-2", "test-bootstrap", "test-trig:k", "test-trig:",
        "test-permutation-repeated-B", "segment-grid-1",
        "segment-order-1", "segment-knots-1", "spectrum-nfreq-1",
        "simulate-nfreq-1", "simulate-duration-1", "test-mc-nfreq-1", *NUMBER_IDS])
def test_parse_errors_exit_2_and_name_their_input(tmp_path, rng, capsys, record_file,
                                                  command, options, message):
    grid = uniform_grid(Interval(0.0, 1.0), 41)
    xp = tmp_path / "x.csv"
    write_functional_sample(FunctionalSample(grid, smooth_curves(rng, 20, grid)), xp)
    inputs = {"segment": ("--input", record_file), "spectrum": ("--input", record_file),
              "simulate": ("--hs", 2, "--tp", 8, "--seed", 1)}.get(
        command, ("--x", xp, "--y", xp, "--basis", "trig:k=3", "--seed", 1))
    out = tmp_path / "out"
    try:
        code = run(command, *inputs, *options, "-o", out)
    except SystemExit as exc:  # argparse refused the text
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("test", "0.0,0.5,1.0\n1.0,nan,2.0\n", "line 2: non-finite value"),
    ("test", "0.0,0.5,1.0\n", "line 1: need a grid row and at least one curve row"),
    ("segment", "fs,1.0\nt0,0.0\n", "line 1: need fs and t0 headers plus at least one value"),
    ("segment", "fs,1.0\nfs,2.0\n1.0\n2.0\n", "line 2: need both fs and t0 headers"),
    ("test", "0.0,0.5,0.4\n1.0,2.0,3.0\n", "line 1: grid points must be strictly increasing"),
    ("test", "0.5\n1.0\n", "line 1: grid needs at least two points"),
], ids=["curve-nan", "curve-grid-row-only", "record-two-lines", "record-two-fs",
        "curve-grid-decreasing", "curve-grid-one-point"])
def test_malformed_input_file_exits_2_naming_its_line(tmp_path, capsys, command, text,
                                                      message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    inputs = ("--input", path) if command == "segment" else ("--x", path, "--y", path)
    out = tmp_path / "out"
    assert run(command, *inputs, "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# Each command's required options, and flags that make its output deterministic.
REQUIRED = {
    "simulate": ({"hs": 2.0, "tp": 8.0}, ("--duration", 120, "--seed", 1)),
    "spectrum": ({"input": ["rec.csv"]}, ()),
    "segment": ({"input": "rec.csv"}, ()),
    "test": ({"x": "x.csv", "y": "y.csv"}, ()),
    "quantiles": ({"x": "x.csv", "y": "y.csv", "basis": "trig:k=3"},
                  ("--calibration", "permutation:B=100", "--seed", 3)),
}


@pytest.fixture
def required_inputs(tmp_path, rng, monkeypatch):
    """The files REQUIRED names, in the working directory."""
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--hs", 2, "--tp", 8, "--duration", 300, "--seed", 1,
               "-o", "rec.csv") == 0
    grid = uniform_grid(Interval(0.0, 1.0), 41)
    for name in ("x.csv", "y.csv"):
        write_functional_sample(FunctionalSample(grid, smooth_curves(rng, 20, grid)), name)


@pytest.mark.parametrize("command", REQUIRED)
def test_required_options_may_come_from_the_config(required_inputs, tmp_path, command):
    required, extra = REQUIRED[command]
    flags = [a for key, value in required.items()
             for a in (f"--{key}", *(value if isinstance(value, list) else [value]))]
    assert run(command, *flags, *extra, "-o", "by_flags") == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**required, "output": "by_config"}))
    assert run(command, *extra, "--config", config) == 0
    assert (tmp_path / "by_config").read_bytes() == (tmp_path / "by_flags").read_bytes()


@pytest.mark.parametrize("command, key, flag", [
    ("simulate", "tp", "--tp"), ("spectrum", "output", "-o/--output"),
    ("segment", "input", "--input"), ("test", "y", "--y"), ("quantiles", "basis", "--basis"),
])
def test_required_option_set_nowhere_exits_2_naming_it(required_inputs, tmp_path, capsys,
                                                      command, key, flag):
    required, extra = REQUIRED[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({k: v for k, v in {**required, "output": "out"}.items()
                                  if k != key}))
    with pytest.raises(SystemExit) as exc:
        run(command, *extra, "--config", config)
    assert exc.value.code == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
