"""The command-line interface: exit codes, determinism, file outputs."""

import json

import numpy as np
import pytest

from fda2s.cli import main
from fda2s.io import (
    read_functional_sample,
    read_record,
    read_spectrum,
    write_functional_sample,
    write_record,
)
from fda2s import (
    FunctionalSample,
    Interval,
    TimeSeriesRecord,
    sea,
    segment_waves,
    uniform_grid,
)

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
        s = read_spectrum(out)
        biased = float(np.mean((rec.values - rec.values.mean()) ** 2))
        assert abs(s.sigma2 - biased) / biased < 0.02

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

    def test_config_string_value_converts_like_the_option(self, record_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": "51", "normalize": True}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("segment", "--input", record_file, "--config", config, "-o", a) == 0
        assert run("segment", "--input", record_file, "--grid", 51, "--normalize",
                   "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_functional_sample(a).grid.points.size == 51

    @pytest.mark.parametrize("config", [{"grid": 51.5}, {"normalize": "yes"}])
    def test_config_value_the_option_rejects_exits_2(self, record_file, tmp_path,
                                                     capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "w.csv"
        assert run("segment", "--input", record_file, "--config", path, "-o", out) == 2
        assert repr(next(iter(config))) in capsys.readouterr().err
        assert not out.exists()

    def test_constrain_upcross(self, record_file, tmp_path):
        out = tmp_path / "waves.csv"
        assert run("segment", "--input", record_file, "--constrain-upcross",
                   "-o", out) == 0
        sample = read_functional_sample(out)
        mid = sample.values[:, sample.values.shape[1] // 2]
        assert np.max(np.abs(mid)) < 0.2 * np.max(np.abs(sample.values))


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
        assert "2**64" in capsys.readouterr().err
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
        ("trig:k=3,parts=even", "parts"),
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

    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_bad_thread_count_exits_2(self, tmp_path, rng, monkeypatch, capsys, threads):
        xp, yp = self._write_pair(tmp_path, rng)
        monkeypatch.setenv("FDA2S_THREADS", threads)
        out = tmp_path / "report.json"
        assert run("test", "--x", xp, "--y", yp, "--calibration", "permutation:B=99",
                   "--seed", 3, "-o", out) == 2
        assert "FDA2S_THREADS" in capsys.readouterr().err
        assert not out.exists()


class TestQuantiles:
    def test_from_null_values_file(self, tmp_path, rng):
        path = tmp_path / "null.txt"
        values = rng.chisquare(2, 1000)
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        out = tmp_path / "table.csv"
        assert run("quantiles", "--null-values", path, "--k", 2, "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantile,0.5,0.9,0.95,0.975,0.99"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["Asymptotic", "MC", "Rel. error"]

    def test_generate_from_samples(self, tmp_path, rng):
        grid = uniform_grid(Interval(0.0, 1.0), 41)
        x = FunctionalSample(grid, smooth_curves(rng, 60, grid))
        y = FunctionalSample(grid, smooth_curves(rng, 60, grid))
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_functional_sample(x, xp)
        write_functional_sample(y, yp)
        out = tmp_path / "table.csv"
        assert run("quantiles", "--generate", "--x", xp, "--y", yp,
                   "--basis", "trig:k=3,parts=both",
                   "--calibration", "permutation:B=400", "--seed", 2,
                   "-o", out) == 0
        assert out.exists()

    def test_k_with_generate_exits_2(self, tmp_path, rng, capsys):
        grid = uniform_grid(Interval(0.0, 1.0), 41)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_functional_sample(FunctionalSample(grid, smooth_curves(rng, 20, grid)), xp)
        write_functional_sample(FunctionalSample(grid, smooth_curves(rng, 20, grid)), yp)
        out = tmp_path / "table.csv"
        assert run("quantiles", "--generate", "--x", xp, "--y", yp,
                   "--basis", "trig:k=3,parts=both", "--calibration", "permutation:B=50",
                   "--seed", 2, "--k", 7, "-o", out) == 2
        assert "--k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ("--generate",), ("--x", "x.csv"), ("--y", "y.csv"), ("--basis", "pca:d=2"),
        ("--seed", 0), ("--generate", "--x", "x.csv", "--basis", "pca:d=2"),
    ])
    def test_null_values_with_generate_flags_exits_2(self, tmp_path, rng, capsys, extra):
        path = tmp_path / "null.txt"
        path.write_text("\n".join(repr(float(v)) for v in rng.chisquare(3, 200)) + "\n")
        out = tmp_path / "table.csv"
        assert run("quantiles", "--null-values", path, "--k", 3, *extra, "-o", out) == 2
        assert f"does not combine with {extra[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_inputs(self, tmp_path):
        assert run("quantiles", "-o", tmp_path / "t.csv") == 2

    def test_zero_empirical_quantile_exits_2(self, tmp_path, capsys):
        path = tmp_path / "null.txt"
        path.write_text("0.0\n" * 60 + "".join(f"{v}\n" for v in range(1, 41)))
        out = tmp_path / "table.csv"
        assert run("quantiles", "--null-values", path, "--k", 2, "-o", out) == 2
        assert "p=0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_chi2_input_near_zero_relative_error(self, tmp_path):
        from scipy.stats import chi2 as chi2_dist

        u = (np.arange(20_000) + 0.5) / 20_000
        pseudo = chi2_dist.ppf(u, 2)
        path = tmp_path / "null.txt"
        path.write_text("\n".join(repr(float(v)) for v in pseudo) + "\n")
        out = tmp_path / "table.csv"
        assert run("quantiles", "--null-values", path, "--k", 2, "-o", out) == 0
        rel = [float(v) for v in out.read_text().splitlines()[3].split(",")[1:]]
        assert max(abs(r) for r in rel) < 0.02
