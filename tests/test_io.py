"""CSV and JSON round trips for every file format."""

import json

import numpy as np
import pytest

from fda2s import TimeSeriesRecord, qn_statistic, quantile_table
from fda2s.errors import MalformedFile
from fda2s.io import (
    canonical_json,
    quantile_table_csv,
    read_functional_sample,
    read_record,
    format_test_result,
    write_functional_sample,
    write_record,
)
from conftest import random_sample


class TestFunctionalSampleCsv:
    def test_round_trip(self, rng, tmp_path):
        sample = random_sample(rng, 5, 23)
        path = tmp_path / "sample.csv"
        write_functional_sample(sample, path)
        back = read_functional_sample(path)
        assert np.array_equal(back.grid.points, sample.grid.points)
        assert np.array_equal(back.values, sample.values)

    def test_first_row_is_grid(self, rng, tmp_path):
        sample = random_sample(rng, 2, 7)
        path = tmp_path / "sample.csv"
        write_functional_sample(sample, path)
        first = path.read_text().splitlines()[0]
        assert [float(v) for v in first.split(",")] == list(sample.grid.points)

    def test_malformed_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(MalformedFile) as err:
            read_functional_sample(path)
        assert err.value.line == 3

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0\n")
        with pytest.raises(MalformedFile) as err:
            read_functional_sample(path)
        assert err.value.line == 2


class TestRecordCsv:
    def test_round_trip(self, rng, tmp_path):
        rec = TimeSeriesRecord(1.28, rng.normal(size=50), t0=12.5)
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        back = read_record(path)
        assert back.fs == rec.fs and back.t0 == rec.t0
        assert np.array_equal(back.values, rec.values)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        with pytest.raises(MalformedFile):
            read_record(path)


class TestReports:
    def test_test_result_json_round_trip_bytes(self):
        res = qn_statistic([[0.0], [2.0], [1.0]], [[1.0], [3.0]])
        text = format_test_result(res)
        again = canonical_json(json.loads(text))
        assert again == text

    def test_result_fields(self):
        res = qn_statistic([[0.0], [2.0]], [[1.0], [3.0]])
        payload = json.loads(format_test_result(res))
        assert set(payload) == {
            "qn", "k", "p_asymptotic", "p_resampled", "n_resamples",
            "n_failed_resamples", "scheme", "params", "seed", "m", "n",
        }
        assert payload["m"] == 2 and payload["n"] == 2

    def test_quantile_table_layout(self, rng):
        table = quantile_table(rng.chisquare(2, 1000), 2)
        text = quantile_table_csv(table)
        lines = text.splitlines()
        assert lines[0].startswith("quantile,0.5,0.9,0.95,0.975,0.99")
        assert lines[1].startswith("Asymptotic,")
        assert lines[2].startswith("MC,")
        assert lines[3].startswith("Rel. error,")
