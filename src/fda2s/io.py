"""File formats: functional-sample CSV, record CSV, JSON reports, quantile tables.

Spectral estimates are functional samples: the frequency grid is the grid
row and each spectrum one curve row.  All CSV files are UTF-8 with '.'
decimals and ',' separators.  JSON output is canonical (sorted keys,
two-space indent, trailing newline) so that a report read back and
re-serialized is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MalformedFile
from .grids import FunctionalSample, Grid
from .qn import TestResult
from .resampling import QuantileTable
from .sea import TimeSeriesRecord


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_floats(line: str, lineno: int) -> list[float]:
    parts = line.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise MalformedFile(f"could not parse float: {exc}", lineno) from None
    if not all(np.isfinite(values)):
        raise MalformedFile("non-finite value", lineno)
    return values


# Functional samples -----------------------------------------------------------


def write_functional_sample(sample: FunctionalSample, path) -> None:
    """First row: grid points.  Each subsequent row: one curve."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_fmt(x) for x in sample.grid.points) + "\n")
        for row in sample.values:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def read_functional_sample(path, label: str | None = None) -> FunctionalSample:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln.strip()]
    if len(lines) < 2:
        raise MalformedFile("need a grid row and at least one curve row", 1)
    grid_points = _parse_floats(lines[0], 1)
    try:
        grid = Grid(np.asarray(grid_points))
    except ValueError as exc:
        raise MalformedFile(str(exc), 1) from None
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        row = _parse_floats(line, lineno)
        if len(row) != len(grid_points):
            raise MalformedFile(
                f"row has {len(row)} values, expected {len(grid_points)}", lineno
            )
        rows.append(row)
    name = label if label is not None else Path(path).stem
    return FunctionalSample(grid, np.asarray(rows), name)


# Time series records ----------------------------------------------------------


def write_record(rec: TimeSeriesRecord, path) -> None:
    """Two header lines (fs, t0), then one elevation value per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"fs,{_fmt(rec.fs)}\n")
        fh.write(f"t0,{_fmt(rec.t0)}\n")
        for v in rec.values:
            fh.write(_fmt(v) + "\n")


def read_record(path) -> TimeSeriesRecord:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln.strip()]
    if len(lines) < 3:
        raise MalformedFile("need fs and t0 headers plus at least one value", 1)
    header: dict[str, float] = {}
    for lineno, line in enumerate(lines[:2], start=1):
        key, _, value = line.partition(",")
        if key not in ("fs", "t0"):
            raise MalformedFile(f"expected 'fs' or 't0' header, got {key!r}", lineno)
        header[key] = _parse_floats(value, lineno)[0]
    if set(header) != {"fs", "t0"}:
        raise MalformedFile("need both fs and t0 headers", 2)
    values = [_parse_floats(line, lineno)[0]
              for lineno, line in enumerate(lines[2:], start=3)]
    return TimeSeriesRecord(header["fs"], np.asarray(values), header["t0"])


# Reports ------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def format_test_result(result: TestResult) -> str:
    return canonical_json(result.to_dict())


def write_test_result(result: TestResult, path) -> None:
    Path(path).write_text(format_test_result(result), encoding="utf-8")


def quantile_table_csv(table: QuantileTable) -> str:
    lines = [
        "quantile," + ",".join(_fmt(p) for p in table.probs),
        "Asymptotic," + ",".join(_fmt(v) for v in table.asymptotic),
        "MC," + ",".join(_fmt(v) for v in table.empirical),
        "Rel. error," + ",".join(_fmt(v) for v in table.relative_error),
    ]
    return "\n".join(lines) + "\n"


def write_quantile_table(table: QuantileTable, path) -> None:
    Path(path).write_text(quantile_table_csv(table), encoding="utf-8")
