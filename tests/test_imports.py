"""The import graph and the public API: what `import fda2s` loads and exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fda2s import TimeSeriesRecord
from fda2s.io import write_functional_sample, write_record

from conftest import random_sample_pair

SRC = Path(__file__).resolve().parents[1] / "src"
# Prints the scipy modules loaded by the time the code before it has run.
LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_skips_scipy_interpolate_and_optimize():
    # and every other scipy module: only wave registration imports scipy.linalg
    assert _run(f"import sys, fda2s, fda2s.cli; {LOADED_SCIPY}") == "[]"


def test_spectrum_and_asymptotic_test_load_no_scipy(tmp_path, rng):
    record = tmp_path / "rec.csv"
    write_record(TimeSeriesRecord(1.28, rng.normal(size=2304)), record)
    x, y = random_sample_pair(rng, m=12, n=10)
    write_functional_sample(x, tmp_path / "x.csv")
    write_functional_sample(y, tmp_path / "y.csv")
    argv = [
        ["spectrum", "--input", str(record), "-o", str(tmp_path / "spec.csv")],
        ["test", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
         "--calibration", "asymptotic", "-o", str(tmp_path / "report.json")],
    ]
    code = (
        "import sys; from fda2s.cli import main; "
        f"assert [main(a) for a in {argv!r}] == [0, 0]; {LOADED_SCIPY}"
    )
    assert _run(code) == "[]"
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 < report["p_asymptotic"] <= 1.0
    assert np.isfinite(report["qn"])


def test_every_exported_name_resolves():
    import fda2s

    namespace = {}
    exec("from fda2s import *", namespace)  # AttributeError on a stale export
    assert sorted(set(fda2s.__all__) - set(namespace)) == []
