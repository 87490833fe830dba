"""The import graph: the package and its CLI load no SciPy module they do not use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_skips_scipy_interpolate_and_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, fda2s, fda2s.cli; "
        "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
