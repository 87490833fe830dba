"""The import graph and the public API: what `import fda2s` loads and exports."""

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


def test_every_exported_name_resolves():
    import fda2s

    namespace = {}
    exec("from fda2s import *", namespace)  # AttributeError on a stale export
    assert sorted(set(fda2s.__all__) - set(namespace)) == []
