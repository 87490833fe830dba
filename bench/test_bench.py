"""Smoke tests of the benchmark: every workload, both modes, every check.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import fda2s  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_OPS
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_call_counts_are_exact_and_repeat():
    B = workloads.SMOKE.wave_B
    first, second = (smoke("wave-shape-permutation", 1)["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if k.endswith(".calls")}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["qn.qn_statistic.calls"] == B + 1
    assert counts["rng.substream.calls"] == B
    pca = smoke("spectral-mc-pca", 1)["metrics"]
    assert pca["projections.build.calls"]["value"] == workloads.SMOKE.mc_pca_B + 1


def _scale_qn(monkeypatch):
    original = fda2s.qn.quadratic_form
    monkeypatch.setattr(fda2s.qn, "quadratic_form",
                        lambda eta, cov: 1.000001 * original(eta, cov))


def _wrong_pvalue(monkeypatch):
    monkeypatch.setattr(fda2s.runner, "permutation_pvalue", lambda qn, values: 0.5)


def _shifted_substream(monkeypatch):
    original = fda2s.resampling.substream
    monkeypatch.setattr(fda2s.resampling, "substream",
                        lambda seed, r: original(seed + 1, r))


@pytest.mark.parametrize("corrupt", [_scale_qn, _wrong_pvalue, _shifted_substream])
def test_corrupted_output_fails_a_check_loudly(monkeypatch, capsys, corrupt):
    corrupt(monkeypatch)
    wl = workloads.WaveShapePermutation(3, workloads.SMOKE)
    ops = worker.measure(wl, 0.0)["ops"]
    assert ops and all(o["failed"] for o in ops)
    assert "FAILED" in capsys.readouterr().err


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "spectral-mc-pca", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
