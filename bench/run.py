"""fda2s benchmark: run one workload and print its metrics as one JSON line.

Run from the repository root:

    python3 bench/run.py --workload wave-shape-permutation --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, op_s,
replicates_per_s, peak_rss_mb; times scaled to a reference speed, see
``worker.ReferenceKernel``); ``--trace 1`` prints the per-layer metrics
from a run whose odd operations are traced.  ``--smoke`` shrinks every
input so that a run takes seconds.  The workload runs in a fresh process
with BLAS pinned to one thread and the package imported from ``src/``.
The last line of output is
``{"correct", "attempted", "failed", "metrics"}``; the run's environment,
per-operation samples and, when traced, its spans are written under
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = (
    "wave-shape-permutation",
    "spectral-mc-indicator",
    "spectral-mc-pca",
    "long-record-asymptotic",
)
SETUP_SAMPLES = 3  # fresh processes whose set-up time gives setup_s's median
BLAS_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def _worker(root: Path, args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
        timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, versions: dict) -> dict:
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "fda2s" / "__init__.py").is_file():
        print("bench: run from the repository root; src/fda2s is missing here",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(out_dir / f"{args.workload}-spans.npz")]

    try:
        setups = [] if args.trace else [
            _worker(root, [*common, "--setup-only"], deadline)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        run = _worker(root, run_args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = run["metrics"]
    ops = run["ops"]
    failed = sum(o["failed"] for o in ops)
    setups.append(run)
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": run["peak_rss_mb"], "unit": "MB"}
    env = environment(root, run["versions"])
    record = {
        "args": vars(args), "environment": env,
        "setups": [{k: s[k] for k in ("setup_s", "setup_wall_s", "import_s")} for s in setups],
        "ops": ops, "metrics": metrics, "patch_points_found": run.get("patch_points_found"),
    }
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations, "
          f"failed_frac {failed / len(ops):.4g} ({failed}/{len(ops)}), median wall time "
          f"{statistics.median(o['seconds'] for o in ops):.4g} s per operation")
    for name, m in sorted(metrics.items()):
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
