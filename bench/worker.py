"""One workload in a fresh process: set-up, the timed closed loop, checks, metrics.

``run.py`` starts this script with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``; it prints one JSON object as its last line of output.
"""

import time

_T0 = time.perf_counter()
import fda2s  # noqa: E402  (its import cost is part of setup_s)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_OPS = 3  # also >= 1 untraced and 1 traced operation in a traced run
# Reported times are seconds on a machine where ReferenceKernel.seconds()
# takes REF_S, about its time on the idle 2-core Intel Xeon VM on which the
# bounds in BENCHMARK.json were set.
REF_S = 0.05
# Spans whose call count per operation is reported next to their self time.
COUNTED_SPANS = (
    "rng.substream", "qn.qn_statistic", "sea.simulate", "sea.estimate_spectra",
    "grids.sample_inner_products", "projections.build",
)


class ReferenceKernel:
    """Fixed NumPy work shaped like the library's own, timed to gauge machine speed.

    Batched FFTs, a Python loop of small permute-and-solve steps and one
    symmetric eigendecomposition.  On a shared host the machine's speed
    drifts by tens of percent within seconds; the kernel, timed right
    before and after an operation, measures that drift.  It is the
    benchmark's own code, so no change to the library can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.records = rng.standard_normal((20, 2304))
        self.scores = rng.standard_normal((560, 3))
        a = rng.standard_normal((200, 200))
        self.sym = a @ a.T

    def seconds(self) -> float:
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(4):
            spec = np.fft.rfft(self.records, 4096, axis=1)
            np.fft.irfft(spec * spec.conj(), 4096, axis=1)
        for _ in range(300):
            perm = rng.permutation(self.scores.shape[0])
            x, y = self.scores[perm[:280]], self.scores[perm[280:]]
            np.linalg.solve(np.cov(x.T) + np.cov(y.T), x.mean(axis=0) - y.mean(axis=0))
        np.linalg.eigh(self.sym)
        return time.perf_counter() - t0

    def scale(self) -> float:
        """REF_S over the median of three timings: seconds -> reference seconds."""
        return REF_S / median(self.seconds() for _ in range(3))


def _report(wl, op_id: int, message: str):
    print(f"[bench] {wl.name} operation {op_id} FAILED: {message}", file=sys.stderr)


def measure(wl, seconds: float, tracer: Tracer | None = None) -> dict:
    """Closed loop for ``seconds``; odd operations are traced when a tracer is given.

    Only ``wl.operation()`` is timed.  The reference kernel runs before the
    first operation and after each one; an operation's ``scaled_s`` is its
    wall time times REF_S over the mean kernel time around it.  Checks run
    after the clock stops.
    """
    ops = []
    reference = None
    kernel = ReferenceKernel()
    kernel.seconds()  # warm: first-call costs of the FFT and LAPACK paths
    before = kernel.seconds()
    with workloads.NullCapture() as capture:
        start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
            op_id = len(ops)
            traced = tracer is not None and op_id % 2 == 1
            out, error = None, None
            with tracer.operation(op_id) if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    out = wl.operation()
                except Exception:  # counted as a failed operation; the loop goes on
                    error = traceback.format_exc()
                elapsed = time.perf_counter() - t0
            after = kernel.seconds()
            scaled = elapsed * REF_S / (0.5 * (before + after))
            before = after
            null = capture.take()
            if error is None:
                try:
                    wl.check(out, null)
                    reference = oracle.check_report(out.result, reference)
                except oracle.CheckFailed as exc:
                    error = f"output check: {exc}"
                except Exception:  # a check that crashes fails the operation too
                    error = traceback.format_exc()
            if error is not None:
                _report(wl, op_id, error)
            ops.append({
                "op": op_id,
                "traced": traced,
                "seconds": elapsed,
                "scaled_s": scaled,
                "failed": error is not None,
                "replicates": 0 if null is None else null.n_effective + null.n_failed,
                "failed_replicates": 0 if null is None else null.n_failed,
                "segmented": 0 if out is None else out.segmented,
                "registered": 0 if out is None else out.registered,
            })
    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(wl, ops: list) -> dict:
    op_s = median(o["scaled_s"] for o in ops)
    return {
        "op_s": (op_s, "s"),
        # Statistic evaluations per second: B null replicates plus the observed
        # one, over the median operation, so that one stalled operation does
        # not move it.
        "replicates_per_s": ((wl.B + 1) / op_s, "1/s"),
    }


def per_layer(tracer: Tracer, ops: list) -> dict:
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]
    metrics = {}
    for name, samples in tracer.per_operation([o["op"] for o in traced]).items():
        if name in COUNTED_SPANS:
            metrics[f"{name}.calls"] = (median(samples["calls"]), "count")
        metrics[f"{name}.self_s"] = (median(samples["self_s"]), "s")
    segmented = median(o["segmented"] for o in traced)
    metrics["resampling.replicates"] = (median(o["replicates"] for o in traced), "count")
    metrics["resampling.failed_replicates"] = (
        median(o["failed_replicates"] for o in traced), "count")
    metrics["waves.segmented"] = (segmented, "count")
    metrics["waves.kept_frac"] = (
        median(o["registered"] for o in traced) / segmented if segmented else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (
        median(o["scaled_s"] for o in traced) / median(o["scaled_s"] for o in untraced) - 1.0,
        "ratio",
    )
    return metrics


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "fda2s": fda2s.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file for the traced run's spans (.npz)")
    args = p.parse_args(argv)

    sizes = workloads.SMOKE if args.smoke else workloads.PAPER
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
    setup_wall_s = IMPORT_S + time.perf_counter() - t0
    result = {
        "setup_s": setup_wall_s * ReferenceKernel().scale(),
        "setup_wall_s": setup_wall_s,
        "import_s": IMPORT_S,
        "versions": versions(),
    }
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        result.update(measure(wl, args.seconds, tracer))
        if tracer is None:
            metrics = end_to_end(wl, result["ops"])
        else:
            metrics = per_layer(tracer, result["ops"])
            result["patch_points_found"] = tracer.found
            if args.spans:
                np.savez(args.spans, names=np.array(tracer.names), **tracer.arrays())
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
