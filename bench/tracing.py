"""Attribute patching, in-memory spans and self-time reduction for the traced run.

The benchmark does not instrument the library.  It replaces the module (or
class) attributes through which callers look a function up, such as
``fda2s.resampling.qn_statistic``, with a wrapper that records a span, and
puts the original back afterwards.  A patch point that no longer exists is
skipped and reported, so a refactor that removes a call path shows up as a
zero count instead of a crash.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layer name -> the attributes its callers resolve at call time.
SPAN_POINTS = {
    "runner": ["fda2s.runner:run_test", "fda2s.runner:spectral_mc_test"],
    "resampling.null": [
        "fda2s.runner:permutation_null",
        "fda2s.runner:spectral_mc_null",
    ],
    "rng.substream": ["fda2s.resampling:substream"],
    "qn.qn_statistic": ["fda2s.runner:qn_statistic", "fda2s.resampling:qn_statistic"],
    "sea.simulate": ["fda2s.sea:GaussianSynthesizer.simulate"],
    "sea.estimate_spectra": ["fda2s.resampling:estimate_spectra"],
    "grids.sample_inner_products": [
        "fda2s.qn:sample_inner_products",
        "fda2s.resampling:sample_inner_products",
        "fda2s.projections:sample_inner_products",
    ],
    "projections.build": ["fda2s.projections:BasisSpec.build"],
    "waves.segment_waves": ["fda2s.waves:segment_waves"],
    "waves.register_sample": ["fda2s.waves:register_sample"],
}


def _resolve(point: str):
    """(owner object, attribute name) for 'module:attr' or 'module:Class.attr'."""
    module_name, _, path = point.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patcher:
    """Replaces attributes; ``restore`` puts every original back."""

    def __init__(self):
        self._saved = []

    def replace(self, point: str, make_wrapper) -> bool:
        try:
            owner, attr = _resolve(point)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans (name, start, end, parent, operation) kept in flat in-memory lists."""

    def __init__(self):
        self.names = list(SPAN_POINTS)
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.found: dict[str, bool] = {}
        self._stack = [-1]
        self._op_id = -1

    def _wrap(self, nid: int, fn):
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack
        )

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self._op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Record spans for one operation; attributes are patched only inside."""
        patcher = Patcher()
        self._op_id = op_id
        try:
            for nid, name in enumerate(self.names):
                for point in SPAN_POINTS[name]:
                    ok = patcher.replace(point, lambda fn, nid=nid: self._wrap(nid, fn))
                    self.found[point] = self.found.get(point, False) or ok
            yield
        finally:
            patcher.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int32),
        }

    def per_operation(self, op_ids: list[int]) -> dict[str, dict[str, list[float]]]:
        """Per layer: call count and summed self time of each listed operation.

        Self time is a span's duration minus the time its direct children
        cover; calls are serial, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            calls, selfs = [], []
            for op_id in op_ids:
                mask = (a["name_id"] == nid) & (a["op"] == op_id)
                calls.append(int(np.count_nonzero(mask)))
                selfs.append(float(self_time[mask].sum()))
            out[name] = {"calls": calls, "self_s": selfs}
        return out
