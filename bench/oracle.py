"""Output checks for every timed operation.

The statistic is recomputed by an independent NumPy oracle (own trapezoid
weights, ``np.linalg.solve`` on the pooled covariance) and compared with
what the library returned.  Any failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json

import numpy as np

from fda2s import io as fio

QN_RTOL = 1e-10
# Replicates allow a little more round-off, so that a reformulated null
# engine (closed-form permutation, autocovariance-domain spectral MC) that
# agrees with the per-replicate definition still passes.
REPLICATE_RTOL = 1e-9


class CheckFailed(Exception):
    """An operation's output does not match its oracle or contract."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def require_close(what: str, got: float, want: float, rtol: float):
    # Relative to the chi-square scale: a qn near 0 is compared absolutely.
    tol = rtol * max(abs(want), 1.0)
    require(abs(got - want) <= tol, f"{what}: got {got!r}, oracle {want!r}")


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    w = np.zeros(points.size)
    d = np.diff(points)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def scores(points: np.ndarray, rows: np.ndarray, funcs: np.ndarray) -> np.ndarray:
    """Trapezoid inner products of every row with every function."""
    return np.einsum("ip,jp,p->ij", rows, funcs, trapezoid_weights(points))


def qn(sx: np.ndarray, sy: np.ndarray) -> float:
    """eta' C^-1 eta with the pooled covariance, by a plain linear solve."""
    m, n = sx.shape[0], sy.shape[0]
    eta = np.sqrt(m + n) * (sx.mean(axis=0) - sy.mean(axis=0))
    cx = sx - sx.mean(axis=0)
    cy = sy - sy.mean(axis=0)
    pooled = ((m + n) / m + (m + n) / n) / (m + n - 2) * (cx.T @ cx + cy.T @ cy)
    return float(eta @ np.linalg.solve(pooled, eta))


def check_observed(result, points, x_rows, y_rows, funcs):
    require(result.k == funcs.shape[0], f"k = {result.k}, expected {funcs.shape[0]}")
    want = qn(scores(points, x_rows, funcs), scores(points, y_rows, funcs))
    require_close("observed qn", result.qn, want, QN_RTOL)


def check_report(result, reference: str | None) -> str:
    """The canonical report is byte-stable; returns it for later comparison."""
    text = fio.format_test_result(result)
    require(fio.format_test_result(result) == text, "report differs on reserialization")
    require(
        fio.canonical_json(json.loads(text)) == text,
        "report differs after a read/re-serialize round trip",
    )
    if reference is not None:
        require(text == reference, "report differs from the first operation's")
    return text


def check_null(result, null, B: int):
    """Replicate bookkeeping and the add-one p-value."""
    require(null is not None, "the null distribution was not observed")
    require(
        result.n_resamples + result.n_failed_resamples == B,
        f"{result.n_resamples} + {result.n_failed_resamples} replicates != B = {B}",
    )
    require(null.values.size == result.n_resamples, "null size != n_resamples")
    require(null.n_failed <= 0.01 * B, f"{null.n_failed} of {B} replicates failed")
    exceed = int(np.count_nonzero(null.values >= result.qn))
    want = (1.0 + exceed) / (null.values.size + 1.0)
    require(result.p_resampled == want, f"p_resampled {result.p_resampled} != {want}")


def check_replicate(null, r: int, want: float):
    """Replicate r of the null equals its recomputation from substream(seed, r)."""
    if null.n_failed == 0:
        require_close(f"replicate {r}", float(null.values[r]), want, REPLICATE_RTOL)
    else:
        # Failed replicates are dropped, so position r is no longer replicate r.
        tol = REPLICATE_RTOL * max(abs(want), 1.0)
        require(
            bool(np.any(np.abs(null.values - want) <= tol)),
            f"replicate {r}: oracle {want!r} not among the null values",
        )


def check_waves(segmented: list, sample, dropped: int):
    """Waves partition the record; registration keeps or counts every wave."""
    require(len(segmented) >= 2, "fewer than two waves")
    for prev, nxt in zip(segmented[:-1], segmented[1:]):
        require(prev.raw_times[-1] == nxt.raw_times[0], "waves overlap or leave a gap")
    require(
        sample.n_curves + dropped == len(segmented),
        f"{sample.n_curves} registered + {dropped} dropped != {len(segmented)} waves",
    )
    ends = np.abs(sample.values[:, [0, -1]])
    require(float(ends.max()) <= 1e-8, "registered waves do not end at zero")
