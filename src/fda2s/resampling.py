"""Finite-sample calibration: permutation splits and the spectral Monte Carlo null.

Both nulls run through one driver, `_run_replicates`: replicate r draws from
the stream of `substream(seed, r)`, one Philox per chunk of replicates, so the
replicate sequence is bit-identical however the chunks are scheduled.  The
spectral MC null resimulates records as `sea.SimConfig` sets them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bsplines import CONDITION_BOUND, condition_number, well_conditioned
from .errors import GridMismatch, SingularCovariance, TooFewCurves, TooFewReplicates, count
from .grids import FunctionalSample, Grid
from .projections import GVector, pca_eigenpairs
from .qn import chi_square_isf, qn_batch, score_matrix
from .rng import rekeyed, substream
from .sea import ParzenScorer, SimConfig, average_rows, estimate_span, estimator_grid

# Replicates per chunk of the permutation null.  A chunk fills one
# PERMUTATION_CHUNK x N membership mask, allocated once per statistic, so
# memory does not grow with B.
PERMUTATION_CHUNK = 256
# Replicates per chunk of the spectral MC null.  A chunk holds the amplitude
# draws of SPECTRAL_MC_CHUNK x (m + n) records (1.5 MB for 10 vs 10 30-min
# records at 1.28 Hz); larger chunks ran no faster.
SPECTRAL_MC_CHUNK = 4


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Ordered replicate values of the statistic under the null, and `observed`, the
    observed split's value by the replicates' own arithmetic, so that a replicate
    drawing that split ties with it; None for a null that draws fresh data, or
    where that arithmetic flags the observed split as singular."""

    values: np.ndarray
    n_failed: int
    observed: float | None = None

    @property
    def n_effective(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class QuantileTable:
    """Empirical null quantiles next to their chi-square counterparts."""

    probs: np.ndarray
    empirical: np.ndarray
    asymptotic: np.ndarray
    relative_error: np.ndarray


def _check_groups(m: int, n_curves: int) -> int:
    """n = n_curves - m, the y-sample's size; TooFewCurves unless m and n are at least 2."""
    n = n_curves - count(m, "m", 2, TooFewCurves)
    if n < 2:
        raise TooFewCurves(f"both groups need at least 2 curves, got {m} and {n}")
    return n


def _run_replicates(draw, evaluate, B: int, seed: int, n_jobs: int,
                    chunk: int) -> NullDistribution:
    """Evaluate replicates 0..B-1 in consecutive chunks, tolerating singular ones.

    `draw(gens, count)` stacks a chunk's `count` draws, one per generator of
    `gens`, which yields replicate r's generator on the stream of
    `substream(seed, r)`; `evaluate` maps the stack to values, NaN where a
    replicate was singular.  Chunk boundaries depend on `chunk` only, never
    on `n_jobs`.
    """
    B = count(B, "B", 1)

    def run(rs: range) -> np.ndarray:
        return evaluate(draw(rekeyed(substream(seed, rs.start), rs), len(rs)))

    chunks = [range(s, min(s + chunk, B)) for s in range(0, B, chunk)]
    if n_jobs > 1:
        # only threaded runs pay for this import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            raw = np.concatenate(list(pool.map(run, chunks)))
    else:
        raw = np.concatenate(list(map(run, chunks)))
    failed = int(np.count_nonzero(np.isnan(raw)))
    if failed > 0.01 * B:
        raise SingularCovariance(
            f"{failed} of {B} replicates failed; "
            "the scheme is too rich for these sample sizes"
        )
    return NullDistribution(raw[~np.isnan(raw)], failed)


class _SplitStatistic:
    """Qn of any (m, n) split of fixed pooled scores, from one eigendecomposition.

    The total centred scatter T = W + h d d' of the pooled scores is the
    same under every relabelling (W: within-sample scatter, d: difference
    of the sample means, h = mn/N).  With a = d' T^-1 d, Sherman-Morrison
    gives d' W^-1 d = a / (1 - h a), so Qn = (N - 2) h a / (1 - h a).
    One `eigh`, T = V diag(lambda) V', gives a = |d V diag(lambda)^-1/2|^2.

    cond(W) <= cond(T) / (1 - h a), so a split counts as singular when
    1 - h a <= cond(T) / CONDITION_BOUND: every split on which the direct
    evaluation fails, and possibly a few more.  When T itself fails
    `well_conditioned`, `whiten` is None and every split fails.
    """

    def __init__(self, scores: np.ndarray, m: int):
        self.N = scores.shape[0]
        self.m, self.n = m, self.N - m
        self.h = m * self.n / self.N
        centred = scores - scores.mean(axis=0)
        self.total = centred.sum(axis=0)
        self.centred_t = np.ascontiguousarray(centred.T)
        eigvals, vecs = np.linalg.eigh(centred.T @ centred)
        self.min_slack = condition_number(eigvals) / CONDITION_BOUND
        self.whiten = vecs / np.sqrt(eigvals) if well_conditioned(eigvals) else None
        self._mask = np.zeros((PERMUTATION_CHUNK, self.N), dtype=bool)

    def values(self, x_rows: np.ndarray) -> np.ndarray:
        """Qn of the splits whose x-samples are the rows of `x_rows`; NaN if singular.

        Membership goes through a bool mask, and every product is an einsum
        over whole rows: a value depends on the set of x-indices only, not
        on their order, the row's position or the row count (BLAS matmul
        sums edge rows of a block in a different order).  The einsum takes
        the mask as 1.0 and 0.0, and 1·x and 0·x are exact.  When m = n a
        split and its mirror are one split: both are evaluated on the side
        that holds curve 0, so they give the same bits.  The mask is the
        statistic's own, (PERMUTATION_CHUNK, N) or as many rows as the largest
        call brought, all False between calls, so calls on one statistic must
        not overlap.
        """
        count = x_rows.shape[0]
        if self.whiten is None:
            return np.full(count, np.nan)
        if count > self._mask.shape[0]:
            self._mask = np.zeros((count, self.N), dtype=bool)
        mask = self._mask[:count]
        mask.reshape(-1)[(x_rows + self.N * np.arange(count)[:, None]).ravel()] = True
        if self.m == self.n:
            mirrored = ~mask[:, 0]
            mask[mirrored] = ~mask[mirrored]
        sx = np.einsum("cn,kn->ck", mask, self.centred_t)
        mask.fill(False)
        d = sx / self.m - (self.total - sx) / self.n
        z = np.einsum("ck,kj->cj", d, self.whiten)
        ha = self.h * np.einsum("cj,cj->c", z, z)
        out = np.full(count, np.nan)
        ok = 1.0 - ha > self.min_slack
        out[ok] = np.maximum((self.N - 2) * ha[ok] / (1.0 - ha[ok]), 0.0)
        return out


def permutation_null(
    joint: FunctionalSample, g: GVector, m: int, B: int, seed: int
) -> NullDistribution:
    """Null statistic values from random splits of the pooled sample.

    Replicate r takes the first m entries of
    `substream(seed, r).permutation(N)` as its x-sample and is evaluated in
    closed form from one eigendecomposition (`_SplitStatistic`),
    PERMUTATION_CHUNK replicates at a time, on one thread: the draws hold
    the interpreter lock, so threads only slow them down.  Every chunk
    shuffles in place the rows of one permutation buffer, allocated once, and
    fills the statistic's one mask; `permutation(N)` is `shuffle(arange(N))`,
    so the draws are the same.  The observed split, the first m curves, is
    evaluated the same way.
    """
    _check_groups(m, joint.n_curves)
    split = _SplitStatistic(score_matrix(joint, g), m)
    identity = np.arange(split.N, dtype=np.intp)
    perms = np.empty((PERMUTATION_CHUNK, split.N), dtype=np.intp)

    def draw(gens, count: int) -> np.ndarray:
        perms[:count] = identity
        for row, gen in zip(perms, gens):
            gen.shuffle(row)
        return perms[:count, :m]

    null = _run_replicates(draw, split.values, B, seed, n_jobs=1, chunk=PERMUTATION_CHUNK)
    [observed] = split.values(np.arange(m)[None, :])
    return replace(null, observed=None if np.isnan(observed) else float(observed))


def permutation_pvalue(observed_qn: float, null_values) -> float:
    """Add-one estimator: (1 + #{replicates >= observed}) / (B + 1); a NaN
    observed value raises ValueError, since no replicate would count."""
    if np.isnan(observed_qn):
        raise ValueError(f"observed_qn must not be NaN, got {observed_qn!r}")
    values = np.asarray(null_values, dtype=float)
    if values.size == 0:
        raise TooFewReplicates("no null replicates")
    exceed = int(np.count_nonzero(values >= observed_qn))
    return (1.0 + exceed) / (values.size + 1.0)


def _check_estimator_grid(grid: Grid, sim: SimConfig) -> None:
    """GridMismatch unless `grid` is the grid the MC null estimates on."""
    reference = estimator_grid(sim.fs, sim.n_freq)
    if not (len(grid) == len(reference)
            and np.allclose(grid.points, reference.points, rtol=1e-9, atol=1e-9)):
        raise GridMismatch(
            "spectral-mc inputs must be spectra on the estimator grid "
            f"[0, pi*{sim.fs}] with {sim.n_freq} points; "
            "re-estimate with matching --mc-fs/--mc-nfreq"
        )


def spectral_mc_null(
    joint: FunctionalSample,
    g: GVector,
    m: int,
    sim: SimConfig,
    B: int,
    seed: int,
    n_jobs: int = 1,
) -> NullDistribution:
    """Monte Carlo null built by resimulating records from the average spectrum.

    `joint` pools the m x-spectra and then the n y-spectra, one row each,
    on the estimator grid of `sim`.  Each replicate simulates m + n
    independent Gaussian records from their average density
    (`average_rows`), re-estimates their spectra with the given
    estimator settings, and evaluates the statistic on the (m, n) split.
    Replicate r draws the amplitudes `GaussianSynthesizer.simulate` draws
    from `substream(seed, r)`, SPECTRAL_MC_CHUNK replicates at a time, and
    `ParzenScorer` turns them into the estimates' scores without forming a
    record or an estimate.  The functions scored on are those of `g`, or
    for a `pca` g `estimate_span`, whose scores are the estimates' L2(w)
    coordinates: each replicate's `pca_eigenpairs` of them, on unit weights
    with d = g.k, give its pca scores up to signs, which Qn does not depend
    on.  `n_jobs` threads run the chunks; an `n_jobs` that is not a count
    of at least 1 raises before any draw.
    """
    n_jobs = count(n_jobs, "n_jobs", 1)
    n = _check_groups(m, joint.n_curves)
    _check_estimator_grid(joint.grid, sim)
    if not g.grid.matches(joint.grid):
        raise GridMismatch("g is not sampled on the spectra's frequency grid")
    functions = estimate_span(sim) if g.scheme == "pca" else g.functions
    scorer = ParzenScorer(sim, average_rows(joint), functions)
    synth = scorer.synth

    def evaluate(z: np.ndarray) -> np.ndarray:
        scores = scorer.scores(z)
        if g.scheme == "pca":
            phis = pca_eigenpairs(scores, np.ones(scores.shape[-1]), g.k)[1]
            scores = scores @ np.swapaxes(phis, -1, -2)
        return qn_batch(scores, m)

    def draw(gens, count: int) -> np.ndarray:
        # in place: per-replicate arrays and their stacked copy churned 3 MB a
        # chunk, which malloc could hand back to the OS and fault in again
        z = np.empty((count, 2, m + n, synth.lattice.size))
        for row, gen in zip(z, gens):
            synth.amplitude_normals(gen, m + n, out=row)
        return z

    return _run_replicates(draw, evaluate, B, seed, n_jobs, SPECTRAL_MC_CHUNK)


def check_probs(probs) -> np.ndarray:
    """`probs` as floats; ValueError unless they form a non-empty 1-d sequence that
    increases and lies in the open unit interval."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError(f"probs must be a non-empty 1-d sequence, got {probs.tolist()}")
    if not np.all((probs > 0.0) & (probs < 1.0)):
        raise ValueError(f"probs must lie strictly inside (0, 1), got {probs.tolist()}")
    if np.any(np.diff(probs) <= 0):
        raise ValueError(f"probs must be strictly increasing, got {probs.tolist()}")
    return probs


def quantile_table(null_values, k: int, probs=(0.5, 0.9, 0.95, 0.975, 0.99)) -> QuantileTable:
    """Empirical null quantiles with their chi-square reference values.

    Empirical quantiles interpolate linearly between order statistics;
    the relative error column is (asymptotic - empirical) / empirical, so
    an empirical quantile of 0 is rejected.
    """
    values = np.asarray(null_values, dtype=float)
    if values.size < 100:
        raise TooFewReplicates(
            f"need at least 100 replicates for quantiles, got {values.size}"
        )
    probs = check_probs(probs)
    empirical = np.quantile(values, probs, method="linear")
    zero = probs[empirical == 0.0]
    if zero.size:
        raise ValueError(
            f"empirical null quantile at p={zero[0]:g} is 0, "
            "so its relative error is undefined"
        )
    asymptotic = np.array([chi_square_isf(1.0 - p, k) for p in probs])
    relative_error = (asymptotic - empirical) / empirical
    return QuantileTable(probs, empirical, asymptotic, relative_error)
