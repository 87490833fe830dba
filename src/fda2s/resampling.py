"""Finite-sample calibration: permutation splits and the spectral Monte Carlo null.

Replicate r of a plan draws from a substream keyed by (seed, r), and
replicates are evaluated in fixed consecutive chunks, so the ordered
replicate sequence is bit-identical however the chunks are scheduled
(serial, threaded, out of order).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bsplines import CONDITION_BOUND
from .errors import GridMismatch, SingularCovariance, TooFewReplicates
from .grids import FunctionalSample
from .projections import BasisSpec, GVector
from .qn import chi_square_isf, qn_batch, score_matrix
from .rng import rekeyed, substream
from .sea import (
    GaussianSynthesizer,
    SpectralDensity,
    check_lag_window,
    estimator_grid,
    parzen_estimates,
)

# Replicates per chunk of the permutation null.  A chunk holds one
# PERMUTATION_CHUNK x N membership mask, so memory does not grow with B,
# and chunks are the unit of thread scheduling.
PERMUTATION_CHUNK = 256
# Replicates per chunk of the spectral MC null.  A chunk holds the amplitude
# draws of SPECTRAL_MC_CHUNK x (m + n) records (1.5 MB for 10 vs 10 30-min
# records at 1.28 Hz); larger chunks ran no faster.
SPECTRAL_MC_CHUNK = 4


@dataclass(frozen=True)
class ResamplingPlan:
    """How many replicates to draw, from which seed, at which split sizes."""

    B: int
    seed: int
    sizes: tuple[int, int]

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("need at least one replicate")
        m, n = self.sizes
        if m < 2 or n < 2:
            raise ValueError("both split sizes must be >= 2")


@dataclass(frozen=True)
class SimConfig:
    """Settings for simulating and re-estimating records inside the MC null."""

    duration: float = 1800.0
    fs: float = 1.28
    parzen_L: int = 60
    n_freq: int = 481


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Ordered replicate values of the statistic under the null."""

    values: np.ndarray
    n_failed: int

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
    k: int


def _run_replicates(
    evaluate, plan: ResamplingPlan, n_jobs: int, chunk: int
) -> NullDistribution:
    """Evaluate replicates 0..B-1 in consecutive chunks, tolerating singular ones.

    `evaluate(rs)` returns the values of the replicates in range `rs`, NaN
    where a replicate was singular.  The chunk boundaries depend on `chunk`
    only, never on `n_jobs`.
    """
    chunks = [range(s, min(s + chunk, plan.B)) for s in range(0, plan.B, chunk)]
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            raw = np.concatenate(list(pool.map(evaluate, chunks)))
    else:
        raw = np.concatenate(list(map(evaluate, chunks)))
    failed = int(np.count_nonzero(np.isnan(raw)))
    if failed > 0.01 * plan.B:
        raise SingularCovariance(
            f"{failed} of {plan.B} replicates failed; "
            "the scheme is too rich for these sample sizes"
        )
    return NullDistribution(raw[~np.isnan(raw)], failed)


class _SplitStatistic:
    """Qn of any (m, n) split of fixed pooled scores, from one factorization.

    The total centred scatter T = W + h d d' of the pooled scores is the
    same under every relabelling (W: within-sample scatter, d: difference
    of the sample means, h = mn/N).  With a = d' T^-1 d, Sherman-Morrison
    gives d' W^-1 d = a / (1 - h a), so Qn = (N - 2) h a / (1 - h a).

    cond(W) <= cond(T) / (1 - h a), so a split counts as singular when
    1 - h a <= cond(T) / CONDITION_BOUND: every split on which the direct
    evaluation fails, and possibly a few more.  When T itself exceeds the
    bound or cannot be factored, `factor` is None and every split fails.
    """

    def __init__(self, scores: np.ndarray, m: int):
        self.N = scores.shape[0]
        self.m, self.n = m, self.N - m
        self.h = m * self.n / self.N
        centred = scores - scores.mean(axis=0)
        self.total = centred.sum(axis=0)
        self.centred_t = np.ascontiguousarray(centred.T)
        scatter = centred.T @ centred
        cond = np.linalg.cond(scatter)
        self.factor = None
        self.min_slack = cond / CONDITION_BOUND
        if np.isfinite(cond) and cond <= CONDITION_BOUND:
            try:
                self.factor = scipy.linalg.cho_factor(scatter)
            except scipy.linalg.LinAlgError:
                pass

    def values(self, x_rows: np.ndarray) -> np.ndarray:
        """Qn of the splits whose x-samples are the rows of `x_rows`; NaN if singular.

        Membership goes through a 0/1 mask, reduced by einsum over whole
        rows: a value depends on the set of x-indices only, not on their
        order or on the row's position (BLAS matmul sums edge rows of a
        block in a different order).
        """
        count = x_rows.shape[0]
        if self.factor is None:
            return np.full(count, np.nan)
        mask = np.zeros((count, self.N))
        mask[np.arange(count)[:, None], x_rows] = 1.0
        sx = np.einsum("cn,kn->ck", mask, self.centred_t)
        d = sx / self.m - (self.total - sx) / self.n
        ha = self.h * np.einsum("ij,ji->i", d, scipy.linalg.cho_solve(self.factor, d.T))
        out = np.full(count, np.nan)
        ok = 1.0 - ha > self.min_slack
        out[ok] = np.maximum((self.N - 2) * ha[ok] / (1.0 - ha[ok]), 0.0)
        return out


def permutation_null(
    joint: FunctionalSample,
    basis: BasisSpec | GVector,
    plan: ResamplingPlan,
    n_jobs: int = 1,
) -> NullDistribution:
    """Null statistic values from random splits of the pooled sample.

    Data-driven schemes are built once from the joint sample: their
    construction depends only on the unlabeled pooled set, so rebuilding
    per replicate would change nothing.  Replicate r takes the first m
    entries of `substream(seed, r).permutation(N)` as its x-sample and is
    evaluated in closed form from one factorization (`_SplitStatistic`),
    PERMUTATION_CHUNK replicates at a time.  Each chunk builds one
    generator and re-keys it for each of its replicates (`rekeyed`), which
    draws the same streams.
    """
    m, n = plan.sizes
    if m + n != joint.n_curves:
        raise ValueError(
            f"split sizes {plan.sizes} do not add up to {joint.n_curves} curves"
        )
    g = basis.build(joint) if isinstance(basis, BasisSpec) else basis
    split = _SplitStatistic(score_matrix(joint, g), m)

    def evaluate(rs: range) -> np.ndarray:
        rng = substream(plan.seed, rs.start)
        x_rows = np.array([g.permutation(split.N)[:m] for g in rekeyed(rng, rs)])
        return split.values(x_rows)

    return _run_replicates(evaluate, plan, n_jobs, PERMUTATION_CHUNK)


def permutation_pvalue(observed_qn: float, null_values) -> float:
    """Add-one estimator: (1 + #{replicates >= observed}) / (B + 1)."""
    values = np.asarray(null_values, dtype=float)
    if values.size == 0:
        raise TooFewReplicates("no null replicates")
    exceed = int(np.count_nonzero(values >= observed_qn))
    return (1.0 + exceed) / (values.size + 1.0)


def average_spectrum(spectra: list[SpectralDensity]) -> SpectralDensity:
    """Pointwise mean of spectra sharing one frequency grid.

    Anchored at the first density so that the mean of identical spectra
    reproduces them bit-exactly.
    """
    if not spectra:
        raise ValueError("need at least one spectral density")
    grid = spectra[0].freq
    for s in spectra[1:]:
        if not s.freq.matches(grid):
            raise ValueError("spectra do not share a frequency grid")
    anchor = spectra[0].values
    offsets = np.mean([s.values - anchor for s in spectra], axis=0)
    return SpectralDensity(grid, np.clip(anchor + offsets, 0.0, None))


def check_estimator_grid(grids, sim: SimConfig) -> None:
    """Raise GridMismatch unless every grid is the one the MC null estimates on."""
    reference = estimator_grid(sim.fs, sim.n_freq).points
    if not all(
        len(grid) == reference.size
        and np.allclose(grid.points, reference, rtol=1e-9, atol=1e-9)
        for grid in grids
    ):
        raise GridMismatch(
            "spectral-mc inputs must be spectra on the estimator grid "
            f"[0, pi*{sim.fs}] with {sim.n_freq} points; "
            "re-estimate with matching --mc-fs/--mc-nfreq"
        )


def spectral_mc_null(
    spectra_x: list[SpectralDensity],
    spectra_y: list[SpectralDensity],
    sim: SimConfig,
    basis: BasisSpec,
    plan: ResamplingPlan,
    n_jobs: int = 1,
) -> NullDistribution:
    """Monte Carlo null built by resimulating records from the average spectrum.

    Each replicate simulates m + n independent Gaussian records from the
    pooled average density, re-estimates their spectra with the given
    estimator settings, and evaluates the statistic on the (m, n) split.
    Replicate r draws the amplitudes `GaussianSynthesizer.simulate` draws
    from `substream(seed, r)`; its autocovariances come straight from them
    (`GaussianSynthesizer.autocovariances`), and SPECTRAL_MC_CHUNK
    replicates at a time go through one Parzen, score and Qn computation.
    """
    check_estimator_grid([s.freq for s in [*spectra_x, *spectra_y]], sim)
    m, n = plan.sizes
    if (len(spectra_x), len(spectra_y)) != (m, n):
        raise ValueError("plan sizes must match the numbers of input spectra")
    s_avg = average_spectrum(list(spectra_x) + list(spectra_y))
    synth = GaussianSynthesizer(int(round(sim.duration * sim.fs)), sim.fs)
    check_lag_window(synth.n, sim.parzen_L)
    std = np.sqrt(synth.amplitude_variances(s_avg))

    def weighted_g(joint: FunctionalSample) -> np.ndarray:
        return (basis.build(joint).functions * joint.grid.weights).T

    # Scores are est @ (g w)'.  A fixed basis is weighted once; a data-driven
    # one is rebuilt from each replicate's estimates.
    fixed = None if basis.data_driven else weighted_g(FunctionalSample(
        estimator_grid(sim.fs, sim.n_freq), np.zeros((1, sim.n_freq))))

    def evaluate(rs: range) -> np.ndarray:
        rngs = [substream(plan.seed, r) for r in rs]
        acov = synth.autocovariances(std, rngs, m + n, sim.parzen_L)
        grid, est = parzen_estimates(acov, sim.fs, sim.n_freq)
        if fixed is not None:
            scores = est @ fixed
        else:
            scores = np.stack([e @ weighted_g(FunctionalSample(grid, e)) for e in est])
        return qn_batch(scores, m)

    return _run_replicates(evaluate, plan, n_jobs, SPECTRAL_MC_CHUNK)


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
    probs = np.asarray(probs, dtype=float)
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    if np.any(np.diff(probs) <= 0):
        raise ValueError("probabilities must be strictly increasing")
    empirical = np.quantile(values, probs, method="linear")
    zero = probs[empirical == 0.0]
    if zero.size:
        raise ValueError(
            f"empirical null quantile at p={zero[0]:g} is 0, "
            "so its relative error is undefined"
        )
    asymptotic = np.array([chi_square_isf(1.0 - p, k) for p in probs])
    relative_error = (asymptotic - empirical) / empirical
    return QuantileTable(probs, empirical, asymptotic, relative_error, k)
