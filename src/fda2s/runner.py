"""High-level entry points tying bases, the statistic, and calibration together."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import GridMismatch
from .grids import FunctionalSample
from .projections import BasisSpec, GVector
from .qn import TestResult, qn_statistic, score_matrix
from .resampling import (
    NullDistribution,
    SimConfig,
    permutation_null,
    permutation_pvalue,
    spectral_mc_null,
)
from .rng import fresh_seed
from .sea import SpectralDensity


def concatenate_samples(
    x: FunctionalSample, y: FunctionalSample, label: str = "joint"
) -> FunctionalSample:
    if not x.grid.matches(y.grid):
        raise GridMismatch("samples live on different grids")
    return FunctionalSample(x.grid, np.vstack([x.values, y.values]), label)


def _attach_null(result: TestResult, null: NullDistribution, seed: int) -> TestResult:
    return replace(
        result,
        p_resampled=permutation_pvalue(result.qn, null.values),
        n_resamples=null.n_effective,
        n_failed_resamples=null.n_failed,
        seed=seed,
    )


def _observed(
    x: FunctionalSample, y: FunctionalSample, basis: BasisSpec
) -> tuple[TestResult, FunctionalSample, GVector]:
    """The observed statistic, the pooled sample and the g-vector built from it."""
    joint = concatenate_samples(x, y)
    g = basis.build(joint)
    result = replace(qn_statistic(score_matrix(x, g), score_matrix(y, g)),
                     scheme=g.scheme, params=dict(g.params))
    return result, joint, g


def run_test(
    x: FunctionalSample,
    y: FunctionalSample,
    basis: BasisSpec,
    calibration: str = "asymptotic",
    B: int = 1000,
    seed: int | None = None,
    n_jobs: int = 1,
) -> TestResult:
    """Two-sample test with the given basis and calibration method.

    Data-driven schemes are built once from the pooled sample and reused
    for the observed statistic and, under ``calibration="permutation"``,
    for every replicate: their construction depends only on the unlabeled
    pooled set, so rebuilding per replicate would change nothing.
    """
    result, joint, g = _observed(x, y, basis)
    if calibration == "asymptotic":
        return result
    if calibration != "permutation":
        raise ValueError(
            "run_test calibrations: 'asymptotic' or 'permutation' "
            "(use spectral_mc_test for the Monte Carlo null)"
        )
    seed = fresh_seed() if seed is None else seed
    null = permutation_null(joint, g, x.n_curves, B, seed, n_jobs=n_jobs)
    return _attach_null(result, null, seed)


def sample_to_spectra(sample: FunctionalSample) -> list[SpectralDensity]:
    """Interpret each curve of a functional sample as a spectral density."""
    return [SpectralDensity(sample.grid, row) for row in sample.values]


def spectra_to_sample(
    spectra: list[SpectralDensity], label: str = ""
) -> FunctionalSample:
    grid = spectra[0].freq
    for s in spectra[1:]:
        if not s.freq.matches(grid):
            raise GridMismatch("spectra do not share a frequency grid")
    return FunctionalSample(grid, np.asarray([s.values for s in spectra]), label)


def spectral_mc_test(
    spectra_x: list[SpectralDensity],
    spectra_y: list[SpectralDensity],
    basis: BasisSpec,
    sim: SimConfig,
    B: int = 1000,
    seed: int | None = None,
    n_jobs: int = 1,
) -> TestResult:
    """Two-sample spectral test calibrated by resimulating from the average density."""
    result, _, g = _observed(spectra_to_sample(spectra_x, "x"),
                             spectra_to_sample(spectra_y, "y"), basis)
    seed = fresh_seed() if seed is None else seed
    null = spectral_mc_null(spectra_x, spectra_y, sim, g, B, seed, n_jobs=n_jobs)
    return _attach_null(result, null, seed)
