"""The two-sample test: one entry point, `run_test`, for every calibration.

`run_test` builds the basis from the pooled sample, evaluates the observed
statistic, and calibrates it by one of CALIBRATIONS: the chi-square limit,
random splits of the pooled sample (`permutation_null`), or resimulation
from the pooled average spectrum (`spectral_mc_null`).  Both nulls take the
same inputs: the pooled sample, its g-vector and the x-sample's size.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import GridMismatch
from .grids import FunctionalSample
from .projections import BasisSpec
from .qn import TestResult, qn_statistic, score_matrix
from .resampling import (SimConfig, _check_estimator_grid, permutation_null,
                         permutation_pvalue, spectral_mc_null)
from .rng import fresh_seed
from .sea import SpectralDensity, spectra_to_sample

CALIBRATIONS = ("asymptotic", "permutation", "spectral-mc")


def concatenate_samples(
    x: FunctionalSample, y: FunctionalSample, label: str = "joint"
) -> FunctionalSample:
    """The curves of `x` and then those of `y`, in one sample that keeps its
    `vstack` as its values, without a second copy."""
    if not x.grid.matches(y.grid):
        raise GridMismatch("samples live on different grids")
    values = np.vstack([x.values, y.values])
    values.flags.writeable = False
    return FunctionalSample(x.grid, values, label)


def run_test(
    x: FunctionalSample,
    y: FunctionalSample,
    basis: BasisSpec,
    calibration: str = "asymptotic",
    B: int | None = None,
    seed: int | None = None,
    n_jobs: int = 1,
    sim: SimConfig | None = None,
) -> TestResult:
    """Two-sample test with the given basis and calibration, one of CALIBRATIONS.

    Data-driven schemes are built once from the pooled sample and reused
    for the observed statistic and by either null: their construction
    depends only on the unlabeled pooled set, so rebuilding per replicate
    would change nothing (the spectral MC null re-estimates a `pca` basis
    from each replicate's own spectra).  `sim`, the settings of the
    resimulated records, is required by ``"spectral-mc"`` and taken by no
    other calibration; `x` and `y` then hold spectra on its estimator grid.
    `B` and `seed` go to the null, which draws 1000 replicates without a
    `B` and draws a seed without one; ``"asymptotic"`` has no null and
    refuses either.  `n_jobs` threads run the spectral MC null, and any
    `n_jobs` below 1 raises ValueError; every other calibration runs on one
    thread and refuses any other `n_jobs`.

    The add-one p-value counts the replicates at or above the observed
    split's value by the null's own arithmetic, so a permutation replicate
    that draws the observed split ties with it; the reported `qn` is
    `qn_statistic`'s.
    """
    if calibration not in CALIBRATIONS:
        raise ValueError(f"unknown calibration {calibration!r}; run_test calibrations: "
                         + ", ".join(map(repr, CALIBRATIONS)))
    if calibration == "spectral-mc" and sim is None:
        raise ValueError("calibration 'spectral-mc' needs sim, the resimulation settings")
    if calibration != "spectral-mc" and sim is not None:
        raise ValueError(f"calibration {calibration!r} takes no sim")
    if calibration != "spectral-mc" and n_jobs != 1:
        raise ValueError(f"calibration {calibration!r} runs on one thread; got n_jobs={n_jobs}")
    if calibration == "asymptotic":
        for name, value in (("B", B), ("seed", seed)):
            if value is not None:
                raise ValueError(f"calibration 'asymptotic' takes no {name}")
    if sim is not None:  # off the estimator grid says more than "different grids"
        _check_estimator_grid(x.grid, sim)
        _check_estimator_grid(y.grid, sim)
    joint = concatenate_samples(x, y)
    g = basis.build(joint)
    result = replace(qn_statistic(score_matrix(x, g), score_matrix(y, g)),
                     scheme=g.scheme, params=dict(g.params))
    if calibration == "asymptotic":
        return result
    B = 1000 if B is None else B
    seed = fresh_seed() if seed is None else seed
    if calibration == "permutation":
        null = permutation_null(joint, g, x.n_curves, B, seed)
    else:
        null = spectral_mc_null(joint, g, x.n_curves, sim, B, seed, n_jobs=n_jobs)
    observed = result.qn if null.observed is None else null.observed
    return replace(
        result,
        p_resampled=permutation_pvalue(observed, null.values),
        n_resamples=null.n_effective,
        n_failed_resamples=null.n_failed,
        seed=seed,
    )


def spectral_mc_test(spectra_x: list[SpectralDensity], spectra_y: list[SpectralDensity],
                     basis: BasisSpec, sim: SimConfig, B: int = 1000,
                     seed: int | None = None, n_jobs: int = 1) -> TestResult:
    """The benchmark's adapter onto `run_test(..., "spectral-mc", sim=sim)`, kept only because
    bench/workloads.py calls it; the benchmark's mending (ROADMAP item 1) deletes it."""
    return run_test(spectra_to_sample(spectra_x, "x"), spectra_to_sample(spectra_y, "y"),
                    basis, "spectral-mc", B, seed, n_jobs, sim)
