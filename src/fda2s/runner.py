"""The two-sample test: one path, `calibrate`, from two samples to a null.

`calibrate` builds the basis from the pooled sample, evaluates the observed
statistic and draws the null of one of CALIBRATIONS: none for the chi-square
limit, random splits (`permutation_null`) or resimulation from the pooled
average spectrum (`spectral_mc_null`), called with the pooled sample, its
g-vector, the x-sample's size and the settings its CALIBRATIONS entry lists.
`run_test` adds the add-one p-value; `fda2s quantiles` tabulates the null.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import GridMismatch, count
from .grids import FunctionalSample
from .projections import BasisSpec, parse_spec
from .qn import TestResult, qn_statistic, score_matrix
from .resampling import (NullDistribution, _check_estimator_grid, permutation_null,
                         permutation_pvalue, spectral_mc_null)
from .rng import fresh_seed
from .sea import SimConfig, SpectralDensity, spectra_to_sample

DEFAULT_B = 1000
# The settings each calibration reads; `calibrate` refuses any other.
CALIBRATIONS = {"asymptotic": (), "permutation": ("B", "seed"),
                "spectral-mc": ("B", "seed", "n_jobs", "sim")}
_TEXT_KEYS = ("B",)  # the settings a calibration's text sets; callers pass the rest


def _reads(calibration: str) -> tuple[str, ...]:
    if calibration not in CALIBRATIONS:
        raise ValueError(f"unknown calibration {calibration!r}; expected "
                         + ", ".join(map(repr, CALIBRATIONS)))
    return CALIBRATIONS[calibration]


def parse_calibration(text: str) -> tuple[str, dict]:
    """`name[:key=value,...]`, by `parse_spec`, as a name of CALIBRATIONS and the
    settings its keys set: those of its settings in `_TEXT_KEYS`, in any case,
    each a count of at least 1."""
    name, params = parse_spec(text, "calibration")
    keys = {key.lower(): key for key in _reads(name) if key in _TEXT_KEYS}
    settings = {}
    for key, value in params.items():
        if key not in keys:
            raise ValueError(f"calibration {name!r} takes "
                             f"{', '.join(keys.values()) or 'no parameters'}, got {text!r}")
        settings[keys[key]] = count(value, f"parameter {keys[key]!r} of {text!r}", 1)
    return name, settings


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


def calibrate(x: FunctionalSample, y: FunctionalSample, basis: BasisSpec,
              calibration: str = "asymptotic", B: int | None = None, seed: int | None = None,
              n_jobs: int = 1, sim: SimConfig | None = None
              ) -> tuple[TestResult, NullDistribution | None]:
    """The observed statistic and the null (None if "asymptotic") of `calibration`,
    one of CALIBRATIONS, which lists the settings each reads; a null given no `B`
    or `seed` draws DEFAULT_B replicates from a fresh seed.  The result has the
    null's replicate counts and seed (a Python int), not the resampled p-value.
    One basis, built from the pooled sample, serves the observed statistic and
    either null: it depends only on the unlabeled pooled set (the spectral MC null
    re-estimates a `pca` basis from each replicate's own spectra).
    """
    reads = _reads(calibration)
    settings = {"sim": sim, "n_jobs": n_jobs, "B": B, "seed": seed}
    for name, value in settings.items():
        unread = 1 if name == "n_jobs" else None  # True and 1.0 equal 1, but are not it
        if name not in reads and (value != unread or type(value) is not type(unread)):
            detail = (f"runs on one thread; got n_jobs={n_jobs}" if name == "n_jobs"
                      else f"takes no {name}")
            raise ValueError(f"calibration {calibration!r} {detail}")
    if "sim" in reads and sim is None:
        raise ValueError(f"calibration {calibration!r} needs sim, the resimulation settings")
    if sim is not None:  # off the estimator grid says more than "different grids"
        _check_estimator_grid(x.grid, sim)
        _check_estimator_grid(y.grid, sim)
    joint = concatenate_samples(x, y)
    g = basis.build(joint)
    result = replace(qn_statistic(score_matrix(x, g), score_matrix(y, g)),
                     scheme=g.scheme, params=dict(g.params))
    # looked up when called: the benchmark wraps these runner globals
    null_of = {"permutation": permutation_null, "spectral-mc": spectral_mc_null}.get(calibration)
    if null_of is None:
        return result, None
    settings.update(B=DEFAULT_B if B is None else B, seed=fresh_seed() if seed is None else seed)
    null = null_of(joint, g, x.n_curves, **{s: settings[s] for s in reads})
    return replace(result, n_resamples=null.n_effective, n_failed_resamples=null.n_failed,
                   seed=int(settings["seed"])), null


def run_test(x: FunctionalSample, y: FunctionalSample, basis: BasisSpec,
             calibration: str = "asymptotic", B: int | None = None, seed: int | None = None,
             n_jobs: int = 1, sim: SimConfig | None = None) -> TestResult:
    """Two-sample test: `calibrate`'s result with the add-one p-value of its null,
    which counts the replicates at or above the observed split's value by the
    null's own arithmetic, so a permutation replicate that draws the observed
    split ties with it; the reported `qn` is `qn_statistic`'s."""
    result, null = calibrate(x, y, basis, calibration, B, seed, n_jobs, sim)
    if null is None:
        return result
    observed = result.qn if null.observed is None else null.observed
    return replace(result, p_resampled=permutation_pvalue(observed, null.values))


def spectral_mc_test(spectra_x: list[SpectralDensity], spectra_y: list[SpectralDensity],
                     basis: BasisSpec, sim: SimConfig, B: int = DEFAULT_B,
                     seed: int | None = None, n_jobs: int = 1) -> TestResult:
    """The benchmark's adapter onto `run_test(..., "spectral-mc", sim=sim)`, kept only because
    bench/workloads.py calls it; the benchmark's mending (ROADMAP item 1) deletes it."""
    return run_test(spectra_to_sample(spectra_x, "x"), spectra_to_sample(spectra_y, "y"),
                    basis, "spectral-mc", B=B, seed=seed, n_jobs=n_jobs, sim=sim)
