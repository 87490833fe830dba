"""Quadratic-form two-sample testing for functional data.

Projection-based two-sample statistics with chi-square asymptotics,
permutation-split and spectral Monte Carlo calibration, and the
random-sea-wave pipeline (bimodal spectra, Gaussian synthesis, Parzen
estimation, downcrossing wave extraction and registration).
"""

from .bsplines import BSplineSpec, equidistant_spec, to_bspline
from .errors import FdaError
from .grids import FunctionalSample, Grid, Interval, uniform_grid
from .projections import (
    BasisSpec,
    GVector,
    bspline_basis_g,
    fourier_coefficients,
    indicator_basis,
    pca_basis,
    trig_g_functions,
)
from .qn import TestResult, chi_square_isf, chi_square_sf, qn_statistic, score_matrix
from .resampling import (
    NullDistribution,
    QuantileTable,
    permutation_null,
    permutation_pvalue,
    quantile_table,
    spectral_mc_null,
)
from .rng import fresh_seed, substream
from .runner import concatenate_samples, run_test
from .sea import (
    GaussianSynthesizer,
    SimConfig,
    SpectralDensity,
    TimeSeriesRecord,
    TorsethaugenParams,
    average_spectrum,
    default_frequency_grid,
    estimate_spectrum,
    estimator_grid,
    parzen_window,
    simulate_gaussian,
    spectra_to_sample,
    torsethaugen_spectrum,
)
from .waves import (
    RegistrationSpec,
    Waves,
    downcrossings,
    normalize_sample,
    register_sample,
    segment_waves,
)

__version__ = "0.1.0"

__all__ = [
    "BSplineSpec",
    "BasisSpec",
    "FdaError",
    "FunctionalSample",
    "GVector",
    "GaussianSynthesizer",
    "Grid",
    "Interval",
    "NullDistribution",
    "QuantileTable",
    "RegistrationSpec",
    "SimConfig",
    "SpectralDensity",
    "TestResult",
    "TimeSeriesRecord",
    "TorsethaugenParams",
    "Waves",
    "average_spectrum",
    "bspline_basis_g",
    "chi_square_isf",
    "chi_square_sf",
    "concatenate_samples",
    "default_frequency_grid",
    "downcrossings",
    "equidistant_spec",
    "estimate_spectrum",
    "estimator_grid",
    "fourier_coefficients",
    "fresh_seed",
    "indicator_basis",
    "normalize_sample",
    "parzen_window",
    "pca_basis",
    "permutation_null",
    "permutation_pvalue",
    "qn_statistic",
    "quantile_table",
    "register_sample",
    "run_test",
    "score_matrix",
    "segment_waves",
    "simulate_gaussian",
    "spectra_to_sample",
    "spectral_mc_null",
    "substream",
    "to_bspline",
    "torsethaugen_spectrum",
    "trig_g_functions",
    "uniform_grid",
]
