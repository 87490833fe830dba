"""How trustworthy is the chi-square reference at realistic sample sizes?

Two calibration engines answer that question from different angles:

* permutation splitting: take one homogeneous set of 166 registered waves,
  split it into groups of 106 and 60 thousands of times, and tabulate the
  statistic's quantiles, which should track chi-square with 2 df if the
  asymptotics have kicked in;

* spectral Monte Carlo: at 10-vs-10 estimated spectra, resimulate records
  from the average density and watch the finite-sample quantiles exceed
  the asymptotic ones (negative relative errors).
"""

import numpy as np

import fda2s as f
from fda2s.io import quantile_table_csv

FS = 1.28

print("== permutation split: 166 waves into 106 + 60 ==")
grid = f.default_frequency_grid(FS, tp=8.0)
spectrum = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 8.0), grid)
record = f.simulate_gaussian(spectrum, 1800.0, FS, seed=202)
sample, _, _ = f.register_sample(f.segment_waves(record), f.RegistrationSpec())
joint = f.FunctionalSample(sample.grid, sample.values[:166], "joint")

plan = f.ResamplingPlan(2000, 0, (106, 60))
null = f.permutation_null(joint, f.BasisSpec.parse("trig:k=3,parts=both"), plan)
print(quantile_table_csv(f.quantile_table(null.values, k=2)))

print("== spectral Monte Carlo: 10 vs 10 estimated spectra, k = 8 ==")
s40 = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 4.0), f.default_frequency_grid(FS, tp=4.0))
spectra = [f.estimate_spectrum(f.simulate_gaussian(s40, 1800.0, FS, seed=f.substream(9, i)), 60)
           for i in range(20)]
sim = f.SimConfig(1800.0, FS, 60, 481)
plan = f.ResamplingPlan(400, 1, (10, 10))
null = f.spectral_mc_null(spectra[:10], spectra[10:], sim,
                          f.BasisSpec.parse("indicator:k=8"), plan, n_jobs=4)
print(quantile_table_csv(f.quantile_table(null.values, k=8)))
print("negative relative errors: the asymptotic quantiles underestimate the")
print("true ones here, so Monte Carlo p-values are the safe choice.")
