"""A tour of the four projection-function families on one joint sample.

The statistic only sees curves through their inner products with a small
vector of functions, so the choice of that vector is the modelling step:
indicators integrate energy over frequency bands, B-splines weight smooth
local features, the trigonometric pair captures odd/even structure of
registered waves, and covariance eigenfunctions adapt to the dominant
modes of variation.

Also shows the optional smoothing step: re-representing estimated
spectral densities in an order-5 spline basis with 51 equidistant sites
before testing.
"""

import numpy as np

import fda2s as f
from fda2s.bsplines import equidistant_spec

FS = 1.28

grid = f.default_frequency_grid(FS, tp=4.0)
target = f.torsethaugen_spectrum(f.TorsethaugenParams(2.0, 4.0), grid)
spectra = [f.estimate_spectrum(f.simulate_gaussian(target, 1800.0, FS, seed=f.substream(4, i)), 60)
           for i in range(12)]
density_sample = f.spectra_to_sample(spectra, "densities")

print("joint sample: 12 estimated spectral densities,",
      f"{len(density_sample.grid)} frequency points\n")

for text in ("indicator:k=8", "bspline:order=5,interior=7", "pca:d=2"):
    spec = f.BasisSpec.parse(text)
    g = spec.build(density_sample)
    scores = f.score_matrix(density_sample, g)
    print(f"{text:26s} k={g.k:2d}  data_driven={spec.data_driven!s:5s} "
          f"score row 0: {np.round(scores[0], 4)}")

# the trigonometric family lives on [0, 1]: demonstrate it on registered waves
record = f.simulate_gaussian(target, 900.0, FS, seed=77)
waves, _, _ = f.register_sample(f.segment_waves(record), f.RegistrationSpec(), label="w")
for parts in ("both", "odd"):
    spec = f.BasisSpec("trig", {"k": 3, "parts": parts})
    g = spec.build(waves)
    print(f"{str(spec):26s} k={g.k:2d}  data_driven={spec.data_driven!s:5s} "
          f"a_bar={np.round(g.params['a_bar'], 3)}")

print("\noptional preprocessing: spline-smooth the densities (order 5, 51 sites)")
smoother = equidistant_spec(density_sample.interval, order=5, n_sites=51)
smoothed = f.to_bspline(density_sample, smoother)
raw_vs_smooth = np.linalg.norm(density_sample.values - smoothed.values, axis=1)
print("per-curve smoothing residual norms:", np.round(raw_vs_smooth, 4))

basis = f.BasisSpec.parse("indicator:k=8")
for name, sample in (("raw", density_sample), ("smoothed", smoothed)):
    x = f.FunctionalSample(sample.grid, sample.values[:6], "x")
    y = f.FunctionalSample(sample.grid, sample.values[6:], "y")
    res = f.run_test(x, y, basis)
    print(f"6-vs-6 null test on {name:8s} densities: Q_n = {res.qn:.3f}, "
          f"p_asym = {res.p_asymptotic:.3f}")
print("\nsmoothing barely moves the statistic; both input forms are supported.")
