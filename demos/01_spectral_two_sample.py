"""Comparing estimated wave spectra from two nearby sea states.

Walks the full simulation study: pick two bimodal spectra with the same
significant wave height but slightly different peak periods, simulate
30-minute buoy-style records from each, estimate every record's spectral
density with a Parzen lag window, and ask whether the two samples of
estimated densities share one distribution.

Asymptotic p-values are unreliable at 10-vs-10 curves, so the decision is
calibrated by resimulating from the pooled average density.
"""

import numpy as np

import fda2s as f

FS = 1.28  # Hz, typical moored-buoy rate
B = 400    # desk-scale Monte Carlo size; raise to 10_000 for a real study

grid = f.default_frequency_grid(FS, tp=4.0)
spec_a = f.torsethaugen_spectrum(f.TorsethaugenParams(hs=2.0, tp=4.0), grid)
spec_b = f.torsethaugen_spectrum(f.TorsethaugenParams(hs=2.0, tp=4.1), grid)
print(f"target A: Hs={spec_a.hs:.3f} m, Tp={spec_a.tp:.2f} s")
print(f"target B: Hs={spec_b.hs:.3f} m, Tp={spec_b.tp:.2f} s")

print("\nsimulating 10 half-hour records per sea state and estimating spectra...")
sx = [f.estimate_spectrum(f.simulate_gaussian(spec_a, 1800.0, FS, seed=f.substream(1, i)), 60)
      for i in range(10)]
sy = [f.estimate_spectrum(f.simulate_gaussian(spec_b, 1800.0, FS, seed=f.substream(2, i)), 60)
      for i in range(10)]
print(f"estimated Hs, sample A: {np.round([s.hs for s in sx], 3)}")
print(f"estimated Hs, sample B: {np.round([s.hs for s in sy], 3)}")

sim = f.SimConfig(duration=1800.0, fs=FS, parzen_L=60, n_freq=481)
x, y = f.spectra_to_sample(sx, "A"), f.spectra_to_sample(sy, "B")
for basis_text in ("indicator:k=8", "bspline:order=5,interior=7"):
    basis = f.BasisSpec.parse(basis_text)
    result = f.run_test(x, y, basis, "spectral-mc", B=B, seed=7, n_jobs=4, sim=sim)
    print(f"\nbasis {basis_text}: k = {result.k}")
    print(f"  Q_n            = {result.qn:.3f}")
    print(f"  p (asymptotic) = {result.p_asymptotic:.3e}   <- distrust at these sizes")
    print(f"  p (MC, B={B})  = {result.p_resampled:.4f}")
