"""Shared generators for randomized tests (seeded, reproducible)."""

import numpy as np
import pytest
from hypothesis import settings

from fda2s import FunctionalSample, Grid, Interval, run_test, uniform_grid
from fda2s.io import format_test_result

# Every property test draws the same examples on every run, keeps none between runs
# and has no deadline; each sets only its example count.
settings.register_profile("fda2s", derandomize=True, database=None, deadline=None)
settings.load_profile("fda2s")


def smooth_curves(rng, n_curves, grid, scale=1.0):
    """Random smooth curves: low-order trigonometric + polynomial mix."""
    t = grid.points
    span = grid.interval.length
    u = (t - grid.interval.a) / span
    rows = np.zeros((n_curves, t.size))
    for l in range(1, 4):
        rows += rng.normal(0, scale / l, (n_curves, 1)) * np.sin(2 * np.pi * l * u)
        rows += rng.normal(0, scale / l, (n_curves, 1)) * np.cos(2 * np.pi * l * u)
    rows += rng.normal(0, 0.3 * scale, (n_curves, 1)) * u
    rows += rng.normal(0, 0.3 * scale, (n_curves, 1))
    return rows


def random_sample(rng, n_curves, n_points=41, interval=(0.0, 1.0), label="s"):
    grid = uniform_grid(Interval(*interval), n_points)
    return FunctionalSample(grid, smooth_curves(rng, n_curves, grid), label)


def random_sample_pair(rng, m=5, n=4, n_points=41):
    grid = uniform_grid(Interval(0.0, 1.0), n_points)
    x = FunctionalSample(grid, smooth_curves(rng, m, grid), "x")
    y = FunctionalSample(grid, smooth_curves(rng, n, grid), "y")
    return x, y


def eigh_pca_oracle(values, w, d):
    """Dense route: eigh of sqrt(w) C sqrt(w) on the grid, sign rule applied."""
    c = values - values.mean(axis=0)
    cov = c.T @ c / (values.shape[0] - 1)
    sqrt_w = np.sqrt(w)
    eigvals, eigvecs = np.linalg.eigh(sqrt_w[:, None] * cov * sqrt_w[None, :])
    order = np.argsort(eigvals)[::-1][:d]
    phis = (eigvecs[:, order] / sqrt_w[:, None]).T
    for phi in phis:
        integral = np.dot(w, phi)
        if abs(integral) > 1e-10 * np.max(np.abs(phi)):
            phi *= np.sign(integral)
        else:
            phi *= np.sign(phi[np.argmax(np.abs(phi))])
    return eigvals[order], phis


def permutation_report(x, y, basis, B, seed):
    """`run_test(..., "permutation")`'s report, with every thread pool
    `resampling` would build made to fail."""
    def no_pool(*args, **kwargs):
        raise AssertionError("the permutation null built a thread pool")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        return format_test_result(run_test(x, y, basis, "permutation", B=B, seed=seed))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
