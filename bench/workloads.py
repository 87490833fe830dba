"""The four benchmark workloads: inputs made from the seed, one operation, its checks.

Every workload is a closed loop with one caller and ``n_jobs=1``.  Inputs
come from NumPy generators keyed by ``[seed, i]``, which are independent
of the library's Philox substreams, so an input record never shares a
stream with a null replicate.  Each operation repeats identical work, so
its report must be byte-identical across operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import fda2s
from fda2s import runner, sea, waves

import oracle
from tracing import Patcher

FS = 1.28
PARZEN_L = 60
N_FREQ = 481


@dataclass(frozen=True)
class Sizes:
    wave_duration: float  # s, each record of wave-shape-permutation
    wave_B: int
    long_duration: float  # s, each record of long-record-asymptotic
    spectra_duration: float  # s, input records and MC resimulations
    n_spectra: int  # per group
    mc_indicator_B: int
    mc_pca_B: int


PAPER = Sizes(1800.0, 10_000, 8 * 3600.0, 1800.0, 10, 1000, 100)
SMOKE = Sizes(600.0, 50, 1800.0, 600.0, 10, 20, 5)


@dataclass
class Output:
    """What one operation produced, plus the counts the trace reports."""

    result: fda2s.TestResult
    x_rows: np.ndarray
    y_rows: np.ndarray
    points: np.ndarray
    wave_sets: tuple = ()  # (waves, registered sample, dropped) per record

    @property
    def segmented(self) -> int:
        return sum(len(ws) for ws, _, _ in self.wave_sets)

    @property
    def registered(self) -> int:
        return sum(sample.n_curves for _, sample, _ in self.wave_sets)


class NullCapture:
    """Keeps the null distribution the runner computed, for the output checks.

    One wrapper call per operation; it is installed in untraced runs too.
    """

    POINTS = ("fda2s.runner:permutation_null", "fda2s.runner:spectral_mc_null")

    def __init__(self):
        self.last = None
        self._patcher = Patcher()

    def __enter__(self):
        for point in self.POINTS:
            self._patcher.replace(point, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def _wrap(self, fn):
        def capturing(*args, **kwargs):
            self.last = fn(*args, **kwargs)
            return self.last

        return capturing

    def take(self):
        last, self.last = self.last, None
        return last


def _inputs_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _wave_spectra():
    grid = fda2s.default_frequency_grid(FS, tp=8.0)
    return [
        fda2s.torsethaugen_spectrum(fda2s.TorsethaugenParams(2.0, tp), grid)
        for tp in (8.0, 8.5)
    ]


def _segment_and_register(records) -> tuple:
    """segment_waves -> register_sample for each record."""
    wave_sets = []
    for label, rec in zip("xy", records):
        ws = waves.segment_waves(rec)
        sample, _, dropped = waves.register_sample(ws, fda2s.RegistrationSpec(), label=label)
        wave_sets.append((ws, sample, dropped))
    return tuple(wave_sets)


class _WaveWorkload:
    basis = fda2s.BasisSpec.parse("trig:k=3,parts=both")

    def _test(self, wave_sets, **calibration) -> Output:
        x, y = (sample for _, sample, _ in wave_sets)
        result = runner.run_test(x, y, self.basis, **calibration)
        return Output(result, x.values, y.values, x.grid.points, wave_sets)

    def _check_waves(self, out: Output):
        """Checks the waves and returns the projection functions of the test."""
        for ws, sample, dropped in out.wave_sets:
            oracle.check_waves(ws, sample, dropped)
        joint = fda2s.FunctionalSample(
            fda2s.Grid(out.points), np.vstack([out.x_rows, out.y_rows])
        )
        return self.basis.build(joint).functions


class WaveShapePermutation(_WaveWorkload):
    """Two 30-min records, Tp 8.0 vs 8.5 s: simulate, segment, register, permutation test."""

    name = "wave-shape-permutation"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.B = sizes.wave_B
        self.duration = sizes.wave_duration
        self.spectra = _wave_spectra()

    def operation(self) -> Output:
        records = [
            fda2s.simulate_gaussian(s, self.duration, FS, _inputs_rng(self.seed, i))
            for i, s in enumerate(self.spectra)
        ]
        return self._test(
            _segment_and_register(records),
            calibration="permutation", B=self.B, seed=self.seed, n_jobs=1,
        )

    def check(self, out: Output, null):
        funcs = self._check_waves(out)
        oracle.check_observed(out.result, out.points, out.x_rows, out.y_rows, funcs)
        oracle.check_null(out.result, null, self.B)
        joint_scores = oracle.scores(out.points, np.vstack([out.x_rows, out.y_rows]), funcs)
        m = out.x_rows.shape[0]
        for r in sorted({0, self.B // 2, self.B - 1}):
            perm = fda2s.substream(self.seed, r).permutation(joint_scores.shape[0])
            split = joint_scores[perm]
            oracle.check_replicate(null, r, oracle.qn(split[:m], split[m:]))


class LongRecordAsymptotic(_WaveWorkload):
    """Two 8-h records (made in set-up): segment, register, asymptotic test."""

    name = "long-record-asymptotic"
    B = 0

    def __init__(self, seed: int, sizes: Sizes):
        self.records = [
            fda2s.simulate_gaussian(s, sizes.long_duration, FS, _inputs_rng(seed, i))
            for i, s in enumerate(_wave_spectra())
        ]

    def operation(self) -> Output:
        return self._test(_segment_and_register(self.records), calibration="asymptotic")

    def check(self, out: Output, null):
        funcs = self._check_waves(out)
        oracle.check_observed(out.result, out.points, out.x_rows, out.y_rows, funcs)
        oracle.require(null is None and out.result.p_resampled is None,
                       "the asymptotic test ran a resampling null")


class _SpectralMC:
    """10 vs 10 Parzen spectra of 30-min records at Tp 4.0 vs 4.1 s (criterion 6)."""

    basis: fda2s.BasisSpec

    def __init__(self, seed: int, sizes: Sizes, B: int):
        self.seed = seed
        self.B = B
        self.sim = fda2s.SimConfig(sizes.spectra_duration, FS, PARZEN_L, N_FREQ)
        grid = fda2s.default_frequency_grid(FS, tp=4.0)
        groups = []
        for g, tp in enumerate((4.0, 4.1)):
            target = fda2s.torsethaugen_spectrum(fda2s.TorsethaugenParams(2.0, tp), grid)
            groups.append([
                fda2s.estimate_spectrum(
                    fda2s.simulate_gaussian(
                        target, sizes.spectra_duration, FS,
                        _inputs_rng(seed, g * sizes.n_spectra + i),
                    ),
                    PARZEN_L, N_FREQ,
                )
                for i in range(sizes.n_spectra)
            ])
        self.sx, self.sy = groups
        self.rows = [np.array([s.values for s in group]) for group in groups]

    def operation(self) -> Output:
        result = runner.spectral_mc_test(
            self.sx, self.sy, self.basis, self.sim, B=self.B, seed=self.seed, n_jobs=1
        )
        return Output(result, *self.rows, self.sx[0].freq.points)

    def _replicate_qn(self, r: int) -> float:
        """Replicate r by its definition: resimulate from the average spectrum."""
        m, n = len(self.sx), len(self.sy)
        s_avg = fda2s.average_spectrum(self.sx + self.sy)
        synth = fda2s.GaussianSynthesizer(
            int(round(self.sim.duration * self.sim.fs)), self.sim.fs
        )
        records = synth.simulate(s_avg, fda2s.substream(self.seed, r), m + n)
        grid, est = sea.estimate_spectra(
            records, self.sim.fs, self.sim.parzen_L, self.sim.n_freq
        )
        funcs = self.basis.build(fda2s.FunctionalSample(grid, est)).functions
        s = oracle.scores(grid.points, est, funcs)
        return oracle.qn(s[:m], s[m:])

    def check(self, out: Output, null):
        joint = fda2s.FunctionalSample(
            fda2s.Grid(out.points), np.vstack([out.x_rows, out.y_rows])
        )
        funcs = self.basis.build(joint).functions
        oracle.check_observed(out.result, out.points, out.x_rows, out.y_rows, funcs)
        oracle.check_null(out.result, null, self.B)
        for r in sorted({0, self.B - 1}):
            oracle.check_replicate(null, r, self._replicate_qn(r))


class SpectralMCIndicator(_SpectralMC):
    name = "spectral-mc-indicator"
    basis = fda2s.BasisSpec.parse("indicator:k=8")

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes, sizes.mc_indicator_B)


class SpectralMCPCA(_SpectralMC):
    name = "spectral-mc-pca"
    basis = fda2s.BasisSpec.parse("pca:d=2")

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes, sizes.mc_pca_B)


WORKLOADS = {
    w.name: w
    for w in (WaveShapePermutation, SpectralMCIndicator, SpectralMCPCA, LongRecordAsymptotic)
}
