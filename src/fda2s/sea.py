"""Bimodal wave spectra, Gaussian record synthesis, and lag-window estimation.

Convention: spectral densities are one-sided on angular frequency (rad/s)
with ``integral of s over [0, omega_max] = variance`` and ``Hs = 4*sigma``.
No factor of 2 appears anywhere; other toolboxes differ.  Record and estimator
defaults have one copy, `SimConfig`: the CLI, `estimate_spectrum` and the MC null read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    GridMismatch,
    InvalidParams,
    NegativeEstimate,
    NonFiniteValue,
    NyquistViolation,
    RecordTooShort,
    count,
    positive,
)
from .grids import FunctionalSample, Grid, _frozen
from .rng import substream

GRAVITY = 9.81

# Two-system split of the total energy: the primary system sits at the
# requested peak period, the secondary is swell (wind-dominated seas) or a
# fully developed wind sea (swell-dominated seas).
_FULLY_DEVELOPED_COEF = 6.6  # boundary period 6.6 * hs^(1/3)
_WIND_FLOOR = 0.85  # minimum share of Hs kept by the primary wind system
_SWELL_FLOOR = 0.6  # minimum share kept by the primary swell system
_PEAKEDNESS_SCALE = 35.0


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """One-sided spectral density sampled on a frequency grid from 0."""

    freq: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values)
        if vals.shape != (len(self.freq),):
            raise ValueError("values must match the frequency grid")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("spectral values must be finite")
        if np.any(vals < 0):
            raise ValueError("spectral values must be non-negative")
        if abs(self.freq.points[0]) > 1e-12:
            raise ValueError("frequency grid must start at 0")
        object.__setattr__(self, "values", vals)

    @property
    def sigma2(self) -> float:
        """Process variance: the integral of the density."""
        return float(np.dot(self.freq.weights, self.values))

    @property
    def hs(self) -> float:
        """Hs = 4 * sqrt(variance) with variance the trapezoid integral."""
        return 4.0 * float(np.sqrt(max(self.sigma2, 0.0)))

    @property
    def peak_angular_frequency(self) -> float:
        return float(self.freq.points[int(np.argmax(self.values))])

    @property
    def tp(self) -> float:
        wp = self.peak_angular_frequency
        return float(2.0 * np.pi / wp) if wp > 0 else float("inf")


def spectra_to_sample(spectra: list[SpectralDensity], label: str = "") -> FunctionalSample:
    """The spectra as the rows of one sample on their shared frequency grid."""
    if not spectra:
        raise ValueError("need at least one spectral density")
    grid = spectra[0].freq
    for s in spectra[1:]:
        if not s.freq.matches(grid):
            raise GridMismatch("spectra do not share a frequency grid")
    return FunctionalSample(grid, np.asarray([s.values for s in spectra]), label)


def average_rows(sample: FunctionalSample) -> SpectralDensity:
    """Pointwise mean of the spectra in the rows of `sample`, anchored at the first
    row so that the mean of identical spectra reproduces them bit-exactly."""
    rows = sample.values
    if np.any(rows < 0):
        raise ValueError("spectral values must be non-negative")
    anchor = rows[0]
    return SpectralDensity(sample.grid, np.clip(anchor + (rows - anchor).mean(axis=0), 0.0, None))


def average_spectrum(spectra: list[SpectralDensity]) -> SpectralDensity:
    """Pointwise mean of spectra sharing one frequency grid (`average_rows`)."""
    return average_rows(spectra_to_sample(spectra))


@dataclass(frozen=True)
class TorsethaugenParams:
    """Significant wave height (m) and spectral peak period (s)."""

    hs: float
    tp: float

    def __post_init__(self):
        positive(self.hs, "hs")
        positive(self.tp, "tp")


@dataclass(frozen=True, eq=False)
class TimeSeriesRecord:
    """Evenly sampled surface elevation (m) with sampling frequency fs (Hz)."""

    fs: float
    values: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        positive(self.fs, "fs")
        if not np.isfinite(self.t0):
            raise NonFiniteValue(f"record t0 must be finite, got {self.t0}")
        vals = _frozen(self.values)
        if vals.ndim != 1:
            raise ValueError("record values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("record values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.values.size) / self.fs

    @property
    def duration(self) -> float:
        return self.values.size / self.fs


@dataclass(frozen=True)
class SimConfig:
    """Record length (s) and rate (Hz), Parzen length and grid size; their one set of defaults."""

    duration: float = 1800.0
    fs: float = 1.28
    parzen_L: int = 60
    n_freq: int = 481

    def __post_init__(self):
        positive(self.duration, "duration")
        positive(self.fs, "fs")
        count(self.parzen_L, "parzen_L", 1)
        count(self.n_freq, "n_freq", 2)


def _jonswap_shape(w: np.ndarray, wp: float, gamma: float) -> np.ndarray:
    """Unnormalized generalized JONSWAP shape with its peak exactly at wp."""
    shape = np.zeros_like(w)
    pos = w > 0
    x = w[pos] / wp
    sigma = np.where(x <= 1.0, 0.07, 0.09)
    peak = gamma ** np.exp(-((x - 1.0) ** 2) / (2.0 * sigma**2))
    shape[pos] = x**-5 * np.exp(-1.25 * x**-4) * peak
    return shape


def _peakedness(hs: float, tp: float) -> float:
    steepness = (2.0 * np.pi / GRAVITY) * hs / tp**2
    return float(np.clip(_PEAKEDNESS_SCALE * steepness ** (6.0 / 7.0), 1.0, 20.0))


def torsethaugen_spectrum(params: TorsethaugenParams, freq: Grid) -> SpectralDensity:
    """Two-peak wind-sea/swell spectrum rescaled to the exact target Hs.

    The grid must reach at least three times the primary peak frequency
    2*pi/tp.  The returned density integrates to (hs/4)^2 exactly and
    attains its maximum at the grid point nearest 2*pi/tp.
    """
    hs, tp = params.hs, params.tp
    wp = 2.0 * np.pi / tp
    if freq.points[-1] < 3.0 * wp * (1.0 - 1e-9):
        raise InvalidParams(
            f"frequency grid must reach 3*2*pi/tp = {3.0 * wp:.4g} rad/s, "
            f"got {freq.points[-1]:.4g}"
        )
    tp_fully = _FULLY_DEVELOPED_COEF * hs ** (1.0 / 3.0)
    if tp <= tp_fully:
        # Wind-dominated: primary wind system at tp, secondary swell above
        # the fully developed period.
        eps = np.clip((tp_fully - tp) / max(tp_fully - 2.0 * np.sqrt(hs), 1e-9), 0, 1)
        share = _WIND_FLOOR + (1.0 - _WIND_FLOOR) * np.exp(-((eps / 0.5) ** 2))
        primary = (share * hs, tp, _peakedness(share * hs, tp))
        secondary = (np.sqrt(1.0 - share**2) * hs, tp_fully + 2.0, 1.0)
    else:
        # Swell-dominated: primary swell at tp, secondary wind sea fully
        # developed for its own height.
        eps = np.clip((tp - tp_fully) / max(25.0 - tp_fully, 1e-9), 0, 1)
        share = _SWELL_FLOOR + (1.0 - _SWELL_FLOOR) * np.exp(-((eps / 0.3) ** 2))
        gamma_swell = _peakedness(hs, tp_fully) * (1.0 + 6.0 * eps)
        hs_wind = np.sqrt(1.0 - share**2) * hs
        primary = (share * hs, tp, min(gamma_swell, 20.0))
        secondary = (
            hs_wind,
            _FULLY_DEVELOPED_COEF * max(hs_wind, 1e-12) ** (1.0 / 3.0),
            1.0,
        )

    w = freq.points
    values = np.zeros_like(w)
    for hs_c, tp_c, gamma_c in (primary, secondary):
        if hs_c**2 < 1e-12 * hs**2:
            continue
        comp = _jonswap_shape(w, 2.0 * np.pi / tp_c, gamma_c)
        area = float(np.dot(freq.weights, comp))
        if area <= 0:
            continue
        values += (hs_c**2 / 16.0) / area * comp
    total = float(np.dot(freq.weights, values))
    values *= (hs**2 / 16.0) / total
    return SpectralDensity(freq, values)


class GaussianSynthesizer:
    """Random-amplitude synthesizer for records of a fixed length and rate.

    Synthesis frequencies are the rfft lattice omega_j = 2*pi*fs*j/n, whose
    spacing shrinks as the record lengthens, so sample-path moments converge
    to the density's.  Amplitudes A_j, B_j are independent centered
    Gaussians with variance s(omega_j) * cell width (density interpolated
    onto the lattice); the record is assembled by an inverse FFT.
    """

    def __init__(self, n_samples: int, fs: float):
        self.n = count(n_samples, "n_samples", 2)
        self.fs = positive(fs, "fs")
        self.lattice = 2.0 * np.pi * fs * np.arange(self.n // 2 + 1) / self.n
        widths = np.full(self.lattice.size, 2.0 * np.pi * fs / self.n)
        widths[0] *= 0.5
        widths[-1] *= 0.5
        self._widths = widths

    def amplitude_variances(self, s: SpectralDensity) -> np.ndarray:
        """Per-cell amplitude variances, matching the density's band total; raises
        NyquistViolation if over 1% of the variance lies above the Nyquist rate."""
        in_band = s.freq.points <= np.pi * self.fs * (1.0 + 1e-12)
        mass = float(np.dot(s.freq.weights[~in_band], s.values[~in_band]))
        variance = s.sigma2
        if variance > 0 and mass > 0.01 * variance:
            raise NyquistViolation(
                f"{100 * mass / variance:.2f}% of the variance lies above the "
                f"angular Nyquist rate {np.pi * self.fs:.4g} rad/s"
            )
        on_lattice = np.interp(self.lattice, s.freq.points, s.values,
                               left=0.0, right=0.0)
        v = on_lattice * self._widths
        total = v.sum()
        band_var = float(np.dot(s.freq.weights[in_band], s.values[in_band]))
        if total > 0:
            v *= band_var / total
        return v

    def amplitude_normals(self, rng: np.random.Generator, n_records: int,
                          out: np.ndarray | None = None) -> np.ndarray:
        """The normals (2, n_records, n//2 + 1) `simulate` scales into A_j, B_j,
        written into ``out`` when it is given."""
        shape = (2, count(n_records, "n_records", 1), self.lattice.size)
        return rng.standard_normal(shape, out=out)

    def simulate(self, s: SpectralDensity, rng: np.random.Generator,
                 n_records: int = 1) -> np.ndarray:
        """Batch of records, one per row; exactly Gaussian for any density."""
        std = np.sqrt(self.amplitude_variances(s))
        a, b = self.amplitude_normals(rng, n_records) * std
        spectrum = np.empty((n_records, std.size), dtype=complex)
        spectrum.real = a
        spectrum.imag = -b
        spectrum *= 0.5 * self.n
        spectrum[:, 0] = self.n * a[:, 0]
        if self.n % 2 == 0:
            spectrum[:, -1] = self.n * a[:, -1]
        return np.fft.irfft(spectrum, self.n, axis=1)


def sample_count(duration: float, fs: float) -> int:
    """Samples in a record of `duration` seconds at `fs` Hz, rounded; at least 2."""
    samples = round(positive(duration, "duration") * positive(fs, "fs"))
    return count(samples, "fs * duration", 2)


def simulate_gaussian(
    s: SpectralDensity,
    duration: float,
    fs: float,
    seed: int | np.random.Generator,
) -> TimeSeriesRecord:
    """Stationary Gaussian record of the given duration sampled at fs.

    Spectral synthesis with independent Gaussian amplitudes per frequency
    cell; the sample-path variance converges to the density's integral as
    the record lengthens.  Deterministic per seed: an integer seed draws
    from `substream(seed, 0)`, a generator is drawn from as given.
    """
    synth = GaussianSynthesizer(sample_count(duration, fs), fs)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, 0)
    values = synth.simulate(s, rng)[0]
    return TimeSeriesRecord(fs, values)


def parzen_window(u: np.ndarray) -> np.ndarray:
    """Parzen lag window on [0, 1]: piecewise cubic, positive-definite."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    lo = u <= 0.5
    hi = (u > 0.5) & (u <= 1.0)
    out[lo] = 1.0 - 6.0 * u[lo] ** 2 + 6.0 * u[lo] ** 3
    out[hi] = 2.0 * (1.0 - u[hi]) ** 3
    return out


def _autocovariances(rows: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocovariances c(h) = sum_{t<n-h} x_t x_{t+h} / n, h = 0..max_lag, of
    mean-subtracted rows (2-d): n (max_lag + 1) multiply-adds, none of them in BLAS."""
    n = rows.shape[1]
    x = rows - rows.mean(axis=1, keepdims=True)
    padded = np.concatenate([x, np.zeros((x.shape[0], max_lag))], axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, max_lag + 1, axis=1)[:, :n]
    return np.einsum("rt,rth->rh", x, windows) / n


def estimate_spectrum(rec: TimeSeriesRecord, parzen_L: int = SimConfig.parzen_L,
                      n_freq: int = SimConfig.n_freq) -> SpectralDensity:
    """Parzen lag-window estimate on [0, pi*fs] rad/s.

    The mean is removed, autocovariances up to lag ``parzen_L`` are weighted
    by the Parzen window, and the result is rescaled so that its integral
    equals the sample variance exactly.
    """
    grid, values = estimate_spectra(rec.values[None, :], rec.fs, parzen_L, n_freq)
    return SpectralDensity(grid, values[0])


def estimator_grid(fs: float, n_freq: int) -> Grid:
    """Frequency grid of the Parzen estimator: [0, pi*fs] rad/s."""
    return default_frequency_grid(fs, n_freq=n_freq)


@lru_cache(maxsize=16)
def _parzen_map(fs: float, parzen_L: int, n_freq: int) -> tuple[Grid, np.ndarray]:
    """Estimator grid and the (L+1, n_freq) map from autocovariances c_h to the density
    (dt/pi) sum_h w_h c_h cos(omega h dt), dt = 1/fs, w = Parzen window x 2 for h >= 1."""
    lags = np.arange(parzen_L + 1)
    weights = parzen_window(lags / parzen_L)
    weights[1:] *= 2.0
    grid = estimator_grid(fs, n_freq)
    table = weights[:, None] / (np.pi * fs) * np.cos(np.outer(lags / fs, grid.points))
    table.flags.writeable = False
    return grid, table


def check_lag_window(n_samples: int, parzen_L: int):
    """Reject a Parzen window length that is not a count of at least 1 or is not
    below half the record."""
    if n_samples <= 2 * count(parzen_L, "parzen_L", 1):
        raise RecordTooShort(
            f"record of {n_samples} samples too short for Parzen length {parzen_L}"
        )


def estimate_spectra(rows: np.ndarray, fs: float, parzen_L: int = SimConfig.parzen_L,
                     n_freq: int = SimConfig.n_freq) -> tuple[Grid, np.ndarray]:
    """Vectorized Parzen estimates for a batch of records (one per row)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    check_lag_window(rows.shape[1], parzen_L)
    return parzen_estimates(_autocovariances(rows, parzen_L), fs, n_freq)


def parzen_estimates(acov: np.ndarray, fs: float, n_freq: int) -> tuple[Grid, np.ndarray]:
    """Parzen estimates from the autocovariances c(0..L) in the rows of ``acov``, each
    row mapped alone, so that it gives the same bits as in any batch.  A batch whose
    estimate is negative beyond round-off, 1e-12 of its largest |value|, raises
    `NegativeEstimate`; the estimate is clipped at 0 and rescaled so that its
    integral equals c(0) exactly."""
    # checked before the cache, where True and 1 are one key
    grid, table = _parzen_map(positive(fs, "fs"), acov.shape[-1] - 1,
                              count(n_freq, "n_freq", 2))
    s = acov[..., None, :] @ table  # a (1, n_freq) product per row, and its integral
    floor = -1e-12 * np.max(np.abs(s))
    if np.any(s < floor):
        raise NegativeEstimate(f"Parzen estimate {np.min(s):.3e} is negative beyond round-off")
    s = np.clip(s, 0.0, None)
    # Exact variance normalization removes any residual convention slack.
    return grid, (s * variance_scale(acov[..., :1], s @ grid.weights)[..., None])[..., 0, :]


def variance_scale(variance: np.ndarray, integrals: np.ndarray) -> np.ndarray:
    """variance / integral where the integral is positive, else 0: the factor
    that makes a Parzen estimate integrate to its c(0)."""
    ok = integrals > 0
    return np.where(ok, variance / np.where(ok, integrals, 1.0), 0.0)


@lru_cache(maxsize=16)
def _lag_tables(n: int, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(2 pi k h / n) for h = 0..max_lag and sin(2 pi k h / n) for
    h = 1..max_lag, k = 0..n//2, read-only.  Rows that drop a term are 0:
    k = 0 (the record mean, which the autocovariances remove) and an even
    n's Nyquist sine (`irfft` ignores that cell's imaginary part)."""
    phase = 2.0 * np.pi / n * (np.outer(np.arange(n // 2 + 1), np.arange(max_lag + 1)) % n)
    cos, sin = np.cos(phase), np.sin(phase[:, 1:])
    cos[0] = 0.0
    if n % 2 == 0:
        sin[-1] = 0.0
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


class ParzenScorer:
    """Parzen scores of the records a `GaussianSynthesizer` simulates from one density,
    taken from the amplitude normals in the lag domain: no record or estimate is formed.

    ``sim`` sets the records and the estimator, ``s`` is the density and
    ``functions`` holds the k functions scored on, one a row on the estimator
    grid.  A record's scores are the inner products, by the grid weights w, of
    its `parzen_estimates` estimate with the functions.  With c the record's
    biased autocovariances c(0..L) and T the Parzen map, the (L+1, k+2) map
    [e_0 | T w | T (f w)'] takes c to c(0), the integral of the unscaled
    estimate c T and its raw scores, which `variance_scale` scales as it scales
    the estimate.  No clip acts on that estimate: biased autocovariances are
    positive semi-definite and the Parzen window's transform is non-negative,
    so c T >= 0 up to round-off.  The map, the amplitude std and the lag
    phases are folded into read-only tables once, here.
    """

    def __init__(self, sim: SimConfig, s: SpectralDensity, functions: np.ndarray):
        self.synth = GaussianSynthesizer(sample_count(sim.duration, sim.fs), sim.fs)
        check_lag_window(self.synth.n, sim.parzen_L)
        std = np.sqrt(self.synth.amplitude_variances(s))
        grid, table = _parzen_map(sim.fs, sim.parzen_L, sim.n_freq)
        w = grid.weights
        project = np.column_stack([np.eye(sim.parzen_L + 1, 1), table @ w,
                                   table @ (functions * w).T])
        cos, sin = _lag_tables(self.synth.n, sim.parzen_L)
        # the amplitudes a = z[:, 0] * std and b = z[:, 1] * std scaled in the
        # tables, and the map folded into the power table, (n//2 + 1, k + 2)
        self._tables = (std[:, None] * cos, std[:, None] * sin,
                        ((0.5 * std**2)[:, None] * cos) @ project, project)
        for table in self._tables:
            table.flags.writeable = False

    def scores(self, z: np.ndarray) -> np.ndarray:
        """The (C, R, k) scores of the records `simulate` makes from ``z``, which
        stacks C draws of `amplitude_normals`, shape (C, 2, R, n//2 + 1), and is
        left unchanged.

        With a_k, b_k the scaled amplitudes, the mean-removed record is
        x_t = sum_{k>=1} a_k cos(w_k t) + b_k sin(w_k t) (only a_k (-1)^t at an
        even n's Nyquist cell), so its circular autocovariance is
        sum_k (a_k^2 + b_k^2)/2 cos(w_k h) (a_k^2 at Nyquist); the biased one
        drops the h wrapped products x_{s-h} x_s, s < h, which need x_t for
        |t| <= L only.
        """
        std_cos, std_sin, power_cos, project = self._tables
        max_lag = std_sin.shape[1]
        even = z[:, 0] @ std_cos  # x_t = even_t + odd_t, x_-t = even_t - odd_t
        odd = z[:, 1] @ std_sin
        # one replicate at a time: chunk-sized temporaries cost page faults
        power = np.empty((z.shape[0], *z.shape[2:]))
        for p, (a, b) in zip(power, z):
            np.square(a, out=p)
            p += np.square(b)
        if self.synth.n % 2 == 0:
            power[..., -1] = 2.0 * np.square(z[:, 0, :, -1])
        # wrapped[h] = sum_s tail[L - h + s] head[s] over the samples
        # tail = x_-L..x_-1 and head = x_0..x_L-1: a Toeplitz product
        tail = (even[..., 1:] - odd)[..., ::-1]
        head = np.concatenate([even[..., :1], even[..., 1:max_lag] + odd[..., :-1]], axis=-1)
        padded = np.concatenate([tail, np.zeros_like(tail)], axis=-1)
        toeplitz = np.lib.stride_tricks.sliding_window_view(padded, max_lag, axis=-1)
        wrapped = np.einsum("...hs,...s->...h", toeplitz[..., ::-1, :], head)
        # columns: c(0), the estimate's integral, its raw scores
        projected = power @ power_cos - (wrapped @ project) / self.synth.n
        scale = variance_scale(projected[..., 0], projected[..., 1])
        return projected[..., 2:] * scale[..., None]


def estimate_span(sim: SimConfig) -> np.ndarray:
    """Functions, one a row and orthonormal in L2(w), that span every Parzen estimate
    c T of the settings of ``sim``: Q' / sqrt(w) for the reduced QR (T sqrt(w))' = Q R,
    so T = R' Q' / sqrt(w) and the `ParzenScorer` scores of an estimate on them
    are its coordinates, whose dot products are its L2(w) inner products."""
    grid, table = _parzen_map(sim.fs, sim.parzen_L, sim.n_freq)
    sqrt_w = np.sqrt(grid.weights)
    return np.linalg.qr((table * sqrt_w).T)[0].T / sqrt_w


def default_frequency_grid(fs: float, tp: float | None = None,
                           n_freq: int = SimConfig.n_freq) -> Grid:
    """Grid reaching the larger of the angular Nyquist rate and 3 * 2*pi/tp."""
    w_max = np.pi * positive(fs, "fs")
    if tp is not None:
        w_max = max(w_max, 3.0 * 2.0 * np.pi / positive(tp, "tp"))
    return Grid(np.linspace(0.0, w_max, count(n_freq, "n_freq", 2)))
