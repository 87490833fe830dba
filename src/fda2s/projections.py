"""Construction of the projection functions used by the quadratic-form test.

Four schemes are supported: interval indicators, B-spline basis functions,
data-driven odd/even trigonometric combinations, and eigenfunctions of the
pooled covariance operator.  Data-driven schemes are always built from the
joint (pooled) sample.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .bsplines import CONDITION_BOUND, basis_matrix, equidistant_spec
from .errors import DegenerateCovariance, InvalidK, TooFewCurves, WrongInterval
from .grids import FunctionalSample, Grid, Interval, sample_inner_products

UNIT_INTERVAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GVector:
    """Ordered tuple of projection functions sampled on a shared grid."""

    grid: Grid
    functions: np.ndarray  # (k, n_points)
    scheme: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        funcs = np.array(self.functions, dtype=float)
        if funcs.ndim != 2 or funcs.shape[0] < 1:
            raise InvalidK("GVector needs at least one function")
        if funcs.shape[1] != len(self.grid):
            raise WrongInterval("functions not sampled on the given grid")
        if not np.all(np.isfinite(funcs)):
            raise ValueError("GVector functions must be finite")
        funcs.flags.writeable = False
        object.__setattr__(self, "functions", funcs)

    @property
    def k(self) -> int:
        return self.functions.shape[0]


def indicator_basis(interval: Interval, k: int, grid: Grid) -> GVector:
    """Indicators of k equal subintervals, right-open except the last."""
    if k < 1:
        raise InvalidK(f"need k >= 1 indicators, got {k}")
    t = grid.points
    edges = np.linspace(interval.a, interval.b, k + 1)
    funcs = np.zeros((k, t.size))
    for j in range(k):
        if j < k - 1:
            mask = (t >= edges[j]) & (t < edges[j + 1])
        else:
            mask = (t >= edges[j]) & (t <= edges[j + 1])
        funcs[j, mask] = 1.0
    return GVector(grid, funcs, "indicator", {"k": k})


def bspline_basis_g(
    interval: Interval, order: int, interior_nodes: int, grid: Grid
) -> GVector:
    """All clamped equidistant B-spline basis functions on the grid."""
    spec = equidistant_spec(interval, order, interior_nodes + 2)
    funcs = basis_matrix(spec, grid.points).T
    return GVector(
        grid, funcs, "bspline", {"order": order, "interior": interior_nodes}
    )


def _harmonics(grid: Grid, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    t = grid.points
    ls = np.arange(1, k_max + 1)[:, None]
    return np.sin(2 * np.pi * ls * t), np.cos(2 * np.pi * ls * t)


def _require_unit_interval(sample: FunctionalSample):
    iv = sample.interval
    if abs(iv.a) > UNIT_INTERVAL_TOL or abs(iv.b - 1.0) > UNIT_INTERVAL_TOL:
        raise WrongInterval(
            f"registered waves must live on [0, 1], got [{iv.a}, {iv.b}]"
        )


def fourier_coefficients(
    joint: FunctionalSample, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sine (a) and cosine (b) coefficients of each curve at harmonics l = 1..k_max.

    Both are (n_curves, k_max) matrices.
    """
    if k_max < 1:
        raise InvalidK(f"k_max must be >= 1, got {k_max}")
    _require_unit_interval(joint)
    sines, cosines = _harmonics(joint.grid, k_max)
    return sample_inner_products(joint, sines), sample_inner_products(joint, cosines)


def trig_g_functions(
    joint: FunctionalSample, k_max: int = 3, parts: str = "both"
) -> GVector:
    """Data-driven odd (and even) trigonometric projection functions.

    The sine and cosine combinations are weighted by the joint-sample
    averages of the absolute Fourier coefficients; ``parts="odd"`` keeps
    only the sine combination (the one-degree-of-freedom asymmetry test).
    """
    if parts not in ("both", "odd"):
        raise ValueError(f"parts must be 'both' or 'odd', got {parts!r}")
    a, b = fourier_coefficients(joint, k_max)
    a_bar = np.mean(np.abs(a), axis=0)
    b_bar = np.mean(np.abs(b), axis=0)
    sines, cosines = _harmonics(joint.grid, k_max)
    g1 = a_bar @ sines
    if parts == "odd":
        funcs = g1[None, :]
    else:
        g2 = b_bar @ cosines
        funcs = np.vstack([g1, g2])
    return GVector(
        joint.grid,
        funcs,
        "trig",
        {"k_max": k_max, "parts": parts,
         "a_bar": a_bar.tolist(), "b_bar": b_bar.tolist()},
    )


def pca_basis(joint: FunctionalSample, d: int) -> tuple[GVector, np.ndarray]:
    """Top-d eigenpairs of the pooled covariance operator on the grid.

    Returns the eigenfunctions, unit L2 norm, as a ``pca`` GVector and the
    eigenvalues, non-increasing and > 0 (`pca_eigenpairs`).  The operator
    depends only on the unlabeled joint sample, which is what permutation
    calibration requires.
    """
    eigvals, phis = pca_eigenpairs(joint.values, joint.grid.weights, d)
    return GVector(joint.grid, phis, "pca", {"d": d}), eigvals


def pca_eigenpairs(curves: np.ndarray, w: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-d eigenpairs of the pooled covariance operator of an (N, P) sample
    of curves, or of each sample of a (C, N, P) stack, on grid weights ``w``.

    The operator is the covariance C of the curves about their pooled mean,
    with divisor N - 1.  sqrt(w) C sqrt(w) = Z'Z with Z = data * sqrt(w),
    decomposed by one `eigh` of the Gram matrix on the smaller side:
    for N <= P, Z Z' = U S^2 U' and the eigenfunctions are U' Z / S / sqrt(w)
    (method of snapshots, Sirovich 1987); for N > P, Z'Z = V S^2 V' and they
    are V' / sqrt(w).  Returns eigenvalues (..., d), non-increasing, and
    eigenfunctions (..., d, P) of unit L2 norm, signed by `_orient`.
    """
    n_curves, n_pts = curves.shape[-2:]
    if not 1 <= d <= n_pts:
        raise InvalidK(f"need 1 <= d <= {n_pts}, got {d}")
    if n_curves < 2:
        raise TooFewCurves(f"pca needs at least 2 curves, got {n_curves}")
    data = (curves - curves.mean(axis=-2, keepdims=True)) / np.sqrt(n_curves - 1)
    sqrt_w = np.sqrt(w)
    z = data * sqrt_w
    snapshots = n_curves <= n_pts
    # N > P: einsum, as threaded BLAS products round differently at other thread counts;
    # the snapshot Gram, once per spectral-MC chunk, stays on BLAS (einsum took 4x as long)
    gram = z @ np.swapaxes(z, -1, -2) if snapshots else np.einsum("...np,...nq->...pq", z, z)
    eigvals, vecs = np.linalg.eigh(gram)
    eigvals, vecs = eigvals[..., ::-1], vecs[..., ::-1]  # non-increasing
    _require_rank(eigvals, d)
    phis = np.swapaxes(vecs[..., :d], -1, -2)
    if snapshots:
        phis = phis @ z / np.sqrt(eigvals[..., :d])[..., None]
    return eigvals[..., :d], _orient(phis / sqrt_w, w)


def _require_rank(eigvals: np.ndarray, d: int) -> None:
    """Raise DegenerateCovariance unless every set of non-increasing eigenvalues
    (last axis) has d of them above 1 / CONDITION_BOUND of its largest."""
    floor = 1.0 / CONDITION_BOUND  # the double 1e-12
    rank = int(np.min(np.count_nonzero(eigvals > floor * eigvals[..., :1], axis=-1)))
    if d > rank:
        raise DegenerateCovariance(f"component {d} is numerically zero: only {rank} "
                                   f"eigenvalues exceed {floor:.0e} of the largest")


def _orient(phis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sign rule for eigenfunctions (last axis): a non-negative weighted integral,
    or, where the integral is about 0, a positive value of largest magnitude."""
    integrals = phis @ w
    magnitude = np.abs(phis)
    peaks = np.take_along_axis(phis, np.argmax(magnitude, axis=-1)[..., None], axis=-1)[..., 0]
    flip = np.where(np.abs(integrals) > 1e-10 * np.max(magnitude, axis=-1),
                    integrals < 0, peaks < 0)
    return np.where(flip[..., None], -phis, phis)


def parse_spec(text: str, kind: str) -> tuple[str, dict[str, str]]:
    """`name[:key=value,...]`, the grammar of bases and calibrations, as the name and
    each key's value, stripped, the name and keys lower-cased.  An item without `=`
    (so `trig:` and `trig:k=2,`) or a repeated key raises ValueError."""
    name, colon, rest = text.partition(":")
    name = name.strip().lower()
    params: dict[str, str] = {}
    if colon:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed {kind} parameter {item!r} in {text!r}")
            key = key.strip().lower()
            if key in params:
                raise ValueError(f"repeated {name} parameter {key!r} in {text!r}")
            params[key] = value.strip()
    return name, params


@dataclass(frozen=True)
class BasisSpec:
    """Descriptor of a g-function construction, buildable from a joint sample.

    String form: ``indicator:k=8``, ``bspline:order=5,interior=7``,
    ``trig:k=3,parts=both`` (or ``parts=odd``), ``pca:d=2``.
    """

    scheme: str
    params: dict = field(default_factory=dict)

    # Parameters each scheme reads, with their defaults; any other key is an
    # error, not a no-op.
    _DEFAULTS = {"indicator": {"k": 8}, "bspline": {"order": 5, "interior": 7},
                 "trig": {"k": 3, "parts": "both"}, "pca": {"d": 2}}
    # Least value of each integer parameter, as the builders require.
    _LEAST = {"k": 1, "d": 1, "order": 2, "interior": 0}

    def __post_init__(self):
        if self.scheme not in self._DEFAULTS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        keys = self._DEFAULTS[self.scheme]
        unknown = set(self.params) - set(keys)
        if unknown:
            raise ValueError(f"unknown {self.scheme} parameter {min(unknown)!r}; "
                             f"expected {', '.join(keys)}")
        params = {}
        for key, value in self.params.items():
            if key == "parts":
                if value not in ("both", "odd"):
                    raise ValueError(f"trig parameter 'parts' must be 'both' or 'odd', "
                                     f"got {value!r}")
                params[key] = value
                continue
            try:
                number = int(value) if isinstance(value, str) else operator.index(value)
            except (TypeError, ValueError):
                number = None
            if number is None or isinstance(value, bool):  # operator.index(True) is 1
                raise ValueError(f"{self.scheme} parameter {key!r} must be an integer, "
                                 f"got {value!r}")
            if number < self._LEAST[key]:
                raise ValueError(f"{self.scheme} parameter {key!r} must be >= "
                                 f"{self._LEAST[key]}, got {number}")
            params[key] = number
        object.__setattr__(self, "params", params)

    @property
    def data_driven(self) -> bool:
        return self.scheme in ("trig", "pca")

    def build(self, joint: FunctionalSample) -> GVector:
        p = {**self._DEFAULTS[self.scheme], **self.params}
        if self.scheme == "indicator":
            return indicator_basis(joint.interval, p["k"], joint.grid)
        if self.scheme == "bspline":
            return bspline_basis_g(joint.interval, p["order"], p["interior"], joint.grid)
        if self.scheme == "trig":
            return trig_g_functions(joint, p["k"], p["parts"])
        return pca_basis(joint, p["d"])[0]

    @classmethod
    def parse(cls, text: str) -> "BasisSpec":
        return cls(*parse_spec(text, "basis"))

    def __str__(self) -> str:
        if not self.params:
            return self.scheme
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.scheme}:{inner}"
