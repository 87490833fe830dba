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

from .bsplines import basis_sample, spec_from_interior_nodes
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
    provenance: str = "fixed"

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

    def metadata(self) -> dict:
        return {
            "scheme": self.scheme,
            "params": dict(self.params),
            "provenance": self.provenance,
        }


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
    spec = spec_from_interior_nodes(interval, order, interior_nodes)
    funcs = basis_sample(spec, grid)
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
        provenance="data-driven",
    )


def pca_basis(
    joint: FunctionalSample,
    d: int,
    weights: str = "proportion",
    sizes: tuple[int, int] | None = None,
) -> tuple[GVector, np.ndarray]:
    """Top-d eigenpairs of the pooled covariance operator on the grid.

    Returns the eigenfunctions, unit L2 norm, as a ``pca`` GVector and the
    eigenvalues, non-increasing and >= 0.

    Without ``sizes`` the covariance of the pooled sample about the pooled
    mean is used; this depends only on the unlabeled joint sample, which is
    what permutation calibration requires.  With ``sizes=(m, n)`` the first
    m curves form one group and the operator is the theta-weighted
    combination of the two group covariances, theta = m/(m+n) for
    ``weights="proportion"`` or 1/2 for ``weights="equal"``.
    """
    if weights not in ("proportion", "equal"):
        raise ValueError(f"weights must be 'proportion' or 'equal', got {weights!r}")
    n_pts = len(joint.grid)
    if not 1 <= d <= n_pts:
        raise InvalidK(f"need 1 <= d <= {n_pts}, got {d}")
    vals = joint.values
    if sizes is None:
        if vals.shape[0] < 2:
            raise TooFewCurves(f"pca needs at least 2 curves, got {vals.shape[0]}")
        data = (vals - vals.mean(axis=0)) / np.sqrt(vals.shape[0] - 1)
    else:
        m, n = sizes
        if m + n != vals.shape[0] or m < 2 or n < 2:
            raise ValueError("sizes must split the joint sample with m, n >= 2")
        theta = m / (m + n) if weights == "proportion" else 0.5
        data = np.vstack([
            np.sqrt((1.0 - theta) / (m - 1)) * (vals[:m] - vals[:m].mean(axis=0)),
            np.sqrt(theta / (n - 1)) * (vals[m:] - vals[m:].mean(axis=0)),
        ])

    # sqrt(w) C sqrt(w) = Z'Z with Z = data * sqrt(w): thin SVD, O(N P min(N, P)).
    w = joint.grid.weights
    sqrt_w = np.sqrt(w)
    _, sv, vt = np.linalg.svd(data * sqrt_w, full_matrices=False)
    eigvals = sv**2
    rank = int(np.count_nonzero(eigvals > 1e-12 * eigvals[0]))
    if d > rank:
        raise DegenerateCovariance(f"component {d} is numerically zero: only {rank} "
                                   "eigenvalues exceed 1e-12 of the largest")
    # Back to function values: phi = u / sqrt(w) is orthonormal in L2.
    phis = vt[:d] / sqrt_w
    for i in range(d):
        integral = float(np.dot(w, phis[i]))
        if abs(integral) > 1e-10 * np.max(np.abs(phis[i])):
            if integral < 0:
                phis[i] = -phis[i]
        elif phis[i][np.argmax(np.abs(phis[i]))] < 0:
            phis[i] = -phis[i]
    return GVector(joint.grid, phis, "pca", {"d": d}, provenance="data-driven"), eigvals[:d]


@dataclass(frozen=True)
class BasisSpec:
    """Descriptor of a g-function construction, buildable from a joint sample.

    String form: ``indicator:k=8``, ``bspline:order=5,interior=7``,
    ``trig:k=3,parts=both`` (or ``parts=odd``), ``pca:d=2``.
    """

    scheme: str
    params: dict = field(default_factory=dict)

    # Parameters each scheme reads; any other key is an error, not a no-op.
    _KEYS = {"indicator": ("k",), "bspline": ("order", "interior"),
             "trig": ("k", "parts"), "pca": ("d",)}
    # Least value of each integer parameter, as the builders require.
    _LEAST = {"k": 1, "d": 1, "order": 2, "interior": 0}

    def __post_init__(self):
        if self.scheme not in self._KEYS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        keys = self._KEYS[self.scheme]
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
                raise ValueError(f"{self.scheme} parameter {key!r} must be an integer, "
                                 f"got {value!r}") from None
            if number < self._LEAST[key]:
                raise ValueError(f"{self.scheme} parameter {key!r} must be >= "
                                 f"{self._LEAST[key]}, got {number}")
            params[key] = number
        object.__setattr__(self, "params", params)

    @property
    def data_driven(self) -> bool:
        return self.scheme in ("trig", "pca")

    def build(self, joint: FunctionalSample) -> GVector:
        interval, grid = joint.interval, joint.grid
        if self.scheme == "indicator":
            return indicator_basis(interval, self.params.get("k", 8), grid)
        if self.scheme == "bspline":
            return bspline_basis_g(
                interval, self.params.get("order", 5), self.params.get("interior", 7), grid
            )
        if self.scheme == "trig":
            return trig_g_functions(
                joint, self.params.get("k", 3), self.params.get("parts", "both")
            )
        return pca_basis(joint, self.params.get("d", 2))[0]

    @classmethod
    def parse(cls, text: str) -> "BasisSpec":
        scheme, _, rest = text.partition(":")
        scheme = scheme.strip().lower()
        params: dict = {}
        if rest:
            for item in rest.split(","):
                key, _, value = item.partition("=")
                if not _:
                    raise ValueError(f"malformed basis parameter {item!r}")
                params[key.strip().lower()] = value.strip()
        return cls(scheme, params)

    def __str__(self) -> str:
        if not self.params:
            return self.scheme
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.scheme}:{inner}"
