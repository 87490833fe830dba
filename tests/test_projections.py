"""The four g-function construction schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fda2s import (
    FunctionalSample,
    Interval,
    bspline_basis_g,
    fourier_coefficients,
    indicator_basis,
    pca_basis,
    trig_g_functions,
    uniform_grid,
)
from fda2s.errors import DegenerateCovariance, InvalidK, TooFewCurves, WrongInterval
from fda2s.grids import sample_inner_products
from fda2s.projections import BasisSpec

from conftest import smooth_curves


def unit_grid(n=1001):
    return uniform_grid(Interval(0.0, 1.0), n)


def eigh_pca_oracle(values, w, d, sizes=None, weights="proportion"):
    """Dense route: eigh of sqrt(w) C sqrt(w) on the grid, sign rule applied."""
    if sizes is None:
        c = values - values.mean(axis=0)
        cov = c.T @ c / (values.shape[0] - 1)
    else:
        m, n = sizes
        theta = m / (m + n) if weights == "proportion" else 0.5
        cx = values[:m] - values[:m].mean(axis=0)
        cy = values[m:] - values[m:].mean(axis=0)
        cov = (1 - theta) * cx.T @ cx / (m - 1) + theta * cy.T @ cy / (n - 1)
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


@st.composite
def pca_problems(draw, n_curves, n_points):
    """Curves with a few geometrically scaled random modes, so leading eigenvalues separate."""
    n = draw(st.integers(*n_curves))
    p = draw(st.integers(*n_points))
    n_modes = draw(st.integers(1, min(4, p, n - 2)))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = data.normal(size=(n_modes, p)) * 3.0 ** -np.arange(n_modes)[:, None]
    values = data.normal(size=(n, n_modes)) @ modes + data.normal(size=p)
    grid = uniform_grid(Interval(0.0, 1.0), p)
    return FunctionalSample(grid, values), draw(st.integers(1, n_modes))


class TestIndicatorBasis:
    def test_eight_intervals_over_pi(self):
        grid = uniform_grid(Interval(0.0, np.pi), 801)
        g = indicator_basis(Interval(0.0, np.pi), 8, grid)
        assert g.k == 8
        widths = g.functions.sum(axis=1) * (np.pi / 800)
        assert np.allclose(widths, np.pi / 8, atol=np.pi / 200)

    def test_single_indicator_is_one(self):
        grid = unit_grid(11)
        g = indicator_basis(Interval(0.0, 1.0), 1, grid)
        assert np.array_equal(g.functions, np.ones((1, 11)))

    def test_partition_sums_scores(self, rng):
        grid = unit_grid(301)
        g = indicator_basis(Interval(0.0, 1.0), 7, grid)
        x = FunctionalSample(grid, smooth_curves(rng, 1, grid))
        parts = sample_inner_products(x, g.functions).sum()
        whole = sample_inner_products(x, np.ones((1, len(grid))))[0, 0]
        assert parts == pytest.approx(whole, abs=1e-10)

    def test_pointwise_partition_of_unity(self):
        grid = unit_grid(173)
        g = indicator_basis(Interval(0.0, 1.0), 5, grid)
        assert np.array_equal(g.functions.sum(axis=0), np.ones(len(grid)))

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            indicator_basis(Interval(0.0, 1.0), 0, unit_grid(11))


class TestBSplineBasisG:
    def test_order5_seven_interior_gives_twelve(self):
        g = bspline_basis_g(Interval(0.0, 1.0), 5, 7, unit_grid(101))
        assert g.k == 12

    def test_order2_no_interior_hats(self):
        grid = unit_grid(11)
        g = bspline_basis_g(Interval(0.0, 1.0), 2, 0, grid)
        assert g.k == 2
        t = grid.points
        assert np.allclose(g.functions[0], 1.0 - t, atol=1e-12)
        assert np.allclose(g.functions[1], t, atol=1e-12)

    def test_partition_of_unity(self):
        g = bspline_basis_g(Interval(0.0, 2.0), 5, 7, uniform_grid(Interval(0.0, 2.0), 401))
        assert np.max(np.abs(g.functions.sum(axis=0) - 1.0)) < 1e-12


class TestFourierCoefficients:
    def test_pure_sine(self):
        grid = unit_grid()
        joint = FunctionalSample(grid, np.sin(2 * np.pi * grid.points)[None, :])
        a, b = fourier_coefficients(joint, 3)
        assert np.allclose(a[0], [0.5, 0.0, 0.0], atol=1e-6)
        assert np.allclose(b[0], [0.0, 0.0, 0.0], atol=1e-6)

    def test_zero_curve(self):
        grid = unit_grid(101)
        a, b = fourier_coefficients(FunctionalSample(grid, np.zeros((1, 101))), 3)
        assert np.all(a == 0.0) and np.all(b == 0.0)

    def test_second_cosine_harmonic(self):
        grid = unit_grid()
        joint = FunctionalSample(grid, np.cos(4 * np.pi * grid.points)[None, :])
        a, b = fourier_coefficients(joint, 3)
        assert b[0, 1] == pytest.approx(0.5, abs=1e-6)
        others = np.concatenate([a[0], b[0, [0, 2]]])
        assert np.max(np.abs(others)) < 1e-6

    def test_requires_unit_interval(self):
        grid = uniform_grid(Interval(0.0, 2.0), 51)
        with pytest.raises(WrongInterval):
            fourier_coefficients(FunctionalSample(grid, np.ones((1, 51))), 2)


class TestTrigGFunctions:
    def test_pure_sine_sample(self):
        grid = unit_grid()
        rows = np.tile(np.sin(2 * np.pi * grid.points), (5, 1))
        g = trig_g_functions(FunctionalSample(grid, rows), 3)
        assert g.k == 2
        assert np.allclose(g.functions[0], 0.5 * np.sin(2 * np.pi * grid.points), atol=1e-5)
        assert np.max(np.abs(g.functions[1])) < 1e-5

    def test_odd_part_only(self, rng):
        grid = unit_grid(201)
        joint = FunctionalSample(grid, smooth_curves(rng, 6, grid))
        g = trig_g_functions(joint, 3, parts="odd")
        assert g.k == 1
        assert g.provenance == "data-driven"

    def test_g1_g2_orthogonal(self, rng):
        grid = unit_grid(2001)
        joint = FunctionalSample(grid, smooth_curves(rng, 8, grid))
        g = trig_g_functions(joint, 3)
        dot = sample_inner_products(FunctionalSample(grid, g.functions[:1]), g.functions[1:])[0, 0]
        assert abs(dot) < 1e-6

    def test_invariant_under_curve_permutation(self, rng):
        grid = unit_grid(101)
        rows = smooth_curves(rng, 9, grid)
        g1 = trig_g_functions(FunctionalSample(grid, rows), 3)
        g2 = trig_g_functions(FunctionalSample(grid, rows[rng.permutation(9)]), 3)
        assert np.allclose(g1.functions, g2.functions, atol=1e-12)

    def test_coefficient_table_shape(self, rng):
        # three averaged |a| and |b| entries per harmonic, all non-negative
        grid = unit_grid(201)
        g = trig_g_functions(FunctionalSample(grid, smooth_curves(rng, 12, grid)), 3)
        a_bar, b_bar = g.params["a_bar"], g.params["b_bar"]
        assert len(a_bar) == 3 and len(b_bar) == 3
        assert all(v >= 0 for v in a_bar + b_bar)


class TestPcaBasis:
    def test_rank_one_covariance(self, rng):
        grid = unit_grid(301)
        mode = np.sin(2 * np.pi * grid.points)
        rows = rng.normal(0, 1, (40, 1)) * mode
        # a vanishing second component keeps the operator above the
        # 1e-12 degeneracy cutoff while staying <= 1e-8 of the first
        rows = rows + 1e-5 * rng.normal(0, 1, (40, 1)) * np.cos(2 * np.pi * grid.points)
        g, lam = pca_basis(FunctionalSample(grid, rows), 2)
        cos_sim = abs(np.dot(g.functions[0], mode)) / (
            np.linalg.norm(g.functions[0]) * np.linalg.norm(mode)
        )
        assert cos_sim >= 0.999
        assert lam[1] <= 1e-8 * lam[0]

    def test_degenerate_covariance(self, rng):
        grid = unit_grid(51)
        rows = rng.normal(0, 1, (3, 1)) * np.sin(2 * np.pi * grid.points)
        with pytest.raises(DegenerateCovariance):
            pca_basis(FunctionalSample(grid, rows), 10)

    def test_two_component_mixture_against_dual_oracle(self, rng):
        grid = unit_grid(201)
        t = grid.points
        sin_mode = np.sqrt(2.0) * np.sin(2 * np.pi * t)
        cos_mode = np.sqrt(2.0) * np.cos(2 * np.pi * t)
        n = 200
        rows = (rng.normal(0, 2.0, (n, 1)) * sin_mode
                + rng.normal(0, 1.0, (n, 1)) * cos_mode)
        g, lam = pca_basis(FunctionalSample(grid, rows), 2)
        ratio = lam[0] / lam[1]
        assert 4.0 * 0.9 <= ratio <= 4.0 * 1.1
        # dual-route oracle: eigenvalues of the n x n Gram of weighted rows
        w = np.zeros(t.size)
        d = np.diff(t)
        w[:-1] += d / 2
        w[1:] += d / 2
        centered = rows - rows.mean(axis=0)
        gram = (centered * w) @ centered.T / (n - 1)
        dual = np.sort(np.linalg.eigvalsh(gram))[::-1]
        assert np.allclose(dual[:2], lam, rtol=1e-8)

    def test_eigenfunctions_orthonormal_under_quadrature(self, rng):
        grid = unit_grid(151)
        rows = smooth_curves(rng, 30, grid)
        g, lam = pca_basis(FunctionalSample(grid, rows), 3)
        w = grid.weights
        gram = (g.functions * w) @ g.functions.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6

    def test_eigenvalues_non_increasing_and_clipped(self, rng):
        grid = unit_grid(101)
        rows = smooth_curves(rng, 25, grid)
        g, lam = pca_basis(FunctionalSample(grid, rows), 4)
        assert np.all(np.diff(lam) <= 1e-15)
        assert np.all(lam >= 0.0)

    def test_sign_convention_nonnegative_integral(self, rng):
        grid = unit_grid(101)
        rows = smooth_curves(rng, 25, grid)
        g, lam = pca_basis(FunctionalSample(grid, rows), 3)
        integrals = g.functions @ grid.weights
        peaks = g.functions[
            np.arange(3), np.argmax(np.abs(g.functions), axis=1)
        ]
        for integ, peak, func in zip(integrals, peaks, g.functions):
            if abs(integ) > 1e-10 * np.max(np.abs(func)):
                assert integ >= 0.0
            else:
                assert peak > 0.0

    def test_theta_weighted_variant(self, rng):
        grid = unit_grid(101)
        x = rng.normal(0, 2.0, (30, 1)) * np.sin(2 * np.pi * grid.points)
        y = rng.normal(0, 1.0, (20, 1)) * np.sin(2 * np.pi * grid.points)
        joint = FunctionalSample(grid, np.vstack([x, y]))
        _, prop_lam = pca_basis(joint, 1, weights="proportion", sizes=(30, 20))
        _, equal_lam = pca_basis(joint, 1, weights="equal", sizes=(30, 20))
        # theta = m/(m+n) weights the second group's covariance; with the
        # x-group twice as spread, the two conventions must differ
        assert prop_lam[0] != pytest.approx(equal_lam[0], rel=1e-6)
        theta = 30 / 50
        covx = np.einsum("ni,nj->ij", x - x.mean(0), x - x.mean(0)) / 29
        covy = np.einsum("ni,nj->ij", y - y.mean(0), y - y.mean(0)) / 19
        w = grid.weights
        sym = np.sqrt(w)[:, None] * ((1 - theta) * covx + theta * covy) * np.sqrt(w)[None, :]
        oracle = np.linalg.eigvalsh(sym).max()
        assert prop_lam[0] == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("n_curves,n_points", [((4, 12), (20, 60)), ((25, 60), (3, 15))],
                             ids=["N<P", "N>P"])
    @pytest.mark.parametrize("sizes", [None, "proportion", "equal"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_dense_eigh_oracle(self, n_curves, n_points, sizes, data):
        joint, d = data.draw(pca_problems(n_curves, n_points))
        kwargs = {}
        if sizes is not None:
            m = data.draw(st.integers(2, joint.n_curves - 2))
            kwargs = {"weights": sizes, "sizes": (m, joint.n_curves - m)}
        g, lam = pca_basis(joint, d, **kwargs)
        eigvals, phis = eigh_pca_oracle(
            joint.values, joint.grid.weights, d, kwargs.get("sizes"), sizes or "proportion"
        )
        assert np.max(np.abs(lam - eigvals)) <= 1e-10 * eigvals[0]
        assert np.max(np.abs(g.functions - phis)) <= 1e-10 * np.max(np.abs(phis))

    @pytest.mark.parametrize("n_curves,n_points,rank,d", [
        (10, 30, 2, 3),  # d > rank, d < min(N, P)
        (5, 30, 30, 5),  # d = N: centring leaves rank N - 1
        (5, 30, 30, 6),  # d > min(N, P) = N
        (40, 6, 3, 6),  # d = P > rank
    ])
    def test_d_beyond_rank_is_degenerate(self, rng, n_curves, n_points, rank, d):
        values = rng.normal(size=(n_curves, rank)) @ rng.normal(size=(rank, n_points))
        with pytest.raises(DegenerateCovariance):
            pca_basis(FunctionalSample(unit_grid(n_points), values), d)

    def test_one_curve_is_too_few(self, rng):
        joint = FunctionalSample(unit_grid(41), rng.normal(size=(1, 41)))
        with pytest.raises(TooFewCurves):
            pca_basis(joint, 1)
        with pytest.raises(TooFewCurves):
            BasisSpec.parse("pca:d=1").build(joint)


class TestBasisSpec:
    def test_parse_round_trip(self):
        spec = BasisSpec.parse("bspline:order=5,interior=7")
        assert spec.scheme == "bspline"
        assert spec.params == {"order": 5, "interior": 7}
        assert str(spec) == "bspline:interior=7,order=5"

    def test_parse_trig_parts(self):
        spec = BasisSpec.parse("trig:k=3,parts=odd")
        assert spec.params["parts"] == "odd"
        assert spec.data_driven

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            BasisSpec.parse("wavelet:j=2")

    @pytest.mark.parametrize("text,key", [
        ("trig:kk=1", "kk"),
        ("indicator:d=2", "d"),
        ("pca:d=2,weights=equal", "weights"),
    ])
    def test_unknown_parameter_rejected(self, text, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            BasisSpec.parse(text)
        scheme, _, rest = text.partition(":")
        params = dict(item.split("=") for item in rest.split(","))
        with pytest.raises(ValueError, match=f"'{key}'"):
            BasisSpec(scheme, params)

    @pytest.mark.parametrize("text", ["trig:k_max=2", "trig:k=2,k_max=5"])
    def test_trig_k_max_is_not_an_alias_of_k(self, text):
        with pytest.raises(ValueError, match="unknown trig parameter 'k_max'; expected k, parts"):
            BasisSpec.parse(text)

    @pytest.mark.parametrize("text,key", [
        ("indicator:k=abc", "k"), ("trig:k=2.5", "k"), ("pca:d=", "d"),
        ("pca:d=0", "d"), ("indicator:k=-3", "k"), ("trig:k=0", "k"),
        ("trig:k=-1", "k"), ("bspline:order=1", "order"),
        ("bspline:interior=-1", "interior"), ("trig:parts=even", "parts"),
    ])
    def test_invalid_value_rejected(self, text, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            BasisSpec.parse(text)

    def test_non_integer_library_value_rejected(self):
        with pytest.raises(ValueError, match="'k'"):
            BasisSpec("trig", {"k": 2.5})
        assert BasisSpec("trig", {"k": np.int64(2)}).params == {"k": 2}

    @pytest.mark.parametrize("text", [
        "indicator", "indicator:k=8", "bspline:interior=7,order=5", "trig:k=3,parts=odd",
        "trig:k=2,parts=both", "pca:d=2", "pca:d=1", "bspline:interior=0,order=2",
        "trig:k=1",
    ])
    def test_valid_specs_round_trip(self, text):
        spec = BasisSpec.parse(text)
        assert str(spec) == text
        assert BasisSpec.parse(str(spec)) == spec

    def test_build_all_schemes(self, rng):
        grid = unit_grid(101)
        joint = FunctionalSample(grid, smooth_curves(rng, 12, grid))
        for text, k in [
            ("indicator:k=8", 8),
            ("bspline:order=5,interior=7", 12),
            ("trig:k=3,parts=both", 2),
            ("trig:k=3,parts=odd", 1),
            ("pca:d=2", 2),
        ]:
            g = BasisSpec.parse(text).build(joint)
            assert g.k == k
            assert np.all(np.isfinite(g.functions))
