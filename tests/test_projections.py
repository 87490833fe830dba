"""The four g-function construction schemes."""

import os
import subprocess
import sys
from pathlib import Path

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
from fda2s.projections import BasisSpec, pca_eigenpairs

from conftest import eigh_pca_oracle, smooth_curves

SRC = Path(__file__).resolve().parents[1] / "src"
# Prints a hash of the bits of pca_eigenpairs on one seeded (542, 101) sample.
PCA_BITS = """
import hashlib
import numpy as np
from fda2s.projections import pca_eigenpairs
curves = np.random.default_rng(55).normal(size=(542, 101)).cumsum(axis=1)
w = np.full(101, 0.01)
w[[0, -1]] = 0.005
vals, funcs = pca_eigenpairs(curves, w, 2)
print(hashlib.sha256(vals.tobytes() + funcs.tobytes()).hexdigest())
"""

def unit_grid(n=1001):
    return uniform_grid(Interval(0.0, 1.0), n)


@st.composite
def pca_stacks(draw, n_curves, n_points, sets=(1, 4)):
    """A (C, N, P) stack of curve sets, their grid, and a d each set supports.

    Each set is a few geometrically scaled random modes plus a random mean,
    so leading eigenvalues separate.
    """
    c = draw(st.integers(*sets))
    n = draw(st.integers(*n_curves))
    p = draw(st.integers(*n_points))
    n_modes = draw(st.integers(1, min(4, p, n - 2)))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = data.normal(size=(c, n_modes, p)) * 3.0 ** -np.arange(n_modes)[:, None]
    stack = data.normal(size=(c, n, n_modes)) @ modes + data.normal(size=(c, 1, p))
    return uniform_grid(Interval(0.0, 1.0), p), stack, draw(st.integers(1, n_modes))


def pca_problems(n_curves, n_points):
    """One curve set of `pca_stacks`, as a joint sample, and its d."""
    return pca_stacks(n_curves, n_points, sets=(1, 1)).map(
        lambda drawn: (FunctionalSample(drawn[0], drawn[1][0]), drawn[2]))


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
        assert g.scheme == "trig" and g.params["parts"] == "odd"

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

    @pytest.mark.parametrize("n_curves,n_points", [((4, 12), (20, 60)), ((25, 60), (3, 15))],
                             ids=["None-N<P", "None-N>P"])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_dense_eigh_oracle(self, n_curves, n_points, data):
        joint, d = data.draw(pca_problems(n_curves, n_points))
        g, lam = pca_basis(joint, d)
        eigvals, phis = eigh_pca_oracle(joint.values, joint.grid.weights, d)
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

    def test_more_curves_than_points_give_the_same_bits_at_any_blas_thread_count(self):
        # OpenBLAS threads a (101 x 542) x (542 x 101) product and rounds it
        # differently on two threads than on one
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", PCA_BITS], env=env,
                                 capture_output=True, text=True, check=True)
            hashes.append(out.stdout.strip())
        assert hashes[0] == hashes[1]


class TestSnapshotPca:
    """`pca_eigenpairs` on stacks of curve sets: the method of snapshots (N <= P)
    and its P x P side (N > P)."""

    @pytest.mark.parametrize("n_curves,n_points", [((4, 12), (20, 60)), ((25, 60), (3, 15))],
                             ids=["N<P", "N>P"])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_a_stack_matches_dense_eigh_oracle(self, n_curves, n_points, data):
        grid, stack, d = data.draw(pca_stacks(n_curves, n_points))
        eigvals, phis = pca_eigenpairs(stack, grid.weights, d)
        assert eigvals.shape == (len(stack), d) and phis.shape == (len(stack), d, len(grid))
        for c, curves in enumerate(stack):
            lam, funcs = eigh_pca_oracle(curves, grid.weights, d)
            assert np.max(np.abs(eigvals[c] - lam)) <= 1e-10 * lam[0]
            assert np.max(np.abs(phis[c] - funcs)) <= 1e-10 * np.max(np.abs(funcs))

    def test_a_stack_is_each_matrix_alone(self, rng):
        for n_curves, n_points in ((12, 97), (40, 15)):  # N <= P and N > P
            grid = unit_grid(n_points)
            stack = np.stack([smooth_curves(rng, n_curves, grid) for _ in range(5)])
            eigvals, phis = pca_eigenpairs(stack, grid.weights, 3)
            for c, curves in enumerate(stack):
                alone = pca_eigenpairs(curves[None], grid.weights, 3)
                assert np.array_equal(eigvals[c], alone[0][0])
                assert np.array_equal(phis[c], alone[1][0])

    def test_d_beyond_the_rank_of_any_matrix_is_degenerate(self, rng):
        grid = unit_grid(41)
        full = rng.normal(size=(10, 41))
        rank_two = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 41))
        assert pca_eigenpairs(np.stack([full, rank_two]), grid.weights, 2)[0].shape == (2, 2)
        with pytest.raises(DegenerateCovariance):
            pca_eigenpairs(np.stack([full, rank_two]), grid.weights, 3)
        with pytest.raises(InvalidK):
            pca_eigenpairs(full[None], grid.weights, 0)

    def test_one_curve_is_too_few(self, rng):
        grid = unit_grid(41)
        for curves in (rng.normal(size=(1, 41)), rng.normal(size=(3, 1, 41))):
            with pytest.raises(TooFewCurves):
                pca_eigenpairs(curves, grid.weights, 1)

    def test_odd_mode_takes_the_sign_of_its_largest_value(self, rng):
        # sin(2 pi t) integrates to 0 over a grid symmetric about 1/2
        grid = unit_grid(101)
        mode = np.sin(2 * np.pi * grid.points)
        curves = rng.normal(size=(8, 1)) * mode
        for sign in (1.0, -1.0):
            phi = pca_eigenpairs(sign * curves[None], grid.weights, 1)[1][0, 0]
            assert abs(phi @ grid.weights) <= 1e-10 * np.max(np.abs(phi))
            assert phi[np.argmax(np.abs(phi))] > 0.0
            assert np.max(np.abs(np.abs(phi) - np.abs(mode) * np.sqrt(2.0))) < 1e-10


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

    @pytest.mark.parametrize("text,key", [
        ("indicator:k=8,k=3", "k"), ("bspline:order=4,interior=2,order=4", "order"),
        ("trig:parts=odd,K=2,k=3", "k"),
    ])
    def test_repeated_parameter_rejected(self, text, key):
        with pytest.raises(ValueError, match=f"repeated .* parameter '{key}'"):
            BasisSpec.parse(text)

    @pytest.mark.parametrize("scheme,defaults", [
        ("indicator", "k=8"), ("bspline", "order=5,interior=7"),
        ("trig", "k=3,parts=both"), ("pca", "d=2"),
    ])
    def test_defaults_build_as_written_out(self, rng, scheme, defaults):
        joint = FunctionalSample(unit_grid(101), smooth_curves(rng, 12, unit_grid(101)))
        implicit = BasisSpec.parse(scheme).build(joint)
        explicit = BasisSpec.parse(f"{scheme}:{defaults}").build(joint)
        assert implicit.params == explicit.params
        assert np.array_equal(implicit.functions, explicit.functions)

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
        with pytest.raises(ValueError, match="'k'"):  # operator.index(True) is 1
            BasisSpec("indicator", {"k": True})
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
