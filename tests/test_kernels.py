"""Product-kernel evaluation and Toeplitz/Kronecker multiply primitives."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skigrid.interp import UniformLattice
from skigrid.kernels import (
    KroneckerToeplitz,
    ProductKernel,
    SymmetricToeplitz,
    toeplitz_from_grid,
    toeplitz_on_lattice,
)


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def lattice_mvm(kernel, levels, v):
    """Kernel MVM on the dyadic lattice Omega_levels."""
    lat = UniformLattice.from_levels(levels)
    return KroneckerToeplitz(kernel, lat.counts, lat.spacings).mvm(v)


class TestKernelEval:
    def test_zero_distance_gives_output_scale(self):
        k = ProductKernel([0.3, 1.7], output_scale=2.5)
        x = np.array([0.2, 0.9])
        assert k.eval(x, x) == pytest.approx(2.5)

    def test_unit_distance_closed_form(self):
        k = ProductKernel([1.0])
        assert k.eval([0.0], [1.0]) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        k = ProductKernel(rng.uniform(0.1, 2.0, size=3), output_scale=1.3)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert k.eval(x, y) == pytest.approx(k.eval(y, x), rel=1e-14)

    def test_pairwise_matches_eval(self):
        rng = np.random.default_rng(4)
        k = ProductKernel([0.5, 0.8], output_scale=0.7)
        X, Y = rng.random((6, 2)), rng.random((5, 2))
        K = k.pairwise(X, Y)
        for i, j in itertools.product(range(6), range(5)):
            assert K[i, j] == pytest.approx(k.eval(X[i], Y[j]), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductKernel([0.0, 1.0])
        with pytest.raises(ValueError):
            ProductKernel([1.0], output_scale=-1.0)

    def test_json_round_trip(self):
        k = ProductKernel([0.2, 0.9, 1.5], output_scale=3.0)
        k2 = ProductKernel.from_json(k.to_json(sigma2=0.01))
        np.testing.assert_array_equal(k.lengthscales, k2.lengthscales)
        assert k2.output_scale == 3.0


class TestSymmetricToeplitz:
    def test_first_column_via_basis_vector(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(9)
        T = SymmetricToeplitz(col)
        e0 = np.zeros(9)
        e0[0] = 1.0
        np.testing.assert_allclose(T.matvec(e0), col, atol=1e-13)

    def test_constant_column_times_ones(self):
        T = SymmetricToeplitz(np.full(7, 0.4))
        np.testing.assert_allclose(T.matvec(np.ones(7)), np.full(7, 7 * 0.4),
                                   rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 255, 256, 257])
    def test_matches_dense(self, n):
        rng = np.random.default_rng(n)
        col = np.exp(-np.linspace(0, 3, n) ** 2)
        T = SymmetricToeplitz(col)
        v = rng.standard_normal(n)
        assert rel_err(T.matvec(v), T.dense() @ v) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(6)
        T = SymmetricToeplitz(np.exp(-0.3 * np.arange(33)))
        u, v = rng.standard_normal(33), rng.standard_normal(33)
        a, b = 1.7, -0.4
        lhs = T.matvec(a * u + b * v)
        rhs = a * T.matvec(u) + b * T.matvec(v)
        assert rel_err(lhs, rhs) <= 1e-12

    def test_matmat_is_columnwise_matvec(self):
        rng = np.random.default_rng(7)
        T = SymmetricToeplitz(np.exp(-0.5 * np.arange(12)))
        V = rng.standard_normal((12, 5))
        out = T.matmat(V)
        for c in range(5):
            np.testing.assert_allclose(out[:, c], T.matvec(V[:, c]), atol=1e-13)

    def test_embedding_length_is_power_of_two(self):
        for n in [256, 257, 300, 511, 1000]:
            T = SymmetricToeplitz(np.ones(n))
            L = T.embed_len
            assert L >= 2 * n and (L & (L - 1)) == 0


class TestToeplitzFromGrid:
    def test_level0_single_value(self):
        k = ProductKernel([0.7])
        T = toeplitz_from_grid(k, 0)
        assert T.n == 1 and T.first_column[0] == pytest.approx(1.0)

    def test_level1_constant_diagonals(self):
        k = ProductKernel([0.9])
        T = toeplitz_from_grid(k, 1).dense()
        grid = np.arange(1, 4) / 4.0
        want = k.pairwise(grid[:, None])
        np.testing.assert_allclose(T * k.output_scale, want, atol=1e-15)

    @pytest.mark.parametrize("ell", range(7))
    def test_matches_dense_oracle(self, ell):
        k = ProductKernel([0.31], output_scale=1.8)
        T = toeplitz_from_grid(k, ell)
        grid = np.arange(1, 2 ** (ell + 1)) / 2 ** (ell + 1)
        want = k.pairwise(grid[:, None])
        np.testing.assert_allclose(k.output_scale * T.dense(), want, atol=1e-14)


class TestDenseGridMvm:
    def test_all_zero_levels_scalar(self):
        k = ProductKernel([0.5, 0.5], output_scale=2.0)
        np.testing.assert_allclose(lattice_mvm(k, (0, 0), np.array([3.0])),
                                   [6.0], rtol=1e-14)

    def test_level_11_against_dense(self):
        rng = np.random.default_rng(8)
        k = ProductKernel([0.4, 1.1], output_scale=0.9)
        v = rng.standard_normal(4)
        P = UniformLattice.from_levels((1, 1)).points()
        want = k.pairwise(P) @ v
        assert rel_err(lattice_mvm(k, (1, 1), v), want) <= 1e-13

    def test_separability_rank_one(self):
        rng = np.random.default_rng(9)
        k = ProductKernel([0.6, 0.8], output_scale=1.5)
        a, b = rng.standard_normal(4), rng.standard_normal(8)
        v = np.kron(a, b)
        T1 = toeplitz_on_lattice(k, 0, 4, 2.0**-2)
        T2 = toeplitz_on_lattice(k, 1, 8, 2.0**-3)
        want = 1.5 * np.kron(T1.matvec(a), T2.matvec(b))
        assert rel_err(lattice_mvm(k, (2, 3), v), want) <= 1e-12

    @pytest.mark.parametrize(
        "levels", [(3,), (8,), (2, 2), (5, 3), (1, 2, 3), (2, 2, 2, 2)]
    )
    def test_oracle_equivalence(self, levels):
        rng = np.random.default_rng(hash(levels) % 2**32)
        d = len(levels)
        k = ProductKernel(rng.uniform(0.1, 2.0, size=d), rng.uniform(0.5, 2.0))
        grid = UniformLattice.from_levels(levels)
        v = rng.standard_normal(grid.size)
        want = k.pairwise(grid.points()) @ v
        assert rel_err(lattice_mvm(k, levels, v), want) <= 1e-10

    def test_matrix_rhs_matches_columns(self):
        rng = np.random.default_rng(10)
        k = ProductKernel([0.5, 0.7])
        op = KroneckerToeplitz(k, [4, 8], [0.25, 0.125])
        V = rng.standard_normal((32, 3))
        out = op.mvm(V)
        for c in range(3):
            np.testing.assert_allclose(out[:, c], op.mvm(V[:, c]), atol=1e-13)

    def test_non_dyadic_lattice(self):
        # The GP study matches dense grids with m points per dim, m not a
        # power of two; the operator must stay exact there.
        rng = np.random.default_rng(11)
        k = ProductKernel([0.3, 0.9, 1.4], output_scale=1.2)
        counts, spacings = [3, 5, 2], [1 / 3, 1 / 5, 1 / 2]
        axes = [(2 * np.arange(c) + 1) * (s / 2) for c, s in zip(counts, spacings)]
        mesh = np.meshgrid(*axes, indexing="ij")
        P = np.stack([m.ravel() for m in mesh], axis=1)
        op = KroneckerToeplitz(k, counts, spacings)
        v = rng.standard_normal(30)
        assert rel_err(op.mvm(v), k.pairwise(P) @ v) <= 1e-12

    def test_size_mismatch(self):
        k = ProductKernel([1.0, 1.0])
        with pytest.raises(ValueError):
            lattice_mvm(k, (1, 1), np.ones(5))


class TestPsd:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairwise_matrices_are_psd(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(1, 4)
        k = ProductKernel(rng.uniform(0.1, 2.0, size=d), rng.uniform(0.5, 3.0))
        X = rng.random((rng.integers(5, 300), d))
        K = k.pairwise(X)
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-8 * np.trace(K)

    def test_grid_kernel_matrix_psd(self):
        k = ProductKernel([0.2, 0.5])
        P = UniformLattice.from_levels((3, 3)).points()
        w = np.linalg.eigvalsh(k.pairwise(P))
        assert w.min() >= -1e-8 * np.trace(k.pairwise(P))


@given(st.integers(min_value=1, max_value=200), st.floats(0.05, 3.0))
@settings(max_examples=30, deadline=None)
def test_toeplitz_mvm_random_sizes(n, ls):
    k = ProductKernel([ls])
    T = SymmetricToeplitz(k.k1d(0, np.arange(n) / max(n, 1)))
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    assert rel_err(T.matvec(v), T.dense() @ v) <= 1e-12


def test_k1d_matches_sorted_grid_spacing():
    k = ProductKernel([0.4])
    ell = 3
    T = toeplitz_from_grid(k, ell)
    # any equispaced subset shares the spacing ratio
    pts = UniformLattice.from_levels((ell,)).coords_1d(0)
    assert T.n == 2 ** (ell + 1) - 1
    assert T.first_column[2] == pytest.approx(k.k1d(0, pts[1] - pts[0]), rel=1e-14)
