"""Fast sparse-grid MVM routes against the dense oracle, plus plan invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skigrid.grids import (
    GridCapExceeded,
    build_sparse_grid,
    omega_ranks_in_sorted_1d,
    sparse_grid_size,
    sparse_injection,
)
from skigrid.kernels import ProductKernel
from skigrid.sgmvm import (
    NaiveDenseKernel,
    build_plan,
    naive_kernel_mvm,
    sg_mvm,
    sg_mvm_batched,
)


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def make_kernel(d, rng):
    return ProductKernel(
        lengthscales=rng.uniform(0.15, 1.8, size=d),
        output_scale=rng.uniform(0.4, 2.5),
    )


CONFIGS = [
    (0, 1), (4, 1), (0, 2), (1, 2), (3, 2), (5, 2),
    (2, 3), (4, 3), (3, 4), (2, 5), (1, 6),
]


class TestOracleEquivalence:
    @pytest.mark.parametrize("ell,d", CONFIGS)
    def test_both_routes_match_naive(self, ell, d):
        rng = np.random.default_rng(1000 * ell + d)
        grid = build_sparse_grid(ell, d)
        for _ in range(2):  # two hyperparameter draws
            kernel = make_kernel(d, rng)
            plan = build_plan(ell, d, kernel)
            v = rng.standard_normal(grid.size)
            V = rng.standard_normal((grid.size, 3))
            want_v = naive_kernel_mvm(grid, kernel, v)
            want_V = naive_kernel_mvm(grid, kernel, V)
            assert rel_err(sg_mvm(plan, v), want_v) < 1e-10
            assert rel_err(sg_mvm(plan, V), want_V) < 1e-10
            assert rel_err(sg_mvm_batched(plan, v), want_v) < 1e-10
            assert rel_err(sg_mvm_batched(plan, V), want_V) < 1e-10

    def test_identity_columns_reconstruct_kernel_matrix(self):
        # multiplying by I recovers K column by column
        grid = build_sparse_grid(2, 2)
        kernel = ProductKernel(lengthscales=[0.3, 0.7], output_scale=1.3)
        plan = build_plan(2, 2, kernel)
        K = kernel.pairwise(grid.points())
        got = sg_mvm(plan, np.eye(grid.size))
        np.testing.assert_allclose(got, K, rtol=0, atol=1e-12)

    def test_fft_and_dense_factors_together(self):
        # G(8, 2): the level-8 factor (order 511) takes the FFT path, the
        # lower levels the dense one, within one batched multiply.
        rng = np.random.default_rng(8)
        kernel = make_kernel(2, rng)
        plan = build_plan(8, 2, kernel)
        assert plan.grid.size == 4097
        assert plan.toeplitz[(0, 8)].spectrum is not None
        assert plan.toeplitz[(0, 7)].matrix is not None
        V = rng.standard_normal((plan.grid.size, 3))
        want = naive_kernel_mvm(plan.grid, kernel, V)
        assert rel_err(sg_mvm_batched(plan, V), want) < 1e-10

    def test_routes_agree_columnwise(self):
        rng = np.random.default_rng(5)
        kernel = make_kernel(3, rng)
        plan = build_plan(4, 3, kernel)
        V = rng.standard_normal((plan.grid.size, 7))
        a = sg_mvm(plan, V)
        b = sg_mvm_batched(plan, V)
        assert rel_err(b, a) < 1e-12


@pytest.fixture(scope="module")
def algebra_plan():
    kernel = ProductKernel(lengthscales=[0.4, 0.9, 0.25], output_scale=1.7)
    return build_plan(3, 3, kernel)


@pytest.fixture(scope="module")
def small_plan():
    return build_plan(3, 2, ProductKernel(lengthscales=[0.5, 0.5]))


class TestOperatorAlgebra:
    @pytest.fixture
    def plan(self, algebra_plan):
        return algebra_plan

    def test_symmetry(self, plan):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(plan.grid.size)
        v = rng.standard_normal(plan.grid.size)
        left = u @ sg_mvm_batched(plan, v)
        right = v @ sg_mvm_batched(plan, u)
        assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)

    def test_linearity(self, plan):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(plan.grid.size)
        v = rng.standard_normal(plan.grid.size)
        combo = sg_mvm_batched(plan, 2.5 * u - 0.75 * v)
        parts = 2.5 * sg_mvm_batched(plan, u) - 0.75 * sg_mvm_batched(plan, v)
        assert rel_err(combo, parts) < 1e-12

    def test_quadratic_form_nonnegative(self, plan):
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(plan.grid.size)
            q = v @ sg_mvm_batched(plan, v)
            assert q >= -1e-8 * (v @ v) * plan.kernel.output_scale

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_vectors_match_naive(self, algebra_plan, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(algebra_plan.grid.size)
        want = naive_kernel_mvm(algebra_plan.grid, algebra_plan.kernel, v)
        assert rel_err(sg_mvm_batched(algebra_plan, v), want) < 1e-10


class TestShapes:
    @pytest.fixture
    def plan(self, small_plan):
        return small_plan

    @pytest.mark.parametrize("fn", [sg_mvm, sg_mvm_batched])
    def test_shape_preserved(self, plan, fn):
        n = plan.grid.size
        rng = np.random.default_rng(0)
        assert fn(plan, rng.standard_normal(n)).shape == (n,)
        assert fn(plan, rng.standard_normal((n, 1))).shape == (n, 1)
        assert fn(plan, rng.standard_normal((n, 5))).shape == (n, 5)

    @pytest.mark.parametrize("fn", [sg_mvm, sg_mvm_batched])
    def test_wrong_length_raises(self, plan, fn):
        with pytest.raises(ValueError, match="grid size"):
            fn(plan, np.zeros(plan.grid.size + 1))

    def test_float32_input_upcast(self, plan):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(plan.grid.size).astype(np.float32)
        out = sg_mvm_batched(plan, v)
        assert out.dtype == np.float64


class TestPlan:
    def test_subproblem_count(self):
        # one Toeplitz factor per (dimension, level)
        for ell, d in [(0, 1), (3, 2), (2, 4)]:
            plan = build_plan(ell, d, ProductKernel(lengthscales=np.full(d, 0.5)))
            assert sorted(plan.toeplitz) == [
                (axis, lev) for axis in range(d) for lev in range(ell + 1)]

    def test_selection_maps_roundtrip(self):
        # the index maps the recursive multiply moves blocks through are
        # injections: embed then select is the identity
        ell, dim = 3, 3
        maps = [(2 ** (j + 1) - 1, omega_ranks_in_sorted_1d(i, j))
                for a in range(ell + 1) for i in range(a + 1)
                for j in range(i, a + 1)]
        maps += [(sparse_grid_size(a - i, dp - 1), sparse_injection(a - j, a - i, dp - 1))
                 for dp in range(2, dim + 1) for a in range(ell + 1)
                 for i in range(a + 1) for j in range(i, a + 1)]
        for to_size, idx in maps:
            x = np.arange(1.0, len(idx) + 1)
            v = np.zeros(to_size)
            v[idx] = x
            np.testing.assert_array_equal(v[idx], x)

    def test_sweep_maps_are_read_only(self):
        plan = build_plan(3, 3, make_kernel(3, np.random.default_rng(4)))
        maps = [m for levels in plan._levels.values() for lev in levels
                for m in (lev.block, lev.bbar, lev.a_part, lev.select)
                if m is not None]
        assert maps
        for m in maps:
            assert not m.flags.writeable

    def test_kernel_dim_mismatch_rejected(self):
        with pytest.raises(TypeError):
            build_plan(2, 3, ProductKernel(lengthscales=[0.5, 0.5]))

    def test_non_product_kernel_rejected(self):
        with pytest.raises(TypeError):
            build_plan(2, 2, object())

    def test_size_cap_respected(self):
        with pytest.raises(GridCapExceeded):
            build_plan(6, 6, ProductKernel(lengthscales=np.full(6, 0.5)),
                       size_cap=10)

    def test_workspace_accounting(self):
        plan = build_plan(3, 3, ProductKernel(lengthscales=np.full(3, 0.5)))
        assert plan.workspace_floats >= plan.grid.size


class TestNaive:
    def test_matches_explicit_double_loop(self):
        grid = build_sparse_grid(1, 2)
        kernel = ProductKernel(lengthscales=[0.3, 0.8], output_scale=2.0)
        pts = grid.points()
        K = np.array([[kernel.eval(p, q) for q in pts] for p in pts])
        rng = np.random.default_rng(0)
        v = rng.standard_normal(grid.size)
        np.testing.assert_allclose(naive_kernel_mvm(grid, kernel, v), K @ v,
                                   rtol=1e-14, atol=0)

    def test_point_cap(self):
        grid = build_sparse_grid(3, 2)
        kernel = ProductKernel(lengthscales=[0.5, 0.5])
        with pytest.raises(GridCapExceeded):
            NaiveDenseKernel(grid, kernel, point_cap=grid.size - 1)
        NaiveDenseKernel(grid, kernel, point_cap=grid.size)  # boundary ok
