"""Interpolation rules: hand-traced cells, partition of unity, exactness."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from skigrid import interp
from skigrid.grids import build_sparse_grid, rect_injection
from skigrid.interp import (
    BaseRule,
    UniformLattice,
    WeightMatrix,
    assemble_W,
    combination_components,
    interpolate,
    interpolate_direct,
    interpolator,
    rule_density,
    subsampled_components,
)


def one_row(x, grid, kind="simplicial", method="combination"):
    """Columns and weights of x's row of W: duplicates merged, zeros dropped."""
    W = assemble_W(np.reshape(x, (1, -1)), grid, BaseRule(kind), method).matrix
    return W.indices, W.data


def lattice_row(x, levels, kind="simplicial"):
    return one_row(x, UniformLattice.from_levels(levels), kind)


def entries(row):
    return list(zip(row[0].tolist(), row[1].tolist()))


def lattice_interp(row, lat, f):
    """Evaluate a lattice row (columns, weights) against samples of f."""
    cols, w = row
    return w @ f(lat.points()[cols])


class TestUniformLattice:
    def test_from_levels_matches_rect_grid(self):
        # Omega_l: 2**l_j odd dyadics (2i+1)/2**(l_j+1) per axis, row-major
        levels = (2, 1, 0)
        lat = UniformLattice.from_levels(levels)
        axes = [[(2 * i + 1) / 2 ** (l + 1) for i in range(2**l)] for l in levels]
        np.testing.assert_array_equal(lat.points(), list(itertools.product(*axes)))
        assert lat.shape == (4, 2, 1)

    def test_unit_lattice_is_cell_centred(self):
        lat = UniformLattice.unit(2, 3)
        np.testing.assert_allclose(lat.coords_1d(0), [1 / 6, 1 / 2, 5 / 6])
        # power-of-two count coincides with the dyadic lattice
        np.testing.assert_allclose(
            UniformLattice.unit(1, 4).points(),
            UniformLattice.from_levels((2,)).points(),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformLattice([2, 2], [0.5], [0.25, 0.25])
        with pytest.raises(ValueError):
            UniformLattice([0], [0.5], [0.25])
        with pytest.raises(ValueError):
            UniformLattice([2], [0.0], [0.25])


class TestSimplicialRect:
    def test_hand_traced_cell(self):
        # x=(0.30, 0.35) on the 2x2 lattice: local coords (0.1, 0.2),
        # dimension 2 steps first, weights (0.8, 0.1, 0.1)
        row = lattice_row([0.30, 0.35], (1, 1))
        lat = UniformLattice.from_levels((1, 1))
        got = {tuple(lat.points()[i]): w for i, w in entries(row)}
        want = {(0.25, 0.25): 0.8, (0.25, 0.75): 0.1, (0.75, 0.75): 0.1}
        assert set(got) == set(want)
        for corner, w in want.items():
            assert got[corner] == pytest.approx(w, abs=1e-12)

    def test_on_lattice_point(self):
        row = lattice_row([0.25, 0.75], (1, 1))
        assert len(row[0]) == 1  # the d weightless corners are dropped
        nz = {i: w for i, w in entries(row) if w != 0}
        lat = UniformLattice.from_levels((1, 1))
        ((idx, w),) = nz.items()
        assert w == pytest.approx(1.0)
        np.testing.assert_allclose(lat.points()[idx], [0.25, 0.75])

    def test_simplex_centroid(self):
        centroid = np.mean([[0.25, 0.25], [0.25, 0.75], [0.75, 0.75]], axis=0)
        _, w = lattice_row(centroid, (1, 1))
        np.testing.assert_allclose(np.sort(w), np.full(3, 1 / 3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_partition_of_unity_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        levels = tuple(int(l) for l in rng.integers(0, 4, d))
        x = rng.uniform(-0.2, 1.2, d)  # also exercises out-of-hull clamping
        cols, w = lattice_row(x, levels)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= -1e-15).all()
        assert len(cols) <= d + 1

    def test_affine_exactness_inside_hull(self):
        rng = np.random.default_rng(3)
        for d, levels in [(1, (3,)), (2, (2, 3)), (3, (1, 2, 2)), (4, (2,) * 4)]:
            lat = UniformLattice.from_levels(levels)
            lo = lat.offsets + 1e-9
            hi = lat.offsets + (lat.counts - 1) * lat.spacings - 1e-9
            a = rng.standard_normal(d)
            f = lambda P: P @ a + 0.7
            for _ in range(20):
                x = rng.uniform(lo, hi)
                row = lattice_row(x, levels)
                assert lattice_interp(row, lat, f) == pytest.approx(
                    float(x @ a + 0.7), abs=1e-12
                )

    def test_level_zero_dimension_collapses(self):
        # a single-point dimension carries all weight on its lone coordinate
        cols, w = lattice_row([0.9, 0.3], (0, 2))
        lat = UniformLattice.from_levels((0, 2))
        assert w.sum() == pytest.approx(1.0)
        assert len(cols) <= 2  # duplicates in the constant dim merged
        assert all(lat.points()[i][0] == 0.5 for i in cols)

    def test_tie_continuity_across_simplex_boundary(self):
        # equal local coordinates sit on a simplex face; the interpolant of
        # any lattice sample must be continuous through it
        rng = np.random.default_rng(11)
        lat = UniformLattice.from_levels((2, 2))
        vals = rng.standard_normal(lat.size)
        f = lambda P: vals[
            np.ravel_multi_index(
                tuple(np.round((P - lat.offsets) / lat.spacings).astype(int).T),
                lat.shape,
            )
        ]
        x = np.array([0.4, 0.4])
        eps = 1e-9
        at = lattice_interp(lattice_row(x, (2, 2)), lat, f)
        for dx in ([eps, 0.0], [0.0, eps], [-eps, 0.0], [0.0, -eps]):
            near = lattice_interp(lattice_row(x + dx, (2, 2)), lat, f)
            assert abs(near - at) < 1e-6


class TestTensorRect:
    def test_linear_midpoint(self):
        row = lattice_row([0.5], (1,), "linear")
        assert entries(row) == [(0, 0.5), (1, 0.5)]

    def test_linear_on_lattice_point(self):
        row = lattice_row([0.25, 0.25], (1, 1), "linear")
        nz = [(i, w) for i, w in entries(row) if w != 0]
        assert nz == [(0, 1.0)]

    def test_linear_affine_exactness(self):
        rng = np.random.default_rng(5)
        levels = (2, 3)
        lat = UniformLattice.from_levels(levels)
        a = rng.standard_normal(2)
        f = lambda P: P @ a - 0.3
        lo = lat.offsets + 1e-9
        hi = lat.offsets + (lat.counts - 1) * lat.spacings - 1e-9
        for _ in range(20):
            x = rng.uniform(lo, hi)
            row = lattice_row(x, levels, "linear")
            assert lattice_interp(row, lat, f) == pytest.approx(
                float(x @ a - 0.3), abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linear_pou_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        levels = tuple(int(l) for l in rng.integers(0, 4, d))
        cols, w = lattice_row(rng.uniform(-0.1, 1.1, d), levels, "linear")
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= -1e-15).all()
        assert len(cols) <= 2**d

    def test_cubic_cardinal_property(self):
        # on a lattice point the Keys kernel hits 1 there, 0 on neighbors
        lat = UniformLattice.from_levels((2,))
        for t in range(4):
            cols, weights = lattice_row([lat.coords_1d(0)[t]], (2,), "cubic")
            w = np.zeros(lat.size)
            w[cols] = weights
            want = np.zeros(lat.size)
            want[t] = 1.0
            np.testing.assert_allclose(w, want, atol=1e-12)

    def test_cubic_pou_and_density(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0, 1, 2)
            cols, w = lattice_row(x, (3, 2), "cubic")
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert len(cols) <= 16

    def test_cubic_reproduces_quadratics_in_interior(self):
        # Keys a=-1/2 is exact on quadratics away from the boundary stencil
        levels = (3,)
        lat = UniformLattice.from_levels(levels)
        f = lambda P: 2.0 * P[:, 0] ** 2 - P[:, 0] + 0.1
        rng = np.random.default_rng(9)
        lo = lat.offsets[0] + lat.spacings[0]  # one full cell off each end
        hi = lat.offsets[0] + 6 * lat.spacings[0]
        for x in rng.uniform(lo, hi, 25):
            row = lattice_row([x], levels, "cubic")
            got = lattice_interp(row, lat, f)
            assert got == pytest.approx(2 * x**2 - x + 0.1, abs=1e-12)

    def test_cubic_falls_back_to_linear_when_short(self):
        # 2-point dimension cannot support a 4-point stencil
        row = lattice_row([0.4], (1,), "cubic")
        want = lattice_row([0.4], (1,), "linear")
        assert entries(row) == entries(want)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            lattice_row([0.5], (1,), "quintic")


class TestCombination:
    def test_component_enumeration_d2(self):
        comps = combination_components(2, 2)
        plus = [l for l, c in comps if c == 1.0]
        minus = [l for l, c in comps if c == -1.0]
        assert sorted(plus) == [(0, 2), (1, 1), (2, 0)]
        assert sorted(minus) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("ell,d", [(0, 1), (3, 1), (2, 2), (1, 3), (0, 4),
                                       (3, 3), (4, 2), (2, 6)])
    def test_coefficients_telescope_to_one(self, ell, d):
        total = sum(c for _, c in combination_components(ell, d))
        assert total == pytest.approx(1.0)

    def test_d1_reduces_to_base_rule(self):
        x = [0.613]
        grid = build_sparse_grid(3, 1)
        row = one_row(x, grid)
        base = lattice_row(x, (3,))
        lat = UniformLattice.from_levels((3,))
        got = {tuple(grid.points()[i]): w for i, w in entries(row)}
        want = {tuple(lat.points()[i]): w for i, w in entries(base)}
        assert got == want

    def test_constant_function_reproduced(self):
        _, w = one_row([0.4, 0.9], build_sparse_grid(2, 2))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_partition_of_unity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        ell = int(rng.integers(0, 7 - d if d > 3 else 5))
        kind = ("simplicial", "linear")[int(rng.integers(0, 2))]
        x = rng.uniform(0, 1, d)
        _, w = one_row(x, build_sparse_grid(ell, d), kind)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_row_density_bound(self):
        d, ell = 3, 4
        bound = (d + 1) * sum(
            math.comb(ell - q + d - 1, d - 1) for q in range(d) if ell - q >= 0
        )
        rng = np.random.default_rng(13)
        for _ in range(10):
            cols, _ = one_row(rng.uniform(0, 1, d), build_sparse_grid(ell, d))
            assert len(cols) <= bound

    def test_shells_below_zero_skipped(self):
        # ell < d-1 still works, with the missing shells dropped
        _, w = one_row([0.5, 0.5, 0.5], build_sparse_grid(1, 3))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestSubsampled:
    def test_d1_single_grid(self):
        comps = subsampled_components(3, 1)
        assert comps == (((3,), 1.0),)

    def test_d2_ell3_enumeration(self):
        comps = subsampled_components(3, 2)
        assert sorted(l for l, _ in comps) == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert all(c == 0.25 for _, c in comps)

    def test_requires_positive_resolution(self):
        with pytest.raises(ValueError):
            subsampled_components(0, 2)

    def test_constant_function_reproduced(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 3):
            _, w = one_row(rng.uniform(0, 1, d), build_sparse_grid(3, d),
                           method="subsampled")
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert (w >= -1e-15).all()


class TestAssembleW:
    def test_rows_match_per_point_op(self):
        # each row of W, applied to grid samples, equals the interpolant
        # evaluated directly at that one point
        rng = np.random.default_rng(19)
        X = rng.uniform(0, 1, (15, 2))
        g = build_sparse_grid(3, 2)
        f = lambda P: np.exp(-P[:, 0]) * np.sin(4 * P[:, 1])
        W = assemble_W(X, g)
        samples = f(g.points())
        m = W.matrix
        for i, x in enumerate(X):
            cols, w = (a[m.indptr[i] : m.indptr[i + 1]] for a in (m.indices, m.data))
            want = interpolate_direct(f, x[None, :], 3, 2)[0]
            assert w @ samples[cols] == pytest.approx(want, abs=1e-12)

    def test_high_dimension_matches_direct_evaluation(self):
        # d=16 at l=3: (l+1)*d exceeds 62 bits, where the columns were once
        # found by a per-point dict
        rng = np.random.default_rng(47)
        d, ell = 16, 3
        g = build_sparse_grid(ell, d)
        f = lambda P: np.cos(P.sum(axis=1)) + P[:, 0] * P[:, -1]
        X = rng.uniform(0, 1, (8, d))
        via_W = assemble_W(X, g).apply(f(g.points()))
        direct = interpolate_direct(f, X, ell, d)
        np.testing.assert_allclose(via_W, direct, rtol=0, atol=1e-10)

    def test_tensor_rule_in_high_dimension_matches_direct_evaluation(self):
        # d=15 at l=3: every component grid has at most 3 dimensions with more
        # than one point, so a linear row needs at most 2**3 corners per grid
        rng = np.random.default_rng(53)
        d, ell = 15, 3
        g = build_sparse_grid(ell, d)
        f = lambda P: np.cos(P.sum(axis=1)) + P[:, 0] * P[:, -1]
        X = rng.uniform(0, 1, (200, d))
        W = assemble_W(X, g, BaseRule("linear"), method="subsampled")
        direct = interpolate_direct(f, X, ell, d, BaseRule("linear"),
                                    method="subsampled")
        np.testing.assert_allclose(W.apply(f(g.points())), direct,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method,kind", [
        ("combination", "simplicial"),
        ("combination", "linear"),
        ("subsampled", "simplicial"),
    ])
    def test_matches_direct_evaluation(self, method, kind):
        rng = np.random.default_rng(23)
        g = build_sparse_grid(3, 3)
        f = lambda P: np.cos(P.sum(axis=1)) + 0.3 * P[:, 0] * P[:, 1]
        X = rng.uniform(0, 1, (50, 3))
        W = assemble_W(X, g, BaseRule(kind), method=method)
        via_W = W.apply(f(g.points()))
        direct = interpolate_direct(f, X, 3, 3, BaseRule(kind), method=method)
        np.testing.assert_allclose(via_W, direct, atol=1e-12)

    @pytest.mark.parametrize("kind", interp.RULE_KINDS)
    def test_direct_evaluation_calls_f_once_on_distinct_corners(self, kind):
        calls = []

        def f(P):
            calls.append(P.copy())
            return np.cos(P.sum(axis=1))

        X = np.random.default_rng(31).uniform(0, 1, (20, 3))
        interpolate_direct(f, X, 3, 3, BaseRule(kind))
        assert len(calls) == 1
        assert len(np.unique(calls[0], axis=0)) == len(calls[0])

    def test_adjoint_identity(self):
        rng = np.random.default_rng(29)
        g = build_sparse_grid(4, 2)
        X = rng.uniform(0, 1, (60, 2))
        W = assemble_W(X, g)
        u = rng.standard_normal(60)
        v = rng.standard_normal(g.size)
        lhs = W.apply(v) @ u
        rhs = v @ W.apply_transpose(u)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(lhs)))

    def test_rect_paths_interpolate_lattice_samples(self):
        rng = np.random.default_rng(31)
        f = lambda P: np.sin(3 * P[:, 0]) + P[:, 1]
        for lat in (UniformLattice.from_levels((2, 3)), UniformLattice.unit(2, 5)):
            W = assemble_W(lat.points(), lat, BaseRule("linear"))
            # querying the lattice points themselves returns the samples
            np.testing.assert_allclose(
                W.apply(f(lat.points())), f(lat.points()), atol=1e-12
            )
            assert "method=rect" in repr(W)

    def test_density_bound_holds(self):
        rng = np.random.default_rng(37)
        X = rng.uniform(0, 1, (200, 6))
        g = build_sparse_grid(4, 6)
        W = assemble_W(X, g)
        assert W.max_row_nnz <= W.density_bound
        assert W.tables.n_grids == len(combination_components(4, 6))

    def test_validation(self):
        g = build_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            assemble_W(np.zeros((3, 2, 1)), g)
        with pytest.raises(ValueError):
            assemble_W(np.array([[np.nan, 0.5]]), g)
        with pytest.raises(ValueError):
            assemble_W(np.zeros((3, 3)), g)
        with pytest.raises(TypeError):
            assemble_W(np.zeros((3, 2)), "grid")
        with pytest.raises(ValueError):
            assemble_W(np.zeros((3, 2)), g, method="bogus")
        with pytest.raises(ValueError):
            rule_density("quartic", 2)

    def test_merges_duplicates(self):
        # component lattices are disjoint, so duplicates come from clamping:
        # at x = 0.1 the cubic stencil on Omega_3 (cell 0, r = 0.3) clamps
        # its corner -1 onto point 0, and the row holds their summed weight
        cols, w = one_row([0.1], build_sparse_grid(3, 1), "cubic")
        assert len(cols) == 3 and (np.diff(cols) > 0).all()
        near = lambda s: 1.5 * s**3 - 2.5 * s**2 + 1.0
        far = lambda s: -0.5 * (s**3 - 5.0 * s**2 + 8.0 * s - 4.0)
        first = rect_injection((3,), 3)[0]
        assert w[cols == first][0] == pytest.approx(far(1.3) + near(0.3),
                                                    abs=1e-12)

    @pytest.mark.parametrize("kind", ["simplicial", "linear", "cubic"])
    def test_block_edges_match_one_row_calls(self, kind):
        # rows are merged block by block; W must not depend on where a
        # block ends
        g = build_sparse_grid(4, 6)
        B = interpolator(g, BaseRule(kind)).block_rows()
        X = np.random.default_rng(59).uniform(-0.1, 1.1, (B + 1, 6))
        rows = [assemble_W(X[i : i + 1], g, BaseRule(kind)).matrix
                for i in range(B + 1)]
        for n in (B - 1, B, B + 1):
            got = assemble_W(X[:n], g, BaseRule(kind)).matrix
            want = scipy.sparse.vstack(rows[:n], format="csr")
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, attr),
                                              getattr(want, attr))

    def test_simplicial_walks_multi_point_axes_only(self):
        # a component with k multi-point axes takes k + 1 slots of a row:
        # 714 at G(4, 6), where a walk over all d axes takes C(d + 1) = 1470
        comps = interpolator(build_sparse_grid(4, 6), BaseRule("simplicial"))
        k = (comps.counts > 1).sum(axis=1)
        assert comps.row_entries == (k + 1).sum() == 714
        slots = []
        for p in comps.passes:
            assert (p.counts > 1).all()
            per_comp = p.slots.reshape(len(p.bases), -1)
            assert per_comp.shape[1] == p.axes.shape[1] + 1
            assert (np.diff(per_comp, axis=1) == 1).all()
            slots.append(p.slots)
        np.testing.assert_array_equal(np.sort(np.concatenate(slots)),
                                      np.arange(714))

    @pytest.mark.parametrize("kind", ["simplicial", "linear"])
    def test_block_rows_hold_each_column_once(self, kind):
        # the Kuhn walk and the linear stencil reach distinct points of one
        # component, and components are disjoint: nothing is left to merge
        comps = interpolator(build_sparse_grid(4, 6), BaseRule(kind))
        X = np.random.default_rng(67).uniform(-0.1, 1.1, (60, 6))
        X[:20] = np.round(X[:20] * 8) / 8  # on lattice lines, with ties
        flat, _ = comps.block(X)
        cols = np.sort(comps.columns[flat], axis=1)
        assert (np.diff(cols, axis=1) > 0).all()

    def test_no_points(self):
        for grid in (build_sparse_grid(3, 2), UniformLattice.unit(2, 5)):
            W = assemble_W(np.zeros((0, 2)), grid)
            assert W.shape == (0, grid.size) and W.nnz == 0

    def test_assembly_memory_is_bounded(self):
        # d=6, l=4: 714 unmerged entries per row merge to ~510; row blocks
        # keep the peak within a small multiple of W itself
        g = build_sparse_grid(4, 6)
        X = np.random.default_rng(61).uniform(0, 1, (2000, 6))
        assemble_W(X[:1], g)  # component tables are cached
        tracemalloc.start()
        try:
            W = assemble_W(X, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = W.matrix
        assert peak <= 4 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)

    def test_density_check_raises(self):
        # a 2-d simplicial row on one grid has at most 3 entries
        dense_row = scipy.sparse.csr_matrix(np.ones((1, 4)))
        lattice = interpolator(UniformLattice.unit(2, 2), BaseRule("simplicial"))
        with pytest.raises(RuntimeError, match="4 entries.*at most 3"):
            WeightMatrix(dense_row, lattice)
        with pytest.raises(TypeError, match="must be a sparse matrix"):
            WeightMatrix([dense_row], lattice)


def assert_matches_W_route(X, grid, values, kind, method="combination"):
    """interpolate agrees with assemble_W(...).apply row by row, to 1e-12
    of the row's sum of |w_j g_j|."""
    W = assemble_W(X, grid, BaseRule(kind), method)
    got = interpolate(X, grid, values, BaseRule(kind), method)
    assert got.shape == (len(X),)
    size = abs(W.matrix) @ np.abs(values)
    assert (np.abs(got - W.apply(values)) <= 1e-12 * size).all()


class TestInterpolate:
    @pytest.mark.parametrize("kind", interp.RULE_KINDS)
    @pytest.mark.parametrize("grid,method", [
        (build_sparse_grid(4, 4), "combination"),
        (build_sparse_grid(4, 4), "subsampled"),
        (UniformLattice.unit(4, 5), "combination"),
    ], ids=["combination", "subsampled", "lattice"])
    def test_matches_W_route(self, kind, grid, method):
        rng = np.random.default_rng(83)
        X = rng.uniform(-0.1, 1.1, (300, 4))
        X[:50] = np.round(X[:50] * 8) / 8  # on lattice lines, with ties
        assert_matches_W_route(X, grid, rng.uniform(size=grid.size), kind,
                               method)

    @pytest.mark.parametrize("kind", interp.RULE_KINDS)
    def test_sizes_at_block_edges(self, kind):
        g = build_sparse_grid(4, 6)
        B = interpolator(g, BaseRule(kind)).block_rows()
        rng = np.random.default_rng(89)
        X = rng.uniform(-0.1, 1.1, (B + 1, 6))
        values = rng.uniform(size=g.size)
        for n in (0, 1, B - 1, B, B + 1):
            assert_matches_W_route(X[:n], g, values, kind)

    def test_high_dimension_subsampled(self):
        # d=15, l=3: at most 3 multi-point axes per component grid
        g = build_sparse_grid(3, 15)
        X = np.random.default_rng(97).uniform(0, 1, (100, 15))
        values = np.random.default_rng(98).uniform(size=g.size)
        for kind in ("simplicial", "linear"):
            assert_matches_W_route(X, g, values, kind, "subsampled")

    @pytest.mark.parametrize("kind", interp.RULE_KINDS)
    @pytest.mark.parametrize("method", ["combination", "subsampled"])
    def test_matches_direct_evaluation(self, kind, method):
        g = build_sparse_grid(3, 3)
        f = lambda P: np.cos(P.sum(axis=1)) + 0.3 * P[:, 0] * P[:, 1]
        X = np.random.default_rng(101).uniform(0, 1, (80, 3))
        got = interpolate(X, g, f(g.points()), BaseRule(kind), method)
        direct = interpolate_direct(f, X, 3, 3, BaseRule(kind), method=method)
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-10)

    def test_validation_matches_assemble_W(self):
        g = build_sparse_grid(2, 2)
        values = np.ones(g.size)
        for X in (np.zeros((3, 3)), np.array([[np.nan, 0.5]]),
                  np.array([[0.5, np.inf]]), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError) as want:
                assemble_W(X, g)
            with pytest.raises(ValueError) as got:
                interpolate(X, g, values)
            assert str(got.value) == str(want.value)
        X = np.full((3, 2), 0.5)
        for bad in (values[:-1], np.ones(g.size + 1)):
            with pytest.raises(ValueError):
                assemble_W(X, g).apply(bad)
            with pytest.raises(ValueError, match="values has shape"):
                interpolate(X, g, bad)
        with pytest.raises(ValueError, match="values has shape"):
            interpolate(X, g, np.ones((g.size, 1)))  # one vector of values
        with pytest.raises(TypeError):
            interpolate(X, "grid", values)


def assert_matches_csr(W, rng):
    """apply and apply_transpose on 1-D, one-column and 5-column inputs,
    bit-identical to scipy's CSR products with W.matrix and its transpose."""
    n, m = W.shape
    for tail in ((), (1,), (5,)):
        v = rng.standard_normal((m,) + tail)
        np.testing.assert_array_equal(W.apply(v), W.matrix @ v, strict=True)
        u = rng.standard_normal((n,) + tail)
        np.testing.assert_array_equal(W.apply_transpose(u), W.matrix.T @ u,
                                      strict=True)


class TestWeightMatrixApply:
    def test_matches_csr(self):
        rng = np.random.default_rng(61)
        W = assemble_W(rng.uniform(0, 1, (700, 6)), build_sparse_grid(4, 6))
        assert_matches_csr(W, rng)

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_rows_and_one_row(self, n):
        rng = np.random.default_rng(71)
        W = assemble_W(rng.uniform(0, 1, (n, 3)), build_sparse_grid(3, 3))
        assert_matches_csr(W, rng)

    def test_other_dtypes_strides_and_shapes(self):
        rng = np.random.default_rng(73)
        W = assemble_W(rng.uniform(0, 1, (40, 3)), build_sparse_grid(3, 3))
        v = rng.standard_normal(W.shape[1])
        u = rng.standard_normal(W.shape[0])
        for w in (v.astype(np.float32), v.tolist(), v[::-1]):
            np.testing.assert_array_equal(W.apply(w), W.matrix @ w)
        for w in (u.astype(np.float32), u.tolist(), u[::-1]):
            np.testing.assert_array_equal(W.apply_transpose(w), W.matrix.T @ w)
        with pytest.raises(ValueError):
            W.apply(v[:-1])
        with pytest.raises(ValueError):
            W.apply_transpose(u[:-1])

    def test_concurrent_callers(self):
        # more calling threads than cores share one W; no call may see
        # another's output
        rng = np.random.default_rng(89)
        W = assemble_W(rng.uniform(0, 1, (300, 4)), build_sparse_grid(4, 4))
        v = rng.standard_normal((W.shape[1], 2))
        u = rng.standard_normal(W.shape[0])
        want_v, want_u = W.matrix @ v, W.apply_transpose(u)
        failures = []

        def call():
            try:
                for _ in range(30):
                    if not (np.array_equal(W.apply(v), want_v) and
                            np.array_equal(W.apply_transpose(u), want_u)):
                        failures.append("wrong result")
            except Exception as exc:
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestConvergence:
    def test_sparse_simplicial_error_decreases(self):
        # RMS interpolation error of a smooth function must fall with
        # resolution (qualitative convergence check at moderate dim)
        rng = np.random.default_rng(43)
        d = 3
        f = lambda P: np.cos(np.abs(P).sum(axis=1))
        X = rng.uniform(0, 1, (100, d))
        errs = []
        for ell in range(1, 5):
            g = build_sparse_grid(ell, d)
            W = assemble_W(X, g)
            rms = float(np.sqrt(np.mean((W.apply(f(g.points())) - f(X)) ** 2)))
            errs.append(rms)
        assert all(b < a for a, b in zip(errs, errs[1:]))


# ---- hierarchical-surplus interpolation ---------------------------------


def hier(X, grid, values):
    return interpolate(X, grid, values, method="hierarchical")


def reference_surplus_matrix(grid):
    """H by its definition, with a dict from coordinates to grid index:
    along each axis a point's surplus is its value less the mean of its
    neighbours at distance 2^-(l+1) that lie inside (0, 1)."""
    P = grid.points()
    index = {tuple(p): i for i, p in enumerate(P)}
    H = scipy.sparse.identity(grid.size, format="csr")
    for j in range(grid.dim):
        rows, cols, vals = list(range(grid.size)), list(range(grid.size)), \
            [1.0] * grid.size
        for i, (p, lev) in enumerate(zip(P, grid.levels)):
            step = 2.0 ** -(lev[j] + 1)
            near = []
            for side in (-step, step):
                q = p.copy()
                q[j] += side
                if 0 < q[j] < 1:
                    near.append(index[tuple(q)])
            rows += [i] * len(near)
            cols += near
            vals += [-1.0 / len(near) for _ in near]
        H = scipy.sparse.csr_matrix((vals, (rows, cols)),
                                    shape=H.shape) @ H
    return H


def exact_hierarchical(f, x, grid):
    """The hierarchical interpolant of f at one point x, in exact rational
    arithmetic: surpluses of f's grid values summed against every clamped
    hat of the grid, each hat by its definition."""
    from fractions import Fraction

    H = reference_surplus_matrix(grid).tocsr()
    values = [Fraction(float(v)) for v in f(grid.points())]
    total = Fraction(0)
    for p in range(grid.size):
        alpha = sum(Fraction(float(h)) * values[c] for h, c in
                    zip(H.data[H.indptr[p]:H.indptr[p + 1]],
                        H.indices[H.indptr[p]:H.indptr[p + 1]]))
        phi = Fraction(1)
        for lev, pos, xj in zip(grid.levels[p], grid.positions[p], x):
            t = Fraction(float(xj)) * 2 ** (int(lev) + 1) - int(pos)
            if (pos == 1 and t < 0) or (pos == 2 ** (lev + 1) - 1 and t > 0):
                continue  # the end hats stay at 1 out to the faces
            phi *= max(Fraction(0), 1 - abs(t))
        total += alpha * phi
    return total


class TestHierarchical:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_phi_of_the_grid_is_inverse_of_H(self, d):
        g = build_sparse_grid(4 if d <= 5 else 3, d)
        W = assemble_W(g.points(), g, method="hierarchical")
        err = abs(W.matrix - scipy.sparse.identity(g.size)).max()
        assert err <= 1e-14

    @pytest.mark.parametrize("ell,d", [(0, 1), (3, 1), (4, 2), (3, 3), (2, 3)])
    def test_H_matches_the_dict_built_reference(self, ell, d):
        g = build_sparse_grid(ell, d)
        H = interpolator(g, method="hierarchical").H
        assert abs(H - reference_surplus_matrix(g)).max() == 0

    def test_rows_hold_one_hat_per_subspace(self):
        # C(l + d, d) entries, columns ascending, no merge; the rule is
        # not consulted
        g = build_sparse_grid(4, 6)
        X = np.random.default_rng(103).uniform(-0.2, 1.2, (300, 6))
        W = assemble_W(X, g, method="hierarchical")
        assert W.tables.n_grids == math.comb(4 + 6, 6) == 210
        assert W.nnz == 300 * 210 and W.max_row_nnz == W.density_bound == 210
        assert (np.diff(W.phi.indices.reshape(-1, 210), axis=1) > 0).all()
        cubic = assemble_W(X, g, BaseRule("cubic"), method="hierarchical")
        np.testing.assert_array_equal(cubic.matrix.toarray(),
                                      W.matrix.toarray())
        H = W.tables.H
        assert H.nnz / g.size == pytest.approx(8.12, abs=0.01)

    def test_every_rule_shares_one_table(self):
        # hierarchical has no rule, so one build of its tables serves all
        g = build_sparse_grid(4, 6)
        assert interpolator(g, "cubic", "hierarchical") is \
            interpolator(g, "simplicial", "hierarchical")

    def test_density_error_and_repr_name_the_method(self):
        # the rule is not consulted, so neither message names it
        tables = interpolator(build_sparse_grid(2, 2), BaseRule("cubic"),
                              method="hierarchical")
        W = tables.weights(np.full((1, 2), 0.3))
        assert repr(W) == "WeightMatrix(1x17, method=hierarchical, nnz=6)"
        dense_row = scipy.sparse.csr_matrix(np.ones((1, 17)))
        with pytest.raises(RuntimeError, match="17 entries; method=hierarchical "
                                               "over 6 grids allows at most 6"):
            WeightMatrix(dense_row, tables)

    @pytest.mark.parametrize("ell,d", [(0, 2), (3, 1), (4, 4), (4, 6), (3, 8)])
    def test_constants_reproduced(self, ell, d):
        g = build_sparse_grid(ell, d)
        X = np.random.default_rng(107).uniform(-0.5, 1.5, (200, d))
        np.testing.assert_allclose(hier(X, g, np.full(g.size, 2.5)), 2.5,
                                   rtol=0, atol=1e-14)

    def test_constant_beyond_the_outermost_nodes(self):
        # every hat is flat beyond the outermost nodes, 2^-(l+1) from the
        # faces, so points outside the hull take the value at its edge
        ell, d = 4, 3
        g = build_sparse_grid(ell, d)
        values = np.random.default_rng(109).standard_normal(g.size)
        X = np.random.default_rng(113).uniform(-1.0, 2.0, (300, d))
        edge = 2.0 ** -(ell + 1)
        np.testing.assert_allclose(hier(X, g, values),
                                   hier(np.clip(X, edge, 1 - edge), g, values),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_points_and_one_point(self, n):
        g = build_sparse_grid(3, 3)
        X = np.full((n, 3), 0.3)
        W = assemble_W(X, g, method="hierarchical")
        assert W.shape == (n, g.size) and W.nnz == 20 * n
        values = np.arange(g.size, dtype=float)
        assert W.apply(values).shape == hier(X, g, values).shape == (n,)
        assert W.apply_transpose(np.ones(n)).shape == (g.size,)
        f = lambda P: np.cos(P.sum(axis=1))
        np.testing.assert_allclose(
            hier(X, g, f(g.points())),
            interpolate_direct(f, X, 3, 3, method="hierarchical"),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ell,d", [(4, 2), (4, 4), (4, 6), (3, 8)])
    def test_interpolate_matches_W_route(self, ell, d):
        g = build_sparse_grid(ell, d)
        rng = np.random.default_rng(127)
        X = rng.uniform(-0.1, 1.1, (300, d))
        X[:50] = np.round(X[:50] * 8) / 8  # on hat peaks and edges
        values = rng.uniform(size=g.size)
        W = assemble_W(X, g, method="hierarchical")
        np.testing.assert_allclose(hier(X, g, values), W.apply(values),
                                   rtol=0, atol=1e-12)

    def test_block_edges_match_one_row_calls(self):
        g = build_sparse_grid(4, 6)
        B = interpolator(g, method="hierarchical").block_rows()
        X = np.random.default_rng(131).uniform(-0.1, 1.1, (B + 1, 6))
        rows = [assemble_W(X[i : i + 1], g, method="hierarchical").matrix
                for i in range(B + 1)]
        for n in (B - 1, B, B + 1):
            got = assemble_W(X[:n], g, method="hierarchical").matrix
            want = scipy.sparse.vstack(rows[:n], format="csr")
            np.testing.assert_array_equal(got.toarray(), want.toarray())

    def test_adjoint_and_matrix(self):
        rng = np.random.default_rng(137)
        g = build_sparse_grid(4, 3)
        W = assemble_W(rng.uniform(0, 1, (60, 3)), g, method="hierarchical")
        u, v = rng.standard_normal(60), rng.standard_normal((g.size, 2))
        np.testing.assert_allclose(W.apply(v), W.matrix @ v, atol=1e-13)
        np.testing.assert_allclose(W.apply_transpose(u), W.matrix.T @ u,
                                   atol=1e-13)
        assert W.apply(v[:, 0]) @ u == pytest.approx(
            v[:, 0] @ W.apply_transpose(u), abs=1e-12)

    @pytest.mark.parametrize("ell,d", [(4, 1), (5, 2), (4, 3), (4, 4), (4, 6)])
    def test_matches_the_nested_lattice_oracle(self, ell, d):
        g = build_sparse_grid(ell, d)
        f = lambda P: np.cos(P.sum(axis=1)) + 0.3 * P[:, 0] * P[:, -1]
        X = np.random.default_rng(139).uniform(-0.3, 1.3, (200, d))
        X[:20] = np.round(X[:20] * 16) / 16
        np.testing.assert_allclose(
            hier(X, g, f(g.points())),
            interpolate_direct(f, X, ell, d, method="hierarchical"),
            rtol=0, atol=1e-12)

    def test_oracle_calls_f_once_on_distinct_grid_points(self):
        calls = []

        def f(P):
            calls.append(P.copy())
            return np.cos(P.sum(axis=1))

        g = build_sparse_grid(3, 3)
        X = np.random.default_rng(149).uniform(-0.2, 1.2, (20, 3))
        interpolate_direct(f, X, 3, 3, method="hierarchical")
        assert len(calls) == 1
        assert len(np.unique(calls[0], axis=0)) == len(calls[0])
        on_grid = {tuple(p) for p in g.points()}
        assert all(tuple(p) in on_grid for p in calls[0])

    def test_oracle_rejects_keys_wider_than_int64(self):
        with pytest.raises(ValueError, match="bits"):
            interpolate_direct(lambda P: P[:, 0], np.zeros((1, 16)), 3, 16,
                               method="hierarchical")

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18,
        reason="np.longdouble is no wider than float64 here, so the oracle "
               "keeps float64 roundoff (about 6e-14 at d = 6)")
    @pytest.mark.parametrize("ell,d", [(3, 2), (4, 2), (3, 3)])
    def test_oracle_within_1e_16_of_exact_arithmetic(self, ell, d):
        g = build_sparse_grid(ell, d)
        f = lambda P: 0.5 * np.cos(3 * P.sum(axis=1)) - 0.2 * P[:, 0]
        X = np.random.default_rng(151).uniform(-0.1, 1.1, (4, d))
        got = interpolate_direct(f, X, ell, d, method="hierarchical")
        for x, value in zip(X, got):
            assert abs(value - float(exact_hierarchical(f, x, g))) <= 1e-16
