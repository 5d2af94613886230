"""Interpolation rules: hand-traced cells, partition of unity, exactness."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skigrid.grids import build_sparse_grid
from skigrid.interp import (
    BaseRule,
    UniformLattice,
    WeightRow,
    assemble_W,
    combination_components,
    combination_weights,
    interpolate_direct,
    rule_density,
    simplicial_weights_rect,
    subsampled_components,
    subsampled_weights,
    tensor_weights_rect,
)


def lattice_interp(row, lat, f):
    """Evaluate a local-index WeightRow against function values on a lattice."""
    return row.weights @ f(lat.points()[row.indices])


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


class TestWeightRow:
    def test_merges_duplicates(self):
        row = WeightRow([3, 1, 3], [0.5, 0.2, 0.3])
        assert row.entries == [(1, 0.2), (3, 0.8)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            WeightRow([1, 2], [0.5])


class TestSimplicialRect:
    def test_hand_traced_cell(self):
        # x=(0.30, 0.35) on the 2x2 lattice: local coords (0.1, 0.2),
        # dimension 2 steps first, weights (0.8, 0.1, 0.1)
        row = simplicial_weights_rect([0.30, 0.35], (1, 1))
        lat = UniformLattice.from_levels((1, 1))
        got = {tuple(lat.points()[i]): w for i, w in row.entries}
        want = {(0.25, 0.25): 0.8, (0.25, 0.75): 0.1, (0.75, 0.75): 0.1}
        assert set(got) == set(want)
        for corner, w in want.items():
            assert got[corner] == pytest.approx(w, abs=1e-12)

    def test_on_lattice_point(self):
        row = simplicial_weights_rect([0.25, 0.75], (1, 1))
        assert len(row) == 3  # d+1 entries, the extras weightless
        nz = {i: w for i, w in row.entries if w != 0}
        lat = UniformLattice.from_levels((1, 1))
        ((idx, w),) = nz.items()
        assert w == pytest.approx(1.0)
        np.testing.assert_allclose(lat.points()[idx], [0.25, 0.75])

    def test_simplex_centroid(self):
        centroid = np.mean([[0.25, 0.25], [0.25, 0.75], [0.75, 0.75]], axis=0)
        row = simplicial_weights_rect(centroid, (1, 1))
        np.testing.assert_allclose(np.sort(row.weights), np.full(3, 1 / 3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_partition_of_unity_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        levels = tuple(int(l) for l in rng.integers(0, 4, d))
        x = rng.uniform(-0.2, 1.2, d)  # also exercises out-of-hull clamping
        row = simplicial_weights_rect(x, levels)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert (row.weights >= -1e-15).all()
        assert len(row) <= d + 1

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
                row = simplicial_weights_rect(x, levels)
                assert lattice_interp(row, lat, f) == pytest.approx(
                    float(x @ a + 0.7), abs=1e-12
                )

    def test_level_zero_dimension_collapses(self):
        # a single-point dimension carries all weight on its lone coordinate
        row = simplicial_weights_rect([0.9, 0.3], (0, 2))
        lat = UniformLattice.from_levels((0, 2))
        assert row.sum() == pytest.approx(1.0)
        assert len(row) <= 2  # duplicates in the constant dim merged
        assert all(lat.points()[i][0] == 0.5 for i in row.indices)

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
        at = lattice_interp(simplicial_weights_rect(x, (2, 2)), lat, f)
        for dx in ([eps, 0.0], [0.0, eps], [-eps, 0.0], [0.0, -eps]):
            near = lattice_interp(
                simplicial_weights_rect(x + dx, (2, 2)), lat, f
            )
            assert abs(near - at) < 1e-6


class TestTensorRect:
    def test_linear_midpoint(self):
        row = tensor_weights_rect([0.5], (1,), "linear")
        assert row.entries == [(0, 0.5), (1, 0.5)]

    def test_linear_on_lattice_point(self):
        row = tensor_weights_rect([0.25, 0.25], (1, 1), "linear")
        nz = [(i, w) for i, w in row.entries if w != 0]
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
            row = tensor_weights_rect(x, levels, "linear")
            assert lattice_interp(row, lat, f) == pytest.approx(
                float(x @ a - 0.3), abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linear_pou_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        levels = tuple(int(l) for l in rng.integers(0, 4, d))
        row = tensor_weights_rect(rng.uniform(-0.1, 1.1, d), levels, "linear")
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert (row.weights >= -1e-15).all()
        assert len(row) <= 2**d

    def test_cubic_cardinal_property(self):
        # on a lattice point the Keys kernel hits 1 there, 0 on neighbors
        lat = UniformLattice.from_levels((2,))
        for t in range(4):
            row = tensor_weights_rect([lat.coords_1d(0)[t]], (2,), "cubic")
            w = np.zeros(lat.size)
            w[row.indices] = row.weights
            want = np.zeros(lat.size)
            want[t] = 1.0
            np.testing.assert_allclose(w, want, atol=1e-12)

    def test_cubic_pou_and_density(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0, 1, 2)
            row = tensor_weights_rect(x, (3, 2), "cubic")
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert len(row) <= 16

    def test_cubic_reproduces_quadratics_in_interior(self):
        # Keys a=-1/2 is exact on quadratics away from the boundary stencil
        levels = (3,)
        lat = UniformLattice.from_levels(levels)
        f = lambda P: 2.0 * P[:, 0] ** 2 - P[:, 0] + 0.1
        rng = np.random.default_rng(9)
        lo = lat.offsets[0] + lat.spacings[0]  # one full cell off each end
        hi = lat.offsets[0] + 6 * lat.spacings[0]
        for x in rng.uniform(lo, hi, 25):
            row = tensor_weights_rect([x], levels, "cubic")
            got = lattice_interp(row, lat, f)
            assert got == pytest.approx(2 * x**2 - x + 0.1, abs=1e-12)

    def test_cubic_falls_back_to_linear_when_short(self):
        # 2-point dimension cannot support a 4-point stencil
        row = tensor_weights_rect([0.4], (1,), "cubic")
        want = tensor_weights_rect([0.4], (1,), "linear")
        assert row.entries == want.entries

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            tensor_weights_rect([0.5], (1,), "quintic")


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
        row = combination_weights(x, 3, 1)
        base = simplicial_weights_rect(x, (3,))
        grid = build_sparse_grid(3, 1)
        lat = UniformLattice.from_levels((3,))
        got = {tuple(grid.points()[i]): w for i, w in row.entries}
        want = {tuple(lat.points()[i]): w for i, w in base.entries}
        assert got == want

    def test_constant_function_reproduced(self):
        g = build_sparse_grid(2, 2)
        row = combination_weights([0.4, 0.9], 2, 2)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_partition_of_unity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        ell = int(rng.integers(0, 7 - d if d > 3 else 5))
        kind = ("simplicial", "linear")[int(rng.integers(0, 2))]
        x = rng.uniform(0, 1, d)
        row = combination_weights(x, ell, d, BaseRule(kind))
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_row_density_bound(self):
        d, ell = 3, 4
        bound = (d + 1) * sum(
            math.comb(ell - q + d - 1, d - 1) for q in range(d) if ell - q >= 0
        )
        rng = np.random.default_rng(13)
        for _ in range(10):
            row = combination_weights(rng.uniform(0, 1, d), ell, d)
            assert len(row) <= bound

    def test_shells_below_zero_skipped(self):
        # ell < d-1 still works, with the missing shells dropped
        row = combination_weights([0.5, 0.5, 0.5], 1, 3)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


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
            row = subsampled_weights(rng.uniform(0, 1, d), 3, d)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert (row.weights >= -1e-15).all()


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
        for i, x in enumerate(X):
            row = W.row(i)
            want = interpolate_direct(f, x[None, :], 3, 2)[0]
            assert row.weights @ samples[row.indices] == pytest.approx(
                want, abs=1e-12)

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
            assert W.method == "rect"

    def test_density_bound_holds(self):
        rng = np.random.default_rng(37)
        X = rng.uniform(0, 1, (200, 6))
        g = build_sparse_grid(4, 6)
        W = assemble_W(X, g)
        assert W.max_row_nnz <= W.density_bound
        assert W.n_grids == len(combination_components(4, 6))

    def test_triplet_csv(self, tmp_path):
        rng = np.random.default_rng(41)
        X = rng.uniform(0, 1, (8, 2))
        W = assemble_W(X, build_sparse_grid(2, 2))
        path = tmp_path / "w.csv"
        W.dump_triplets_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,grid_index,weight"
        assert len(lines) == W.nnz + 1
        r, c, v = lines[1].split(",")
        got = W.matrix[int(r), int(c)]
        assert float(v) == pytest.approx(got, rel=1e-15)

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
