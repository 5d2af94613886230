"""Grid construction, sizes, canonical block layout, and injection algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skigrid import grids
from skigrid.grids import (
    GridCapExceeded,
    SparseGrid,
    block_layout,
    build_sparse_grid,
    canonical_to_sorted_1d,
    omega_ranks_in_sorted_1d,
    rect_injection,
    sparse_grid_size,
    sparse_injection,
)
from skigrid.interp import UniformLattice


def omega_1d(l):
    """Coordinates of Omega_l, the 2**l cell centers at resolution l."""
    return UniformLattice.from_levels((l,)).coords_1d(0)


def brute_force_point_set(resolution, dim):
    """Independent oracle: enumerate the union definition directly.

    Walks every resolution vector with ||l||_1 <= resolution and collects
    (level, position) tuples per point into a set.
    """
    pts = set()

    def rec(prefix, budget):
        if len(prefix) == dim:
            for combo in np.ndindex(*(2**l for l in prefix)):
                pts.add(tuple((l, 2 * c + 1) for l, c in zip(prefix, combo)))
            return
        for l in range(budget + 1):
            rec(prefix + (l,), budget - l)

    rec((), resolution)
    return pts


class TestSizes:
    def test_known_values(self):
        assert sparse_grid_size(2, 2) == 17
        assert sparse_grid_size(4, 2) == 129
        assert sparse_grid_size(4, 6) == 2561
        assert sparse_grid_size(4, 8) == 6401
        assert sparse_grid_size(4, 10) == 13441
        assert sparse_grid_size(2, 1) == 7

    def test_discrepant_quoted_size_not_adopted(self):
        # A circulated table gives 796 for (4, 4); closed form and enumeration
        # both give 769, and the package must not silently adopt the former.
        assert sparse_grid_size(4, 4) == 769
        assert sparse_grid_size(4, 4) != 796
        assert len(brute_force_point_set(4, 4)) == 769

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("resolution", [0, 1, 2, 3, 4])
    def test_closed_form_equals_enumeration(self, resolution, dim):
        grid = build_sparse_grid(resolution, dim)
        oracle = brute_force_point_set(resolution, dim)
        assert grid.size == len(oracle)
        enumerated = {
            tuple(zip(l, p)) for l, p in zip(grid.levels, grid.positions)
        }
        assert enumerated == oracle

    def test_recursion_consistency(self):
        for d in range(2, 6):
            for ell in range(0, 7):
                total = sum(
                    2**i * sparse_grid_size(ell - i, d - 1) for i in range(ell + 1)
                )
                assert total == sparse_grid_size(ell, d)

    def test_one_dim_size_is_exact(self):
        for ell in range(8):
            assert sparse_grid_size(ell, 1) == 2 ** (ell + 1) - 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sparse_grid_size(-1, 2)
        with pytest.raises(ValueError):
            sparse_grid_size(2, 0)


class TestRectGrid1d:
    def test_examples(self):
        assert omega_1d(0).tolist() == [0.5]
        assert omega_1d(1).tolist() == [0.25, 0.75]
        assert omega_1d(2).tolist() == [0.125, 0.375, 0.625, 0.875]

    @given(st.integers(min_value=0, max_value=10))
    def test_length_and_order(self, l):
        g = omega_1d(l)
        assert len(g) == 2**l
        assert np.all(np.diff(g) > 0)
        assert g[0] > 0 and g[-1] < 1

    def test_distinct_level_disjointness(self):
        sets = [set((2 * np.arange(2**l) + 1) * 2 ** (6 - l)) for l in range(7)]
        for a in range(7):
            for b in range(a + 1, 7):
                assert not (sets[a] & sets[b])


class TestCanonicalOrder:
    def test_one_dim_completeness(self):
        for ell in range(7):
            g = build_sparse_grid(ell, 1)
            coords = np.sort(g.points()[:, 0])
            expected = np.arange(1, 2 ** (ell + 1)) / 2 ** (ell + 1)
            np.testing.assert_array_equal(coords, expected)

    def test_one_dim_prefix_property(self):
        big = build_sparse_grid(5, 1)
        small = build_sparse_grid(3, 1)
        np.testing.assert_array_equal(
            small.points(), big.points()[: small.size]
        )

    @pytest.mark.parametrize("resolution,dim", [(3, 1), (3, 2), (2, 3), (4, 3)])
    def test_block_structure(self, resolution, dim):
        g = build_sparse_grid(resolution, dim)
        layout = block_layout(resolution, dim)
        assert not any(a.flags.writeable for a in layout)
        offsets, sizes, child_sizes = layout
        np.testing.assert_array_equal(offsets, np.cumsum(sizes) - sizes)
        assert offsets[-1] + sizes[-1] == g.size
        for i in range(resolution + 1):
            off, sz = offsets[i], sizes[i]
            assert sz == 2**i * child_sizes[i]
            lev = g.levels[off : off + sz]
            pos = g.positions[off : off + sz]
            assert np.all(lev[:, 0] == i)
            # outer index: Omega_i ascending, each repeated child-size times
            expect_outer = np.repeat(2 * np.arange(2**i) + 1, child_sizes[i])
            np.testing.assert_array_equal(pos[:, 0], expect_outer)
            if dim == 1:
                assert child_sizes[i] == 1
                continue
            # inner index: child canonical order, tiled
            child = build_sparse_grid(resolution - i, dim - 1)
            assert child_sizes[i] == child.size
            np.testing.assert_array_equal(
                lev[:, 1:], np.tile(child.levels, (2**i, 1))
            )
            np.testing.assert_array_equal(
                pos[:, 1:], np.tile(child.positions, (2**i, 1))
            )

    def test_points_are_distinct(self):
        g = build_sparse_grid(4, 3)
        assert len({tuple(r) for r in g.points()}) == g.size


def assert_injection(idx, small, big):
    """idx maps small's points onto the same (level, position) rows of big,
    one to one."""
    assert len(np.unique(idx)) == len(idx)
    np.testing.assert_array_equal(big.levels[idx], small.levels)
    np.testing.assert_array_equal(big.positions[idx], small.positions)


class TestNesting:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_subset_for_all_resolutions(self, dim):
        top = 6 if dim <= 3 else 5
        big = build_sparse_grid(top, dim)
        for ell in range(top + 1):
            small = build_sparse_grid(ell, dim)
            idx = sparse_injection(ell, top, dim)
            assert_injection(idx, small, big)
            np.testing.assert_allclose(big.points()[idx], small.points())


class TestSortedRank1d:
    def test_examples(self):
        # canonical 1-d index of (level l, position i) is 2**l - 1 + (i - 1)//2
        assert canonical_to_sorted_1d(2)[0] == 3  # (0, 1) is 4/8
        assert canonical_to_sorted_1d(2)[3] == 0  # (2, 1) is 1/8
        assert canonical_to_sorted_1d(3)[2] == 11  # (1, 3) is 12/16

    @pytest.mark.parametrize("ell", range(7))
    def test_matches_argsort(self, ell):
        g = build_sparse_grid(ell, 1)
        coords = g.points()[:, 0]
        ranks = canonical_to_sorted_1d(ell)
        np.testing.assert_array_equal(np.argsort(ranks), np.argsort(coords))
        assert sorted(ranks) == list(range(g.size))

    @pytest.mark.parametrize("ell", range(6))
    def test_canonical_to_sorted_table(self, ell):
        g = build_sparse_grid(ell, 1)
        ranks = canonical_to_sorted_1d(ell)
        out = np.empty(g.size)
        out[ranks] = g.points()[:, 0]
        assert np.all(np.diff(out) > 0)

    def test_omega_ranks(self):
        for j in range(6):
            for i in range(j + 1):
                big = np.arange(1, 2 ** (j + 1)) / 2 ** (j + 1)
                got = big[omega_ranks_in_sorted_1d(i, j)]
                np.testing.assert_array_equal(got, omega_1d(i))


class TestSelectionMaps:
    def test_example_5_into_17(self):
        idx = sparse_injection(1, 2, 2)
        assert len(idx) == 5 and idx.max() < 17
        assert len(set(idx.tolist())) == 5

    def test_identity(self):
        np.testing.assert_array_equal(sparse_injection(2, 2, 2), np.arange(17))

    def test_omega0_into_g21(self):
        idx = rect_injection((0,), 2)
        big = build_sparse_grid(2, 1).points()[:, 0]
        assert big[idx[0]] == 0.5

    def test_select_then_embed_identity(self):
        rng = np.random.default_rng(1)
        idx = sparse_injection(2, 4, 3)
        u = rng.standard_normal(len(idx))
        v = np.zeros(sparse_grid_size(4, 3))
        v[idx] = u
        np.testing.assert_array_equal(v[idx], u)
        assert np.count_nonzero(v) == len(idx)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_recursive_injection_matches_key_matching(self, dim):
        # sparse_injection is closed-form recursion; it must send each point
        # to the big-grid row with the same (level, position) key.
        for ell_small in range(0, 5):
            for ell_big in range(ell_small, 5):
                small = build_sparse_grid(ell_small, dim)
                big = build_sparse_grid(ell_big, dim)
                assert_injection(sparse_injection(ell_small, ell_big, dim),
                                 small, big)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_rect_injection_matches_key_matching(self, levels, slack):
        ell = sum(levels) + slack
        big = build_sparse_grid(ell, len(levels))
        idx = rect_injection(tuple(levels), ell)
        # Omega_levels row-major: odd positions per axis, dimension 0 slowest
        axes = [range(1, 2 ** (l + 1), 2) for l in levels]
        pos = np.array(list(itertools.product(*axes)), dtype=np.int64)
        lev = np.broadcast_to(np.array(levels, dtype=np.int64), pos.shape)
        assert len(np.unique(idx)) == len(idx)
        np.testing.assert_array_equal(big.levels[idx], lev)
        np.testing.assert_array_equal(big.positions[idx], pos)

    def test_coordinate_agreement(self):
        small = build_sparse_grid(2, 3)
        big = build_sparse_grid(4, 3)
        idx = sparse_injection(2, 4, 3)
        np.testing.assert_allclose(big.points()[idx], small.points())

    def test_not_a_subset_raises(self):
        with pytest.raises(ValueError):
            sparse_injection(3, 2, 2)
        with pytest.raises(ValueError):
            rect_injection((3,), 2)
        with pytest.raises(ValueError):
            rect_injection((2, 1), 2)


class TestCaps:
    def test_cap_raises_before_allocation(self):
        with pytest.raises(GridCapExceeded):
            build_sparse_grid(20, 6, size_cap=10**4)
        with pytest.raises(GridCapExceeded):
            SparseGrid(20, 6, size_cap=10**4)


def test_dump_points_csv(tmp_path):
    g = build_sparse_grid(2, 2)
    path = tmp_path / "pts.csv"
    grids.dump_points_csv(g, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == g.size + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[-1]) == 0.5 and float(first[-2]) == 0.5
