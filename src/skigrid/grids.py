"""Dyadic rectilinear grids, sparse grids, and their index algebra.

The 1-d building block at resolution ``l`` is the set of cell centers

    Omega_l = { i / 2**(l+1) : 1 <= i <= 2**(l+1), i odd },   |Omega_l| = 2**l.

A d-dimensional rectilinear grid Omega_l (``l`` now a vector) is the tensor
product of per-dimension center sets, and the sparse grid G(ell, d) is the
union of all Omega_l with ||l||_1 <= ell.  Points are named exactly by
integer (level, position) pairs per dimension; floating-point coordinates
are reconstructed on demand.  Index maps between grids (sparse_injection,
rect_injection) are integer arithmetic on the canonical order below, never
a search.

Canonical point order (fixed once, everything downstream relies on it):

    G(ell, d) = concat over i = 0..ell of the block  Omega_i (x) G(ell-i, d-1),
    each block row-major (Omega_i ascending by coordinate outer, the
    (d-1)-dimensional subgrid in canonical order inner); for d = 1 the order
    is the concatenation Omega_0, Omega_1, ..., Omega_ell, each ascending.

A convenient consequence: the canonical 1-d index of the point (l, i) is
2**l - 1 + (i - 1)//2 independent of ell, so G(ell', 1) is a literal prefix
of G(ell, 1) for ell' <= ell.
"""

import csv
import math
from functools import lru_cache

import numpy as np

DEFAULT_SIZE_CAP = 10**8

# Size table cross-check: one circulated figure for (resolution=4, dim=4) is 796;
# the closed form and direct enumeration both give 769.  Kept visible here so the
# discrepancy is flagged rather than silently adopted.
KNOWN_SIZE_DISCREPANCY = {"resolution": 4, "dim": 4, "quoted": 796, "computed": 769}


class GridCapExceeded(RuntimeError):
    """Requested grid would exceed the configured point cap."""


def rect_grid_1d(l):
    """Coordinates of the 2**l cell centers at resolution l, ascending."""
    if l < 0:
        raise ValueError(f"resolution must be >= 0, got {l}")
    i = 2 * np.arange(2**l, dtype=np.int64) + 1
    return i.astype(np.float64) / 2.0 ** (l + 1)


@lru_cache(maxsize=None)
def sparse_grid_size(resolution, dim):
    """Exact number of points in G(resolution, dim).

    Closed form: sum over s = 0..resolution of C(s + dim - 1, dim - 1) * 2**s
    (number of resolution vectors with ||l||_1 = s times the 2**s points each
    such rectilinear grid contributes; distinct-level grids are disjoint).
    Computed in exact integer arithmetic, so it never overflows silently.
    """
    if resolution < 0 or dim < 1:
        raise ValueError(f"need resolution >= 0 and dim >= 1, got ({resolution}, {dim})")
    return sum(math.comb(s + dim - 1, dim - 1) * 2**s for s in range(resolution + 1))


@lru_cache(maxsize=None)
def _enumerate(resolution, dim):
    """(levels, positions) int64 arrays of shape (N, dim) in canonical order."""
    if dim == 1:
        levels = np.concatenate(
            [np.full(2**i, i, dtype=np.int64) for i in range(resolution + 1)]
        )
        positions = np.concatenate(
            [2 * np.arange(2**i, dtype=np.int64) + 1 for i in range(resolution + 1)]
        )
        out = levels[:, None], positions[:, None]
    else:
        lev_parts, pos_parts = [], []
        for i in range(resolution + 1):
            sub_lev, sub_pos = _enumerate(resolution - i, dim - 1)
            n, m = 2**i, sub_lev.shape[0]
            lev = np.empty((n * m, dim), dtype=np.int64)
            pos = np.empty((n * m, dim), dtype=np.int64)
            lev[:, 0] = i
            pos[:, 0] = np.repeat(2 * np.arange(n, dtype=np.int64) + 1, m)
            lev[:, 1:] = np.tile(sub_lev, (n, 1))
            pos[:, 1:] = np.tile(sub_pos, (n, 1))
            lev_parts.append(lev)
            pos_parts.append(pos)
        out = np.concatenate(lev_parts), np.concatenate(pos_parts)
    for a in out:
        a.flags.writeable = False
    return out


class RectGrid:
    """Tensor-product grid Omega_l for a resolution vector l.

    Per-dimension geometry: 2**l_j points, spacing 2**-l_j, first point
    (offset) at 2**-(l_j + 1).  Point order is row-major in the lattice
    indices (dimension 0 slowest).
    """

    def __init__(self, levels):
        self.levels = tuple(int(l) for l in levels)
        if any(l < 0 for l in self.levels):
            raise ValueError(f"negative resolution in {self.levels}")
        self.dim = len(self.levels)
        self.shape = tuple(2**l for l in self.levels)
        self.size = int(np.prod([2**l for l in self.levels], dtype=object))
        self.spacing = tuple(2.0**-l for l in self.levels)
        self.offset = tuple(2.0 ** -(l + 1) for l in self.levels)

    def coords_1d(self, j):
        return rect_grid_1d(self.levels[j])

    def points(self):
        """All points, shape (size, dim), row-major lattice order."""
        axes = [self.coords_1d(j) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def index_pairs(self):
        """(levels, positions) arrays of shape (size, dim) matching points()."""
        axes = [2 * np.arange(2**l, dtype=np.int64) + 1 for l in self.levels]
        mesh = np.meshgrid(*axes, indexing="ij")
        positions = np.stack([m.ravel() for m in mesh], axis=1)
        levels = np.broadcast_to(
            np.asarray(self.levels, dtype=np.int64), positions.shape
        ).copy()
        return levels, positions

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"RectGrid(levels={self.levels})"


class SparseGrid:
    """Sparse grid G(resolution, dim) in canonical enumeration.

    Immutable after construction.  ``levels`` and ``positions`` are (N, dim)
    read-only int arrays in canonical order; ``blocks`` lists the top-level
    decomposition (i, child subgrid) — child is None when dim == 1.  The
    canonical index of a point of a component grid Omega_l is closed-form:
    see rect_injection.
    """

    def __init__(self, resolution, dim, size_cap=DEFAULT_SIZE_CAP):
        if resolution < 0 or dim < 1:
            raise ValueError(f"need resolution >= 0 and dim >= 1, got ({resolution}, {dim})")
        self.resolution = int(resolution)
        self.dim = int(dim)
        self.size = sparse_grid_size(resolution, dim)
        if size_cap is not None and self.size > size_cap:
            raise GridCapExceeded(
                f"G({resolution},{dim}) has {self.size} points, cap is {size_cap}"
            )
        self.levels, self.positions = _enumerate(resolution, dim)
        if dim == 1:
            sizes = [2**i for i in range(resolution + 1)]
            self.blocks = [(i, None) for i in range(resolution + 1)]
        else:
            sizes = [
                2**i * sparse_grid_size(resolution - i, dim - 1)
                for i in range(resolution + 1)
            ]
            self.blocks = [
                (i, build_sparse_grid(resolution - i, dim - 1, size_cap=None))
                for i in range(resolution + 1)
            ]
        self.block_sizes = tuple(sizes)
        self.block_offsets = tuple(np.concatenate([[0], np.cumsum(sizes)])[:-1])
        assert self.block_offsets[-1] + self.block_sizes[-1] == self.size

    # ---- coordinates ---------------------------------------------------

    def points(self):
        """Float coordinates, shape (size, dim), canonical order."""
        return self.positions / np.exp2(self.levels + 1)

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"SparseGrid(resolution={self.resolution}, dim={self.dim})"


_grid_cache = {}


def build_sparse_grid(resolution, dim, size_cap=DEFAULT_SIZE_CAP):
    """Construct (or fetch the cached, immutable) G(resolution, dim).

    The cap is checked against the closed-form size before any allocation.
    """
    if size_cap is not None and sparse_grid_size(resolution, dim) > size_cap:
        raise GridCapExceeded(
            f"G({resolution},{dim}) has {sparse_grid_size(resolution, dim)} points, "
            f"cap is {size_cap}"
        )
    key = (resolution, dim)
    grid = _grid_cache.get(key)
    if grid is None:
        grid = SparseGrid(resolution, dim, size_cap=None)
        _grid_cache[key] = grid
    return grid


# ---- 1-d rank algebra ---------------------------------------------------


def sorted_rank_1d(ell, level, position):
    """Rank (0-based) of the 1-d point (level, position) in coordinate-sorted
    G(ell, 1).

    The sorted grid is exactly { j / 2**(ell+1) : j = 1..2**(ell+1) - 1 },
    equally spaced, so the point i/2**(level+1) lands at j = i * 2**(ell-level).
    """
    level = np.asarray(level, dtype=np.int64)
    position = np.asarray(position, dtype=np.int64)
    if np.any(level > ell):
        raise ValueError("point is not on G(ell, 1): level exceeds ell")
    return position * (np.int64(1) << (ell - level)) - 1


@lru_cache(maxsize=None)
def canonical_to_sorted_1d(ell):
    """rank[c] = sorted position of the c-th canonical point of G(ell, 1)."""
    parts = [
        (2 * np.arange(2**i, dtype=np.int64) + 1) * 2 ** (ell - i) - 1
        for i in range(ell + 1)
    ]
    r = np.concatenate(parts)
    r.flags.writeable = False
    return r


@lru_cache(maxsize=None)
def omega_ranks_in_sorted_1d(i, j):
    """Sorted-grid ranks of Omega_i inside G(j, 1), for i <= j."""
    if i > j:
        raise ValueError(f"Omega_{i} is not contained in G({j}, 1)")
    r = (2 * np.arange(2**i, dtype=np.int64) + 1) * 2 ** (j - i) - 1
    r.flags.writeable = False
    return r


# ---- injections between canonical enumerations --------------------------


@lru_cache(maxsize=None)
def sparse_injection(ell_small, ell_big, dim):
    """Canonical indices of G(ell_small, dim) inside G(ell_big, dim).

    Block i of the small grid sits inside block i of the big grid with the
    same Omega_i outer factor, so the map recurses on the inner subgrids;
    at dim == 1 the small grid is a literal prefix of the big one.
    """
    if ell_small > ell_big:
        raise ValueError(f"G({ell_small},{dim}) not contained in G({ell_big},{dim})")
    if dim == 1:
        out = np.arange(2 ** (ell_small + 1) - 1, dtype=np.int64)
    else:
        parts = []
        for i in range(ell_small + 1):
            inner = sparse_injection(ell_small - i, ell_big - i, dim - 1)
            m_big = sparse_grid_size(ell_big - i, dim - 1)
            off = _block_offset(ell_big, dim, i)
            rows = off + (np.arange(2**i, dtype=np.int64) * m_big)[:, None] + inner[None, :]
            parts.append(rows.ravel())
        out = np.concatenate(parts)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _block_offset(ell, dim, i):
    if dim == 1:
        return 2**i - 1
    return sum(2**t * sparse_grid_size(ell - t, dim - 1) for t in range(i))


@lru_cache(maxsize=None)
def rect_injection(levels, ell):
    """Canonical indices of Omega_levels (row-major) inside G(ell, dim).

    levels is a tuple; requires sum(levels) <= ell.
    """
    levels = tuple(int(l) for l in levels)
    dim = len(levels)
    if sum(levels) > ell:
        raise ValueError(f"Omega_{levels} not contained in G({ell},{dim})")
    l0 = levels[0]
    if dim == 1:
        out = 2**l0 - 1 + np.arange(2**l0, dtype=np.int64)
    else:
        inner = rect_injection(levels[1:], ell - l0)
        m = sparse_grid_size(ell - l0, dim - 1)
        off = _block_offset(ell, dim, l0)
        rows = off + (np.arange(2**l0, dtype=np.int64) * m)[:, None] + inner[None, :]
        out = rows.ravel()
    out.flags.writeable = False
    return out


# ---- generic selection maps ---------------------------------------------


class SelectionMap:
    """Injection of a smaller grid U into a larger grid V by point identity.

    target_index[u] is the V-index of U's u-th point.  select() gathers,
    embed() scatters (zero elsewhere); embed-then-select is the identity.
    """

    def __init__(self, from_size, to_size, target_index):
        target_index = np.asarray(target_index, dtype=np.int64)
        if len(target_index) != from_size:
            raise ValueError("target_index length must equal from_size")
        if from_size and (len(np.unique(target_index)) != from_size
                          or target_index.min() < 0 or target_index.max() >= to_size):
            raise ValueError("target_index must be an injection into [0, to_size)")
        self.from_size = from_size
        self.to_size = to_size
        self.target_index = target_index

    def select(self, v):
        return np.asarray(v)[..., self.target_index]

    def embed(self, u):
        u = np.asarray(u)
        out = np.zeros(u.shape[:-1] + (self.to_size,), dtype=u.dtype)
        out[..., self.target_index] = u
        return out


def selection_map(U, V):
    """SelectionMap from grid U into grid V (U must be a subset of V).

    Covers the pairs the MVM plan uses: sparse-in-sparse and rect-in-sparse,
    both closed-form injections.
    """
    if isinstance(V, SparseGrid) and U.dim == V.dim:
        if isinstance(U, SparseGrid):
            idx = sparse_injection(U.resolution, V.resolution, U.dim)
            return SelectionMap(U.size, V.size, idx)
        if isinstance(U, RectGrid):
            idx = rect_injection(U.levels, V.resolution)
            return SelectionMap(U.size, V.size, idx)
    raise ValueError(f"no selection map from {U!r} into {V!r}")


def dump_points_csv(grid, path):
    """Debug dump: one row per point (index, levels, positions, coordinates)."""
    if isinstance(grid, RectGrid):
        levels, positions = grid.index_pairs()
    else:
        levels, positions = grid.levels, grid.positions
    coords = positions / np.exp2(levels + 1)
    dim = coords.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["index"]
            + [f"level_{j}" for j in range(dim)]
            + [f"position_{j}" for j in range(dim)]
            + [f"x_{j}" for j in range(dim)]
        )
        for idx in range(len(coords)):
            w.writerow(
                [idx] + list(levels[idx]) + list(positions[idx]) + [repr(float(c)) for c in coords[idx]]
            )
