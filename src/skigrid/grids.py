"""Sparse grids and their index algebra.

The 1-d building block at resolution ``l`` is the set of cell centers

    Omega_l = { i / 2**(l+1) : 1 <= i <= 2**(l+1), i odd },   |Omega_l| = 2**l.

A d-dimensional rectilinear grid Omega_l (``l`` now a vector) is the tensor
product of per-dimension center sets, and the sparse grid G(ell, d) is the
union of all Omega_l with ||l||_1 <= ell.  (The lattice Omega_l itself is
interp.UniformLattice.from_levels(l).)  Points are named exactly by
integer (level, position) pairs per dimension; floating-point coordinates
are reconstructed on demand.  block_layout is the one place the canonical
block layout below is computed; the index maps between grids
(sparse_injection, rect_injection) are integer arithmetic on it, never a
search.

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


class GridCapExceeded(RuntimeError):
    """Requested grid would exceed the configured point cap."""


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


class SparseGrid:
    """Sparse grid G(resolution, dim) in canonical enumeration.

    Immutable after construction.  ``levels`` and ``positions`` are (N, dim)
    read-only int arrays in canonical order; block_layout(resolution, dim)
    gives the top-level decomposition.  The canonical index of a point of a
    component grid Omega_l is closed-form: see rect_injection.
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

    # ---- coordinates ---------------------------------------------------

    def points(self):
        """Float coordinates, shape (size, dim), canonical order."""
        return self.positions / np.exp2(self.levels + 1)

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"SparseGrid(resolution={self.resolution}, dim={self.dim})"


def build_sparse_grid(resolution, dim, size_cap=DEFAULT_SIZE_CAP):
    """Construct the immutable G(resolution, dim).

    The cap is checked against the closed-form size before any allocation;
    the enumeration itself is cached per (resolution, dim).
    """
    return SparseGrid(resolution, dim, size_cap)


# ---- 1-d rank algebra ---------------------------------------------------


@lru_cache(maxsize=None)
def canonical_to_sorted_1d(ell):
    """rank[c] = sorted position of the c-th canonical point of G(ell, 1)."""
    r = np.concatenate([omega_ranks_in_sorted_1d(i, ell) for i in range(ell + 1)])
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


# ---- block layout and injections between canonical enumerations ---------


@lru_cache(maxsize=None)
def block_layout(resolution, dim):
    """(offsets, sizes, child_sizes) of the canonical blocks of G(resolution, dim).

    Block i is Omega_i (x) G(resolution - i, dim - 1): ``sizes[i]`` =
    2**i * ``child_sizes[i]`` rows starting at ``offsets[i]``, with
    ``child_sizes[i]`` = |G(resolution - i, dim - 1)|, or 1 when dim == 1.
    Read-only int64 arrays of length resolution + 1.
    """
    child = np.array([sparse_grid_size(resolution - i, dim - 1) if dim > 1 else 1
                      for i in range(resolution + 1)], dtype=np.int64)
    sizes = np.array([2**i for i in range(resolution + 1)], dtype=np.int64) * child
    offsets = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    for a in (offsets, sizes, child):
        a.flags.writeable = False
    return offsets, sizes, child


def _block_rows(ell, dim, i, inner):
    """Canonical rows in G(ell, dim) of Omega_i (x) the block-i child points
    ``inner`` (row-major, Omega_i outer)."""
    offsets, _, child = block_layout(ell, dim)
    rows = offsets[i] + (np.arange(2**i, dtype=np.int64) * child[i])[:, None] + inner
    return rows.ravel()


_POINT = np.zeros(1, dtype=np.int64)  # the lone child point of a 1-d block


@lru_cache(maxsize=None)
def sparse_injection(ell_small, ell_big, dim):
    """Canonical indices of G(ell_small, dim) inside G(ell_big, dim).

    Block i of the small grid sits inside block i of the big grid with the
    same Omega_i outer factor, so the map recurses on the inner subgrids;
    at dim == 1 the small grid is a literal prefix of the big one.
    """
    if ell_small > ell_big:
        raise ValueError(f"G({ell_small},{dim}) not contained in G({ell_big},{dim})")
    out = np.concatenate([
        _block_rows(ell_big, dim, i,
                    sparse_injection(ell_small - i, ell_big - i, dim - 1)
                    if dim > 1 else _POINT)
        for i in range(ell_small + 1)
    ])
    out.flags.writeable = False
    return out


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
    inner = rect_injection(levels[1:], ell - l0) if dim > 1 else _POINT
    out = _block_rows(ell, dim, l0, inner)
    out.flags.writeable = False
    return out


def dump_points_csv(grid, path):
    """Debug dump of a SparseGrid: one row per point (index, levels,
    positions, coordinates), canonical order."""
    levels, positions, coords = grid.levels, grid.positions, grid.points()
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
