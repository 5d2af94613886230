"""Interpolation weights on rectilinear lattices and sparse grids.

Base rules on a uniform lattice: simplicial (Kuhn-triangulation barycentric
weights, d+1 entries), tensor linear (2^d), tensor cubic (Keys kernel,
a = -1/2, 4^d).  A sparse-grid row is the alternating combination of base
rows over the top d resolution shells,

    sum_{q=0}^{d-1} (-1)^q C(d-1, q) * [rows on every Omega_l, |l|_1 = ell-q],

accumulated in global sparse-grid indices; the subsampled variant averages
the shell |l|_1 = ell restricted to grids containing a component of ell or
ell-1.  A corner's column is its row-major index on Omega_l mapped through
rect_injection(l, ell), so no point lookup is needed; assemble_W batches
all points into one CSR matrix.

Out-of-hull queries are handled by clamping the cell index and local
coordinate, which keeps rows a partition of unity; level-0 (single-point)
dimensions carry all their weight on the lone coordinate.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.sparse

from .grids import SparseGrid, build_sparse_grid, rect_injection

RULE_KINDS = ("simplicial", "linear", "cubic")


def rule_density(kind, dim):
    """Max entries one base-rule row can have on a d-dim lattice."""
    if kind == "simplicial":
        return dim + 1
    if kind == "linear":
        return 2**dim
    if kind == "cubic":
        return 4**dim
    raise ValueError(f"unknown rule kind {kind!r}; expected one of {RULE_KINDS}")


@dataclass(frozen=True)
class BaseRule:
    kind: str = "simplicial"

    def __post_init__(self):
        rule_density(self.kind, 1)

    def density(self, dim):
        return rule_density(self.kind, dim)


def _as_rule(rule):
    return rule if isinstance(rule, BaseRule) else BaseRule(str(rule))


class UniformLattice:
    """Uniform rectilinear lattice: per-dim count, spacing, first coordinate."""

    def __init__(self, counts, spacings, offsets):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.spacings = np.asarray(spacings, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.float64)
        if not (len(self.counts) == len(self.spacings) == len(self.offsets)):
            raise ValueError("counts, spacings, offsets must share a length")
        if (self.counts < 1).any() or (self.spacings <= 0).any():
            raise ValueError("counts must be >= 1 and spacings positive")
        self.dim = len(self.counts)
        self.shape = tuple(int(c) for c in self.counts)
        self.size = int(np.prod(self.counts))

    @classmethod
    def from_levels(cls, levels):
        """The lattice underlying Omega_l: 2^l_j points at odd dyadics."""
        levels = tuple(int(l) for l in levels)
        return cls(
            [2**l for l in levels],
            [2.0**-l for l in levels],
            [2.0 ** -(l + 1) for l in levels],
        )

    @classmethod
    def unit(cls, dim, count):
        """Cell-centred m^d lattice on [0,1]^d (equals Omega_l when m = 2^l)."""
        return cls([count] * dim, [1.0 / count] * dim, [0.5 / count] * dim)

    def coords_1d(self, j):
        return self.offsets[j] + self.spacings[j] * np.arange(self.counts[j])

    def points(self):
        axes = [self.coords_1d(j) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"UniformLattice(shape={self.shape})"


class WeightRow:
    """Sparse interpolation weights for one query point; duplicates merged."""

    __slots__ = ("indices", "weights")

    def __init__(self, indices, weights):
        indices = np.asarray(indices, dtype=np.int64).ravel()
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if indices.shape != weights.shape:
            raise ValueError("indices and weights must have equal length")
        uniq, inv = np.unique(indices, return_inverse=True)
        if len(uniq) != len(indices):
            merged = np.zeros(len(uniq))
            np.add.at(merged, inv, weights)
            indices, weights = uniq, merged
        self.indices = indices
        self.weights = weights

    @property
    def entries(self):
        return list(zip(self.indices.tolist(), self.weights.tolist()))

    def sum(self):
        return float(self.weights.sum())

    def __len__(self):
        return len(self.indices)

    def __repr__(self):
        return f"WeightRow({len(self)} entries, sum={self.sum():.6f})"


# ---- batched corner/weight generation on one lattice -----------------------


def _local_cell(X, lat):
    """Clamped base-cell index and in-cell coordinate for each point."""
    hi = np.maximum(lat.counts - 2, 0)
    T = (X - lat.offsets) / lat.spacings
    cell = np.clip(np.floor(T), 0, hi).astype(np.int64)
    r = np.clip(T - cell, 0.0, 1.0)
    r[:, lat.counts == 1] = 0.0  # constant dimension: no interpolation
    return cell, r


def simplicial_corners(X, lat):
    """Kuhn-simplex corners (n, d+1, d) and barycentric weights (n, d+1).

    Local coordinates sorted descending (ties by ascending dimension); the
    walk from the base corner adds one unit step per sorted dimension, so
    weights are the consecutive differences of the sorted coordinates.
    """
    cell, r = _local_cell(X, lat)
    n, d = X.shape
    order = np.argsort(-r, axis=1, kind="stable")
    rs = np.take_along_axis(r, order, axis=1)
    w = np.empty((n, d + 1))
    w[:, 0] = 1.0 - rs[:, 0]
    if d > 1:
        w[:, 1:d] = rs[:, :-1] - rs[:, 1:]
    w[:, d] = rs[:, -1]
    steps = np.concatenate(
        [np.zeros((n, 1, d), dtype=np.int64),
         np.cumsum(np.eye(d, dtype=np.int64)[order], axis=1)],
        axis=1,
    )
    corners = np.minimum(cell[:, None, :] + steps, lat.counts - 1)
    return corners, w


def _keys_cubic(s):
    """Keys cubic convolution kernel, a = -1/2; support (-2, 2)."""
    s = np.abs(s)
    near = 1.5 * s**3 - 2.5 * s**2 + 1.0
    far = -0.5 * (s**3 - 5.0 * s**2 + 8.0 * s - 4.0)
    return np.where(s <= 1.0, near, np.where(s < 2.0, far, 0.0))


def tensor_corners(X, lat, kind):
    """Tensor-product corners/weights: 2 points per dim (linear) or 4 (cubic).

    Cubic uses the linear stencil in dimensions with fewer than 4 points,
    and both rules use the lone point, weight 1, in single-point dimensions,
    so a point has 2 or 4 corners per dimension that has more than one
    lattice point; stencil indices are clamped into the lattice, duplicates
    merge later.
    """
    if kind not in ("linear", "cubic"):
        raise ValueError(f"tensor rule must be linear or cubic, got {kind!r}")
    cell, r = _local_cell(X, lat)
    n, d = X.shape
    idxs, ws = [], []
    for j in range(d):
        cj, rj = cell[:, j : j + 1], r[:, j : j + 1]
        if lat.counts[j] == 1:
            idx = np.zeros((n, 1), dtype=np.int64)
            wj = np.ones((n, 1))
        elif kind == "cubic" and lat.counts[j] >= 4:
            offs = np.array([-1, 0, 1, 2])
            idx = np.clip(cj + offs, 0, lat.counts[j] - 1)
            wj = _keys_cubic(rj - offs)
        else:
            idx = np.minimum(cj + np.array([0, 1]), lat.counts[j] - 1)
            wj = np.concatenate([1.0 - rj, rj], axis=1)
        idxs.append(idx)
        ws.append(wj)
    slots = np.array(list(product(*[range(a.shape[1]) for a in idxs])))
    corners = np.stack([idxs[j][:, slots[:, j]] for j in range(d)], axis=2)
    w = ws[0][:, slots[:, 0]].copy()
    for j in range(1, d):
        w *= ws[j][:, slots[:, j]]
    return corners, w


def _corner_fn(kind):
    if kind == "simplicial":
        return simplicial_corners
    return lambda X, lat: tensor_corners(X, lat, kind)


# ---- per-point rows on a single lattice ------------------------------------


def _rect_row(x, levels, kind):
    lat = UniformLattice.from_levels(levels)
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(X).all():
        raise ValueError("query point must be finite")
    corners, w = _corner_fn(kind)(X, lat)
    flat = np.ravel_multi_index(tuple(corners[0].T), lat.shape)
    return WeightRow(flat, w[0])


def simplicial_weights_rect(x, levels):
    """Simplicial weights for x on Omega_levels, in local row-major indices."""
    return _rect_row(x, levels, "simplicial")


def tensor_weights_rect(x, levels, kind="linear"):
    """Tensor-product linear or cubic weights on Omega_levels."""
    return _rect_row(x, levels, kind)


# ---- grid combinations ------------------------------------------------------


def _compositions(total, dim):
    """All dim-tuples of nonnegative ints summing to total, lexicographic."""
    if dim == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _compositions(total - first, dim - 1))
    return out


@lru_cache(maxsize=None)
def combination_components(resolution, dim):
    """(levels, coefficient) pairs of the alternating combination rule."""
    comps = []
    for q in range(dim):
        shell = resolution - q
        if shell < 0:
            continue
        coeff = float((-1) ** q * math.comb(dim - 1, q))
        comps.extend((levels, coeff) for levels in _compositions(shell, dim))
    return tuple(comps)


@lru_cache(maxsize=None)
def subsampled_components(resolution, dim):
    """Top-shell grids containing a resolution component of ell or ell-1,
    uniformly averaged."""
    if resolution < 1:
        raise ValueError("subsampled rule needs resolution >= 1")
    picked = [
        levels
        for levels in _compositions(resolution, dim)
        if resolution in levels or resolution - 1 in levels
    ]
    coeff = 1.0 / len(picked)
    return tuple((levels, coeff) for levels in picked)


def _components(resolution, dim, method):
    if method == "combination":
        return combination_components(resolution, dim)
    if method == "subsampled":
        return subsampled_components(resolution, dim)
    raise ValueError(f"unknown method {method!r}")


def combination_weights(x, resolution, dim, base=BaseRule()):
    """Combination-technique row for x on G(resolution, dim), global indices."""
    grid = build_sparse_grid(resolution, dim)
    return assemble_W(np.reshape(x, (1, -1)), grid, base, "combination").row(0)


def subsampled_weights(x, resolution, dim, base=BaseRule()):
    """Subsampled-rule row for x on G(resolution, dim), global indices."""
    grid = build_sparse_grid(resolution, dim)
    return assemble_W(np.reshape(x, (1, -1)), grid, base, "subsampled").row(0)


# ---- weight-matrix assembly --------------------------------------------------


class WeightMatrix:
    """Row-sparse n x m interpolation matrix over a fixed grid."""

    def __init__(self, matrix, rule, method, n_grids, dim):
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        self.matrix = matrix
        self.rule = rule
        self.method = method
        self.n_grids = n_grids
        self.dim = dim
        counts = np.diff(matrix.indptr)
        self.max_row_nnz = int(counts.max()) if len(counts) else 0
        self.density_bound = rule.density(dim) * n_grids
        assert self.max_row_nnz <= self.density_bound, (
            self.max_row_nnz, self.density_bound)

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nnz(self):
        return self.matrix.nnz

    def apply(self, v):
        """W @ v; costs O(nnz)."""
        return self.matrix @ v

    def apply_transpose(self, u):
        """W^T @ u; exact adjoint of apply."""
        return self.matrix.T @ u

    def row(self, i):
        sl = slice(self.matrix.indptr[i], self.matrix.indptr[i + 1])
        return WeightRow(self.matrix.indices[sl], self.matrix.data[sl])

    def dump_triplets_csv(self, path):
        """Debug export: one (row, grid index, weight) triplet per line."""
        coo = self.matrix.tocoo()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "grid_index", "weight"])
            for i, j, v in zip(coo.row, coo.col, coo.data):
                writer.writerow([int(i), int(j), repr(float(v))])

    def __repr__(self):
        n, m = self.shape
        return (f"WeightMatrix({n}x{m}, rule={self.rule.kind}, "
                f"method={self.method}, nnz={self.nnz})")


def assemble_W(X, grid, rule=BaseRule(), method="combination"):
    """Interpolation matrix for query points X over a sparse grid or lattice.

    X is (n, d); grid is a SparseGrid (rows combined across component
    grids per `method`) or a UniformLattice (single-grid rows, method
    ignored).  Row i holds the weights of x_i.
    """
    rule = _as_rule(rule)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be (n, d)")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    n, d = X.shape
    fn = _corner_fn(rule.kind)

    if not isinstance(grid, (SparseGrid, UniformLattice)):
        raise TypeError(f"grid must be SparseGrid or UniformLattice, "
                        f"got {type(grid).__name__}")
    if grid.dim != d:
        raise ValueError(f"points have dim {d}, grid has dim {grid.dim}")
    # (lattice, lattice index -> grid column map or None, coefficient)
    if isinstance(grid, UniformLattice):
        parts = [(grid, None, 1.0)]
        method = "rect"
    else:
        parts = [
            (UniformLattice.from_levels(levels),
             rect_injection(levels, grid.resolution), coeff)
            for levels, coeff in _components(grid.resolution, d, method)
        ]
    # Every component gives each point the same number of corners, so the
    # rows of W are the rows of the (n, K) corner arrays side by side, in
    # component-then-corner order: CSR with indptr = 0, K, 2K, ...
    col_parts, val_parts = [], []
    for lat, columns, coeff in parts:
        corners, w = fn(X, lat)
        cols = np.ravel_multi_index(tuple(corners.reshape(-1, d).T), lat.shape)
        col_parts.append((cols if columns is None else columns[cols]).reshape(w.shape))
        val_parts.append(coeff * w)
    cols, vals = np.hstack(col_parts), np.hstack(val_parts)
    K = cols.shape[1]
    mat = scipy.sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, n * K + 1, K)),
        shape=(n, grid.size),
    )
    return WeightMatrix(mat, rule, method, len(parts), d)


# ---- direct interpolation (index-free evaluation route) ---------------------


def interpolate_rect_direct(f, X, lat, kind="simplicial"):
    """Base-rule interpolant of f on one lattice, evaluated pointwise.

    Computes corner coordinates directly from the lattice geometry and
    samples f there — no grid enumeration or index lookup involved, so it
    cross-checks the assemble_W route end to end.
    """
    X = np.asarray(X, dtype=np.float64)
    corners, w = _corner_fn(kind)(X, lat)
    coords = lat.offsets + corners * lat.spacings
    vals = np.asarray(f(coords.reshape(-1, X.shape[1]))).reshape(w.shape)
    return (w * vals).sum(axis=1)


def interpolate_direct(f, X, resolution, dim, base=BaseRule(),
                       method="combination"):
    """Combination-rule interpolant of f at X, by direct evaluation."""
    base = _as_rule(base)
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(len(X))
    for levels, coeff in _components(resolution, dim, method):
        lat = UniformLattice.from_levels(levels)
        out += coeff * interpolate_rect_direct(f, X, lat, base.kind)
    return out
