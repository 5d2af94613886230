"""Interpolation weights on rectilinear lattices and sparse grids.

A sparse grid G(ell, d) is interpolated by one of three methods.

hierarchical (the GP default): the grid is the disjoint union of the
hierarchical subspaces Omega_l, |l|_1 <= ell, and the interpolant is
sum_l sum_j alpha_{l,j} phi_{l,j}(x), phi a product of 1-d hats with
clamped boundaries (the level-0 hat is the constant 1, and the outermost hat
of each level stays at 1 out to the faces; Bungartz & Griebel, "Sparse
grids", Acta Numerica 2004; Pflueger 2010).  At any x exactly one hat per
subspace is non-zero, so W = Phi H: a row of Phi has one entry per
subspace, C(ell + d, d) of them, none repeated, and H maps grid values to
the surpluses alpha (about 6.5 non-zeros a row at d = 4 and 8 at d = 6).
The base rule is not consulted.

combination and subsampled: base rules on a uniform lattice, simplicial
(Kuhn-triangulation barycentric weights, d+1 entries), tensor linear (2^d)
or tensor cubic (Keys kernel, a = -1/2, 4^d), combined over the top d
resolution shells,

    sum_{q=0}^{d-1} (-1)^q C(d-1, q) * [rows on every Omega_l, |l|_1 = ell-q],

accumulated in global sparse-grid indices; the subsampled variant averages
the shell |l|_1 = ell restricted to grids containing a component of ell or
ell-1.  A UniformLattice takes the base rule alone and ignores the method.

interpolator(grid, rule, method) is the one place an interpolation setting
is decided (the defaults are RULE_KINDS[0] and METHODS[0]): it checks its
arguments and builds the tables bound to that one setting, every call
anew.  They belong to its caller and nothing else keeps them: assemble_W
is a call on a fresh one, fit hands the one behind its W to the GpModel
it returns, and load_model builds one.

For the combination methods the component lattices are stacked into (C, d)
tables of counts, spacings, offsets and row-major strides, with (C,)
coefficients and one table concatenating every component's rect_injection; a
corner's column is that table at its component's base plus its row-major
index, so no point lookup is needed.  A UniformLattice is the C = 1 case
with no injection.  The bound rule runs one pass per stencil shape, the
ordered widths of a component's multi-point axes, with the cells and local
coordinates of a pass's c components on their k such axes as (rows, c, k)
arrays: the tensor rules take the products of per-axis stencils; the
simplicial rule sorts the coordinates with one argsort and walks the Kuhn
simplex by cumulative strides, k + 1 corners (Kapoor et al., "SKIing on
Simplices", ICML 2021).  Entries keep component-then-corner order within a
row, so duplicates merge in the same order whatever the block size.  The
hierarchical tables are the same kind for the S subspaces (levels, strides,
bases, concatenated rect_injection), plus H, whose hierarchical parents are
found by index arithmetic on them, and the prefix tree of the levels over
the axes; Phi's rows are one pass down that tree, which forms the hat
product and row-major position of each shared level prefix once for all
rows (Bungartz & Griebel's recursive descent over the subspaces), with
nothing to merge.  Points go through in row blocks sized from a byte
budget.

An interpolator's weights(X) is the W the fit builds once and applies twice
per CG iteration.  Its evaluate(X, g) runs the same passes and row blocks
without forming W: g holds the grid values in table order (table_values;
for hierarchical, the surpluses H @ values), each pass gathers the values
of its entries and adds weight * value into its rows, with no merge and no
CSR.  A GpModel forms g once, so a request costs one evaluate.

The oracle interpolate_direct shares only the one-lattice pass: for the
combination methods it evaluates each component lattice on its own, as
interpolator does for a UniformLattice, and joins the components by
exact corner coordinates, never by the column tables, the grouping into
passes or the merged rows; for hierarchical it sums tensor linear weights
over nested lattices, without Phi or H.  So the base rules have one
implementation, and what joins component lattices is checked against a
separate route.

Out-of-hull queries are handled by clamping the cell index and local
coordinate, which keeps rows a partition of unity; level-0 (single-point)
dimensions carry all their weight on the lone coordinate.

W (Phi, for hierarchical) is held as one CSR matrix, the row blocks
joined once, and applied on the calling thread with scipy's products, so
W v and W^T u are the single products whatever the CPU count.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .grids import SparseGrid, rect_injection

RULE_KINDS = ("simplicial", "linear", "cubic")
METHODS = ("hierarchical", "combination", "subsampled")

# Byte budget of one row block's (rows, entries) work arrays; assembly holds
# a few of them at a time besides the merged rows.
BLOCK_BYTES = 2 << 20


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
    kind: str = RULE_KINDS[0]

    def __post_init__(self):
        rule_density(self.kind, 1)


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


# ---- base rules, elementwise over any leading axes --------------------------


def _local_cell(T, counts):
    """Clamped base-cell index and in-cell coordinate of lattice coordinates
    T (..., d) on lattices of ``counts`` points per axis (..., d).  On a
    single-point axis the cell is 0 and the coordinate means nothing: the
    passes leave such axes out."""
    cell = np.clip(np.floor(T), 0, np.maximum(counts - 2, 0)).astype(np.int64)
    return cell, np.clip(T - cell, 0.0, 1.0)


def _kuhn(r):
    """Kuhn-simplex walk through local coordinates r (..., d).

    The coordinates sorted descending (ties by ascending dimension) give
    the order in which the walk from the base corner steps along each
    dimension, and the barycentric weights (..., d+1) are the consecutive
    differences of [1, sorted r, 0]; with d = 0 the one corner weighs 1.
    """
    neg = -r
    order = np.argsort(neg, axis=-1, kind="stable")
    end = np.ones(r.shape[:-1] + (1,))
    # the stable sort puts r in walk order, as r taken along ``order`` would
    rs = np.concatenate([end, -np.sort(neg, axis=-1, kind="stable"), 0 * end],
                        axis=-1)
    return order, rs[..., :-1] - rs[..., 1:]


def _keys_cubic(s):
    """Keys cubic convolution kernel, a = -1/2; support (-2, 2)."""
    s = np.abs(s)
    near = 1.5 * s**3 - 2.5 * s**2 + 1.0
    far = -0.5 * (s**3 - 5.0 * s**2 + 8.0 * s - 4.0)
    return np.where(s <= 1.0, near, np.where(s < 2.0, far, 0.0))


def _stencil_widths(counts, kind):
    """Stencil width per axis: 1 on single-point axes, 4 for cubic on axes
    of at least 4 points, else 2 (linear, and the simplicial walk's step)."""
    wide = 4 if kind == "cubic" else 2
    return np.where(counts == 1, 1, np.where(counts >= 4, wide, 2))


def _stencil_1d(cell, r, count, width):
    """Indices and weights (..., width) of one axis' stencil, from cell and
    local coordinate (..., 1): Keys cubic for width 4, else linear."""
    if width == 4:
        offs = np.array([-1, 0, 1, 2])
        return np.clip(cell + offs, 0, count - 1), _keys_cubic(r - offs)
    return (np.minimum(cell + np.array([0, 1]), count - 1),
            np.concatenate([1.0 - r, r], axis=-1))


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
    """(levels, coefficient) pairs of the combination or subsampled method."""
    if method == "subsampled":
        return subsampled_components(resolution, dim)
    if method == "combination":
        return combination_components(resolution, dim)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


# ---- stacked component tables -----------------------------------------------


@dataclass(frozen=True)
class _StencilPass:
    """The components sharing one stencil shape, restricted to their k
    multi-point axes: ``axes``, counts, spacings, offsets and strides are
    (c, k); ``bases`` and ``coeffs`` are (c,); ``slots`` are the entries'
    positions in a row, component-then-corner (k + 1 per component for the
    simplicial rule, the product of ``widths`` for the tensor rules)."""

    widths: tuple
    axes: np.ndarray
    counts: np.ndarray
    spacings: np.ndarray
    offsets: np.ndarray
    strides: np.ndarray
    bases: np.ndarray
    coeffs: np.ndarray
    slots: np.ndarray


class _Tables:
    """What the interpolator classes share: W(X) and W(X) @ values over
    row blocks of their tables.

    A subclass sets ``size`` (grid points), ``n_grids``, ``dim``,
    ``columns`` (the concatenated injections, or None when row-major
    indices are the columns), ``H`` (the surpluses, or None when rows
    weigh grid values), ``row_bound`` (the most entries a row may have)
    and ``setting`` (its rule and method, for messages), and gives
    block_rows(), evaluated(X) and rows(X).
    """

    H = None

    def _stack(self, counts, injections):
        """Set the (C, d) ``counts`` of C stacked grids, their row-major
        ``strides``, the ``bases`` of their blocks in the table and the
        ``columns`` concatenating their injections (None for a lone
        lattice, whose row-major indices are the columns); returns the
        grids' sizes."""
        self.counts = counts
        self.n_grids, self.dim = counts.shape
        self.strides = np.ones_like(counts)
        self.strides[:, :-1] = np.cumprod(counts[:, :0:-1], axis=1)[:, ::-1]
        sizes = counts.prod(axis=1)
        self.bases = np.cumsum(sizes) - sizes
        # int32 columns go into scipy's CSR without a copy
        self.columns = (None if injections is None
                        else np.concatenate(injections).astype(np.int32))
        return sizes

    def _points(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be (n, d)")
        if not np.isfinite(X).all():
            raise ValueError("X must be finite")
        if X.shape[1] != self.dim:
            raise ValueError(f"points have dim {X.shape[1]}, grid has dim "
                             f"{self.dim}")
        return X

    def weights(self, X):
        """W(X), row i the weights of x_i, as a WeightMatrix.

        Rows go through in blocks of block_rows(); each block's rows have
        their duplicates merged in component-then-corner order
        (hierarchical rows have none) and the blocks are stacked into one
        CSR matrix, so W does not depend on the block size.
        """
        X = self._points(X)
        step = self.block_rows()
        blocks = [self.rows(X[start : start + step])
                  for start in range(0, max(len(X), 1), step)]
        return WeightMatrix(scipy.sparse.vstack(blocks, format="csr"), self)

    def table_values(self, values):
        """Grid values (size,) in table order, what evaluated()'s indices
        gather: for hierarchical the surpluses H @ values."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.size,):
            raise ValueError(f"values has shape {values.shape}; the grid has "
                             f"{self.size} points")
        if self.H is not None:
            values = self.H @ values
        return values if self.columns is None else values[self.columns]

    def evaluate(self, X, g):
        """W(X) @ values for g = table_values(values), without forming W:
        weights' passes on the same row blocks, each entry's weight times
        its value summed into its row, no merge and no CSR.  Within
        roundoff of weights(X).apply(values)."""
        X = self._points(X)
        out = np.zeros(len(X))
        step = self.block_rows()
        for start in range(0, len(X), step):
            rows = slice(start, start + step)
            for _, flat, w in self.evaluated(X[rows]):
                out[rows] += np.einsum("ick,ick->i", w, g[flat])
        return out


class _Components(_Tables):
    """Component lattices stacked as (C, d) tables (int64 counts, float64
    spacings, offsets and coefficients) and bound to one base rule
    ``kind``, as one pass per stencil shape.  Component c's rect_injection
    starts at ``bases[c]`` in ``columns``; a lone lattice has method
    "rect" and no columns.
    """

    def __init__(self, counts, spacings, offsets, coeffs, kind, method, size,
                 injections=None):
        self._stack(counts, injections)
        self.spacings, self.offsets, self.coeffs = spacings, offsets, coeffs
        self.kind, self.size = kind, size
        self.setting = f"rule={kind}, method={method}"
        self.row_bound = rule_density(kind, self.dim) * self.n_grids
        self.passes = self._stencil_passes(kind)
        self.row_entries = sum(p.slots.size for p in self.passes)

    def _stencil_passes(self, kind):
        widths = _stencil_widths(self.counts, kind)
        multi = widths > 1
        sizes = multi.sum(axis=1) + 1 if kind == "simplicial" else widths.prod(axis=1)
        starts = np.cumsum(sizes) - sizes
        shapes = [tuple(int(w) for w in row if w > 1) for row in widths]
        passes = []
        for shape in sorted(set(shapes)):
            comps = np.array([c for c, s in enumerate(shapes) if s == shape])
            axes = np.nonzero(multi[comps])[1].reshape(len(comps), len(shape))
            rows = comps[:, None]
            passes.append(_StencilPass(
                shape, axes, self.counts[rows, axes], self.spacings[rows, axes],
                self.offsets[rows, axes], self.strides[rows, axes],
                self.bases[comps], self.coeffs[comps],
                (starts[rows] + np.arange(sizes[comps[0]])).ravel()))
        return passes

    def block_rows(self):
        """Rows per block: one (rows, entries) array of 8-byte items fills
        BLOCK_BYTES."""
        return max(1, BLOCK_BYTES // (8 * self.row_entries))

    def evaluated(self, X):
        """Yield (pass, flat, w) for X's rows, one per stencil shape on its
        components' multi-point axes: row-major indices plus bases, and
        coefficient-scaled weights, (m, c, slots)."""
        pass_fn = _simplex_pass if self.kind == "simplicial" else _tensor_pass
        for p in self.passes:
            cell, r = _local_cell((X[:, p.axes] - p.offsets) / p.spacings, p.counts)
            flat, w = pass_fn(p, cell, r)
            w *= p.coeffs[:, None]
            yield p, flat, w

    def block(self, X):
        """Row-major indices plus bases, and weights, of X's rows:
        (m, row_entries) each."""
        m = len(X)
        flat_out = np.empty((m, self.row_entries), dtype=np.int64)
        w_out = np.empty((m, self.row_entries))
        for p, flat, w in self.evaluated(X):
            flat_out[:, p.slots] = flat.reshape(m, p.slots.size)
            w_out[:, p.slots] = w.reshape(m, p.slots.size)
        return flat_out, w_out

    def rows(self, X):
        """CSR rows of X over the grid's columns, duplicates merged."""
        flat, vals = self.block(X)
        cols = flat if self.columns is None else self.columns[flat]
        return _merged_rows(cols, vals, self.size)


def _simplex_pass(p, cell, r):
    """Kuhn-walk corners and weights (m, c, k+1): the base corner plus the
    cumulative strides in walk order."""
    order, w = _kuhn(r)
    steps = np.empty(w.shape, dtype=np.int64)
    steps[..., 0] = (cell * p.strides).sum(axis=-1) + p.bases
    steps[..., 1:] = p.strides[np.arange(len(p.bases))[:, None], order]
    return steps.cumsum(axis=-1), w


def _tensor_pass(p, cell, r):
    """Tensor-stencil corners and weights (m, c, prod(widths)), the last
    axis varying fastest."""
    m, c = cell.shape[:2]
    flat = np.broadcast_to(p.bases[:, None], (m, c, 1))
    w = np.ones((m, c, 1))
    # single-point axes add one slot of weight exactly 1.0, so leaving them
    # out changes neither the slot order nor a product
    for j, width in enumerate(p.widths):
        idx, wj = _stencil_1d(cell[..., j : j + 1], r[..., j : j + 1],
                              p.counts[:, j : j + 1], width)
        idx *= p.strides[:, j : j + 1]
        shape = (m, c, w.shape[-1] * width)
        flat = (flat[..., :, None] + idx[..., None, :]).reshape(shape)
        w = (w[..., :, None] * wj[..., None, :]).reshape(shape)
    return flat, w


def _hats(X, resolution):
    """Index (int32) and weight (d, resolution + 1, m) of the one clamped hat
    per level 0..resolution that can be non-zero at each coordinate of X
    (m, d), each (axis, level) a contiguous row.

    Level l has 2^l hats centred on (2i + 1) / 2^(l+1), each falling to 0
    at the neighbouring level-(l-1) nodes; the first and last stay at 1 out
    to the faces, so the level-0 hat is the constant 1.
    """
    scale = np.ldexp(1.0, np.arange(resolution + 1) + 1)[:, None]   # 2^(l+1)
    last = scale / 2 - 1
    t = np.ascontiguousarray(X.T)[:, None, :] * scale
    i = np.clip(np.floor(0.5 * t), 0, last)
    s = np.clip(t - (2 * i + 1), np.where(i > 0, -1.0, 0.0),
                np.where(i < last, 1.0, 0.0))
    return i.astype(np.int32), 1.0 - np.abs(s)


class _Hierarchy(_Tables):
    """The S = C(resolution + dim, dim) hierarchical subspaces Omega_l,
    |l|_1 <= resolution, of G(resolution, dim), and the surplus matrix H.

    ``levels`` (S, d) are sorted by their mixed-radix key sum_j l_j
    (resolution + 1)^(d-1-j), so a level vector's subspace is a
    searchsorted of its key.  That order is lexicographic, as the
    canonical point order is (see grids), so the columns of a row of Phi
    ascend.  ``strides`` (S, d) are row-major over the 2^l hats of each
    axis; ``columns`` concatenates every subspace's rect_injection,
    subspace s from ``bases[s]``, so the table is a permutation of the
    grid.  H (|G| x |G| CSR) maps grid values to surpluses.  A row of Phi
    has one entry per subspace, so ``row_bound`` is S.

    ``tree`` is the prefix tree of ``levels`` over the axes: layer j lists
    the prefixes (l_0, ..., l_j) with sum <= resolution, lexicographic.
    Layer 0 is the levels 0..resolution of axis 0; tree[j - 1] holds, for
    each node of layer j >= 1, the index of its parent in layer j - 1 and
    its l_j, (nodes,) each, and the slice of ``hat_rows`` that lists the
    layer's hats.  The last layer is ``levels``, in order.
    """

    setting = "method=hierarchical"

    def __init__(self, resolution, dim):
        levels = np.array([lv for total in range(resolution + 1)
                           for lv in _compositions(total, dim)],
                          dtype=np.int64).reshape(-1, dim)
        self.radix = (resolution + 1) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        levels = levels[np.argsort(levels @ self.radix)]
        self.resolution = resolution
        self.levels = levels
        self.keys = levels @ self.radix
        sizes = self._stack(1 << levels, [rect_injection(tuple(lv), resolution)
                                          for lv in levels.tolist()])
        self.size, self.row_bound = len(self.columns), self.n_grids
        self.H = self._surplus_matrix(sizes)
        # layer j's prefixes by their keys, the full keys floor-divided by
        # radix[j]: ascending keys are lexicographic prefixes
        layers = [np.unique(self.keys // r) for r in self.radix]
        last = [keys % (resolution + 1) for keys in layers]
        ends = np.cumsum([len(keys) for keys in layers])
        self.tree = [(np.searchsorted(up, keys // (resolution + 1)),
                      level.astype(np.int32), slice(start, end))
                     for up, keys, level, start, end
                     in zip(layers, layers[1:], last[1:], ends, ends[1:])]
        # a node's hat is row j (resolution + 1) + l_j of the hats; every
        # layer's rows, in layer order, are gathered at once
        self.hat_rows = np.concatenate([j * (resolution + 1) + level
                                        for j, level in enumerate(last)])
        self.work_nodes = sum(sorted(map(len, layers))[-2:])

    def _surplus_matrix(self, sizes):
        """H = H_{d-1} ... H_0, H_j the 1-d hierarchization along axis j.

        Along axis j a hat (level l, index i) has its hierarchical parents
        at the level-l dyadics i / 2^l and (i + 1) / 2^l that are not
        faces; k = 2^z (2m + 1) is hat m of level l - 1 - z, whose subspace
        is the one with the key less (z + 1) (resolution + 1)^j.  Its
        surplus is its value less the mean of its parents' values (none at
        level 0, one at the ends of a level).  Every entry is a dyadic
        rational, so the product is exact.
        """
        size = len(self.columns)
        sub = np.repeat(np.arange(self.n_grids), sizes)
        idx = (np.arange(size)[:, None] - self.bases[sub, None]) \
            // self.strides[sub] % self.counts[sub]
        rows = self.columns.astype(np.int64)
        H = scipy.sparse.identity(size, format="csr")
        for j in range(self.dim):
            at, parents = [], []
            for k in (idx[:, j], idx[:, j] + 1):
                inner = np.nonzero((k > 0) & (k < self.counts[sub, j]))[0]
                low = k[inner] & -k[inner]      # 2^z
                ps = np.searchsorted(self.keys, self.keys[sub[inner]] - self.radix[j]
                                     * (np.log2(low).astype(np.int64) + 1))
                pidx = idx[inner]
                pidx[:, j] = k[inner] // low // 2
                at.append(inner)
                parents.append(self.columns[self.bases[ps]
                                            + (pidx * self.strides[ps]).sum(axis=1)])
            at = np.concatenate(at)
            Hj = scipy.sparse.csr_matrix(
                (np.concatenate([np.ones(size), -1.0 / np.bincount(at)[at]]),
                 (np.concatenate([rows, rows[at]]),
                  np.concatenate([rows, *parents]))),
                shape=(size, size))
            H = Hj @ H
        H.sort_indices()
        return H

    def block_rows(self):
        """Rows per block: the positions and weights of the tree's two
        largest layers, a layer step's input and output, at 16 bytes a
        node, fill BLOCK_BYTES."""
        return max(1, BLOCK_BYTES // (16 * self.work_nodes))

    def evaluated(self, X):
        """Yield once (None, table positions, weights) of X's rows, (m, S,
        1) each, as one pass of S components with one slot: every
        subspace's one hat, the product of its axes' hats.

        One pass down the tree forms each prefix once, for all rows, as a
        (nodes, m) layer: positions by Horner's rule (the row-major stride
        of axis j - 1 is 2^(l_j) times that of axis j) and weights as
        products in axis order, so each is exactly what the sum of indices
        times strides and the product over the axes give.
        """
        shape = (self.dim * (self.resolution + 1), len(X))
        idx, w = (a.reshape(shape)[self.hat_rows]
                  for a in _hats(X, self.resolution))
        flat, prod = idx[: self.resolution + 1], w[: self.resolution + 1]
        for parent, level, hats in self.tree:
            flat = (flat[parent] << level[:, None]) + idx[hats]
            prod = prod[parent] * w[hats]
        # the int64 bases make the positions intp, which numpy's gathers
        # take without a cast
        flat = flat + self.bases[:, None]
        yield None, flat.T[..., None], prod.T[..., None]

    def rows(self, X):
        """CSR rows of Phi at X: S entries each, every column once."""
        (_, flat, w), = self.evaluated(X)
        return scipy.sparse.csr_matrix(
            (w.ravel(), self.columns[flat.ravel()],
             np.arange(0, w.size + 1, self.n_grids)), shape=(len(X), self.size))


def interpolator(grid, rule=BaseRule(), method=METHODS[0]):
    """The interpolation tables of ``grid`` bound to one rule and method.

    grid is a SparseGrid (rows combined across component grids per
    ``method``, or Phi H for "hierarchical", which ignores ``rule``) or a
    UniformLattice (single-grid rows under ``rule``, method ignored).  An
    unknown grid type raises TypeError; an unknown rule, or an unknown
    method on a sparse grid, ValueError.  Each call builds new tables,
    owned by the caller (1.6, 4.0 and 10.4 ms at d = 4, 6 and 8, l = 4,
    hierarchical; min of 7 builds, 1 BLAS thread, 2-vCPU x86 VM).  The
    result's weights(X) is W(X); evaluate(X, table_values(values)) is
    W(X) @ values, and table_values can be formed once for many X.
    """
    rule = _as_rule(rule)
    if isinstance(grid, UniformLattice):
        return _Components(grid.counts[None], grid.spacings[None],
                           grid.offsets[None], np.ones(1), rule.kind, "rect",
                           grid.size)
    if not isinstance(grid, SparseGrid):
        raise TypeError(f"grid must be SparseGrid or UniformLattice, "
                        f"got {type(grid).__name__}")
    if method == "hierarchical":
        return _Hierarchy(grid.resolution, grid.dim)
    comps = _components(grid.resolution, grid.dim, method)
    levels = np.array([lv for lv, _ in comps], dtype=np.int64).reshape(-1, grid.dim)
    return _Components(
        2**levels, np.ldexp(1.0, -levels), np.ldexp(1.0, -levels - 1),
        np.array([c for _, c in comps]), rule.kind, method, grid.size,
        [rect_injection(lv, grid.resolution) for lv, _ in comps],
    )


# ---- weight-matrix assembly --------------------------------------------------


class WeightMatrix:
    """Row-sparse n x m interpolation matrix over a fixed grid, held as one
    CSR matrix ``phi`` with duplicates summed and zeros dropped, and
    applied on the calling thread.

    ``tables`` are the interpolator that made it: its ``row_bound`` is W's
    density bound, and its ``setting`` names W's rule and method.  When its
    H (hierarchical) is set, ``phi`` holds Phi, one entry per subspace
    (zeros kept), and W = Phi H: apply is Phi (H v) and apply_transpose
    H^T (Phi^T u).  ``nnz`` and ``max_row_nnz`` count Phi's entries.
    """

    def __init__(self, matrix, tables):
        if not scipy.sparse.issparse(matrix):
            raise TypeError(f"matrix must be a sparse matrix, got "
                            f"{type(matrix).__name__}")
        self.phi = matrix.tocsr()
        # a CSC view of the same arrays, made once: making it costs 30-80 us
        # a call (2-vCPU x86 VM)
        self._phi_t = self.phi.T
        self.tables = tables
        self.shape = self.phi.shape
        self.nnz = self.phi.nnz
        self.max_row_nnz = int(np.diff(self.phi.indptr).max(initial=0))
        self.density_bound = tables.row_bound
        if self.max_row_nnz > self.density_bound:
            raise RuntimeError(
                f"W has a row with {self.max_row_nnz} entries; "
                f"{tables.setting} over {tables.n_grids} grids allows at "
                f"most {self.density_bound}")

    @property
    def matrix(self):
        """W as one CSR matrix: ``phi``, or the product Phi H (a new
        matrix) when the tables have H."""
        H = self.tables.H
        return self.phi if H is None else (self.phi @ H).tocsr()

    def apply(self, v):
        """W @ v for v of shape (m,) or (m, r); costs O(nnz).  The single
        product ``matrix @ v`` (``Phi @ (H @ v)`` with surpluses)."""
        v = np.asarray(v)
        if self.tables.H is not None:
            v = self.tables.H @ v
        return self.phi @ v

    def apply_transpose(self, u):
        """W^T @ u for u of shape (n,) or (n, r); exact adjoint of apply.
        The single product ``matrix.T @ u`` (``H^T @ (Phi^T @ u)`` with
        surpluses)."""
        out = self._phi_t @ np.asarray(u)
        return out if self.tables.H is None else self.tables.H.T @ out

    def __repr__(self):
        n, m = self.shape
        return f"WeightMatrix({n}x{m}, {self.tables.setting}, nnz={self.nnz})"


def _merged_rows(cols, vals, size):
    """CSR rows of (m, K) entries with duplicates summed and zeros dropped."""
    m, K = cols.shape
    rows = scipy.sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, m * K + 1, K)), shape=(m, size))
    rows.sum_duplicates()
    rows.eliminate_zeros()
    return rows


def assemble_W(X, grid, rule=BaseRule(), method=METHODS[0]):
    """Interpolation matrix for query points X (n, d) over a sparse grid or
    lattice: interpolator(grid, rule, method).weights(X)."""
    return interpolator(grid, rule, method).weights(X)


# ---- direct interpolation (index-free evaluation route) ---------------------


def interpolate_direct(f, X, resolution, dim, base=BaseRule(),
                       method=METHODS[0]):
    """Sparse-grid interpolant of f at X, by direct evaluation.

    Evaluates each component lattice on its own, by the one-lattice
    stencil pass (interpolator on a UniformLattice), and joins the
    components by their corners' coordinates alone: it reads no column
    table, injection, grid enumeration, pass grouping or merged row, so it
    cross-checks the assemble_W route end to end.  A corner's lattice
    indices are the unravelled row-major index of its pass.  f is called
    once, on the distinct corners, found by sorting exact integer keys:
    corner c of a level-l axis lies at (2c + 1) / 2^(l+1), and l <=
    resolution, so a key is 2^(resolution+1) times the corner's
    coordinates.  "hierarchical" ignores ``base``; see _nested_direct.
    """
    if method == "hierarchical":
        return _nested_direct(f, X, resolution, dim)
    comps = _components(resolution, dim, method)
    keys, weights = [], []
    for levels, _ in comps:
        lat = UniformLattice.from_levels(levels)
        tables = interpolator(lat, base)
        (_, flat, w), = tables.evaluated(tables._points(X))
        corners = np.stack(np.unravel_index(flat[:, 0], lat.shape), axis=-1)
        shift = resolution - np.array(levels)
        keys.append(((2 * corners + 1) << shift).reshape(-1, dim))
        weights.append(w[:, 0])
    keys = np.concatenate(keys)
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    distinct = np.empty(len(order), dtype=np.int64)
    distinct[order] = np.cumsum(first) - 1
    vals = np.asarray(f(np.ldexp(ranked[first], -resolution - 1)))[distinct]
    out = np.zeros(len(X))
    start = 0
    for (_, coeff), w in zip(comps, weights):
        out += coeff * (w * vals[start : start + w.size].reshape(w.shape)).sum(axis=1)
        start += w.size
    return out


def _nested_direct(f, X, resolution, dim):
    """The hierarchical interpolant of f at X, without Phi or H.

    It equals the combination technique, with tensor linear weights, over
    the nested lattices of levels l: per axis the 2^(l+1) - 1 nodes j /
    2^(l+1), the union of Omega_0..Omega_l, with the value at the end node
    held out to the faces (the clamped hats span exactly these functions).
    The components are grouped by their count k of multi-point axes, each
    group a (rows, c, 2^k) pass.  A corner's key packs per axis its
    coordinate times 2^(resolution+1), resolution + 1 bits, into one int64
    for np.unique.  The weights and the sum are in np.longdouble: the
    alternating coefficients cancel, and float64 left about 6e-14 of
    roundoff in the sum.
    """
    X = np.asarray(X, dtype=np.float64)
    bits = resolution + 1
    if bits * dim > 63:
        raise ValueError(f"hierarchical oracle keys need {bits * dim} bits; "
                         f"at most 63 fit an int64")
    comps = combination_components(resolution, dim)
    levels = np.array([lv for lv, _ in comps], dtype=np.int64).reshape(-1, dim)
    coeffs = np.array([c for _, c in comps], dtype=np.longdouble)
    shifts = bits * np.arange(dim, dtype=np.int64)
    half = 1 << resolution                       # the key of coordinate 1/2
    multi = (levels > 0).sum(axis=1)
    n = len(X)
    keys, weights = [], []
    for k in np.unique(multi):
        comp = np.nonzero(multi == k)[0]
        axes = np.nonzero(levels[comp] > 0)[1].reshape(len(comp), k)
        lev = levels[comp[:, None], axes]
        t = X[:, axes] * np.ldexp(1.0, lev + 1)  # in node spacings
        left = np.clip(np.floor(t), 1, (1 << (lev + 1)) - 2)
        r = np.clip(t - left, 0.0, 1.0).astype(np.longdouble)
        left = left.astype(np.int64)
        key = np.full((n, len(comp), 1), (half << shifts).sum(), dtype=np.int64)
        w = np.broadcast_to(coeffs[comp, None], (n, len(comp), 1))
        for j in range(k):
            node = left[..., j : j + 1] + np.array([0, 1])
            kj = ((node << (resolution - lev[:, j : j + 1])) - half) \
                << shifts[axes[:, j : j + 1]]
            wj = np.concatenate([1 - r[..., j : j + 1], r[..., j : j + 1]], axis=-1)
            shape = (n, len(comp), 2 * key.shape[-1])
            key = (key[..., :, None] + kj[..., None, :]).reshape(shape)
            w = (w[..., :, None] * wj[..., None, :]).reshape(shape)
        keys.append(key.reshape(n, len(comp) << k))
        weights.append(w.reshape(n, len(comp) << k))
    distinct, inverse = np.unique(np.concatenate(keys, axis=1).ravel(),
                                  return_inverse=True)
    coords = np.ldexp((distinct[:, None] >> shifts) & ((1 << bits) - 1), -bits)
    vals = np.asarray(f(coords), dtype=np.longdouble)
    w = np.concatenate(weights, axis=1)
    return (w * vals[inverse.reshape(w.shape)]).sum(axis=1).astype(np.float64)
