"""Fast matrix-vector multiplication with the sparse-grid kernel matrix.

Three routes to u = K v for K the kernel matrix on G(ell, d) in canonical
order:

* ``naive_kernel_mvm`` — form K pointwise, a block of rows at a time, and
  multiply; the correctness oracle, quadratic in grid size in time but
  never holding K.
* ``sg_mvm`` — the recursive fast algorithm.  Split v into the canonical
  blocks V_i (rows Omega_i, columns G(ell-i, d-1)).  The product kernel
  makes each cross block K_{ij} a Kronecker product of a 1-d factor between
  Omega_i and Omega_j and a (d-1)-dimensional factor between the two
  subgrids, and nesting lets both factors act on the larger grid of the
  pair through gather/scatter index maps:

      pre-pass:   Abar_i = T_i . embed(V_i)       (1-d Toeplitz, rows)
                  Bbar_i = V_i . K(ell-i, d-1)    (recursive, columns)
      main pass:  A_i = (sum_{j>i} gather-rows(Abar_j) scattered into the
                         column layout of G(ell-i, d-1)) . K(ell-i, d-1)
                  B_i = select-rows( T_i . (sum_{j<=i} embed-rows of the
                         column-gathered Bbar_j) )
                  u_i = vec(A_i) + vec(B_i)

  so every 1-d factor is a Toeplitz multiply on a coordinate-sorted grid
  and every cross-dimension factor is one recursive multiply.
* ``sg_mvm_batched`` — the same arithmetic re-organized into two sweeps
  over dimensions.  A top-down sweep computes every Abar, assembles every
  A-type right-hand side, and queues all sub-multiplies that share a
  kernel sub-problem (same sub-resolution, same trailing dimensions) as
  one batched matrix; the bottom-up sweep finishes the B parts in reverse
  dimension order.  Outputs are identical to sg_mvm up to roundoff; the
  win is that Python and Toeplitz call counts collapse from the size of
  the recursion tree to one visit per (dimension, level), and all data
  movement runs through index maps the plan precomputes.

Everything here works with unit-variance per-dimension kernel factors and
applies the kernel's output_scale exactly once, at the top level.
"""

import math
from typing import NamedTuple

import numpy as np

from .grids import (
    GridCapExceeded,
    block_layout,
    build_sparse_grid,
    canonical_to_sorted_1d,
    omega_ranks_in_sorted_1d,
    sparse_grid_size,
    sparse_injection,
)
from .kernels import toeplitz_from_grid

DEFAULT_NAIVE_CAP = 3 * 10**4
# Rows of K that NaiveDenseKernel.mvm forms at a time.
NAIVE_BLOCK_ROWS = 2048


# ---- naive oracle --------------------------------------------------------


class NaiveDenseKernel:
    """K v on a grid from the kernel pointwise; the quadratic-cost reference.

    K is never stored: ``mvm`` recomputes it in blocks of NAIVE_BLOCK_ROWS
    rows, ``kernel.pairwise(points[block], points) @ V``, so memory stays
    at a few (block, |G|) arrays.  A stored K would also turn every later
    multiply into a bandwidth-bound product whose apparent growth drifts
    with cache size; recomputing keeps the work compute-bound, so a fitted
    time trend is the quadratic cost itself.
    """

    def __init__(self, grid, kernel, point_cap=DEFAULT_NAIVE_CAP):
        n = len(grid)
        if point_cap is not None and n > point_cap:
            raise GridCapExceeded(f"naive path needs {n}x{n} kernel entries per "
                                  f"multiply, cap is {point_cap} points")
        self.kernel = kernel
        self.points = grid.points()

    def mvm(self, v):
        """K v for v of shape (|G|,) or (|G|, r)."""
        step, pts = NAIVE_BLOCK_ROWS, self.points
        return np.concatenate([self.kernel.pairwise(pts[lo:lo + step], pts) @ v
                               for lo in range(0, len(pts), step)])


def naive_kernel_mvm(grid, kernel, v, point_cap=DEFAULT_NAIVE_CAP):
    """u = K v with K formed pointwise, block by block.  Correctness
    oracle, O(m^2) time."""
    return NaiveDenseKernel(grid, kernel, point_cap=point_cap).mvm(v)


# ---- shared plan ---------------------------------------------------------


class _Level(NamedTuple):
    """Index maps of one (dimension dp, level i) step of the batched sweep.

    The step's layout has one row per point of the sorted grid G(i, 1) and
    ``width`` runs per row: every class (a, dp) with a >= i in turn, each
    contributing its |G(a-i, dp-1)| child points times its units, in runs of
    ``MvmPlan._run[dp]`` units.  ``block``, ``bbar`` and ``a_part`` give,
    for each run of the even rows (the points of Omega_i), the run it maps
    to in a workspace.
    """

    n: int        # order of the level-i Toeplitz factor, 2**(i+1) - 1
    width: int    # runs per row
    cut: int      # leading runs of the classes with an A part (a > i)
    block: np.ndarray   # (2**i, width): the class's Omega_i block rows
    bbar: np.ndarray    # (2**i, width): the Bbar right-hand side in the child
    a_part: np.ndarray  # (2**i, cut): the A right-hand side in the child
    select: np.ndarray | None  # (width,): these runs among level i-1's


def _read_only(a):
    a.flags.writeable = False
    return a


class MvmPlan:
    """Precomputed state shared by the recursive and iterative multiplies.

    Holds one Toeplitz operator per (original dimension, level) — exactly
    dim * (resolution + 1) kernel sub-problems — plus the workspace layout
    and index maps of the batched sweep.  Built once for one kernel and
    immutable after.
    """

    def __init__(self, resolution, dim, kernel, size_cap=None):
        if getattr(kernel, "dim", None) != dim or not callable(
            getattr(kernel, "k1d", None)
        ):
            raise TypeError(
                "plan requires a product kernel exposing per-dimension factors "
                f"for dim={dim}; got {kernel!r}"
            )
        self.resolution = int(resolution)
        self.dim = int(dim)
        self.grid = build_sparse_grid(resolution, dim, size_cap=size_cap)
        self.kernel = kernel
        self.toeplitz = {
            (axis, lev): toeplitz_from_grid(kernel, lev, axis)
            for axis in range(dim)
            for lev in range(resolution + 1)
        }
        self._build_sweep()

    # -- construction helpers --------------------------------------------

    def _build_sweep(self):
        """Workspace layout and index maps of the batched sweeps.

        A class (a, dp) is the sub-problem K_{G(a, dp)} on the trailing dp
        dimensions; the sweep multiplies it by ``units`` columns per top-level
        right-hand side.  All classes of one dp share a workspace: class by
        class (a descending), each a row-major (|G(a, dp)|, units) block, one
        row of r values per unit.  Nothing here depends on r.
        """
        ell, dim = self.resolution, self.dim
        units = {(ell, dim): 1}
        slots = {}  # (a, dp, i, part) -> first unit column in the child class
        for dp in range(dim, 1, -1):
            for a in range(ell, -1, -1):
                if (a, dp) not in units:
                    continue
                for i in range(a + 1):
                    child = (a - i, dp - 1)
                    for part in ("A", "Bbar") if i < a else ("Bbar",):
                        slots[(a, dp, i, part)] = units.get(child, 0)
                        units[child] = slots[(a, dp, i, part)] + (units[(a, dp)] << i)
        classes = {
            dp: tuple(a for a in range(ell, -1, -1) if (a, dp) in units)
            for dp in range(1, dim + 1)
        }
        offset, self._workspace = {}, {}
        for dp, acts in classes.items():
            total = 0
            for a in acts:
                offset[(a, dp)] = total
                total += sparse_grid_size(a, dp) * units[(a, dp)]
            self._workspace[dp] = total
        self.workspace_floats = sum(self._workspace.values())
        # 1-d base: (level, first unit row, units) per class.
        self._base = tuple((a, offset[(a, 1)], units[(a, 1)])
                           for a in classes[1])
        # The maps at dp index runs of g units, g the gcd of the class units
        # there (a power of two that grows as dp falls): every offset at dp,
        # and every child unit count, slot and offset (sums of class units
        # times 2**i), is a multiple of g.  So the bulk of the data, at small
        # dp, moves in long contiguous runs, and the maps stay short.
        self._levels, self._run = {}, {}
        for dp in range(dim, 1, -1):
            acts = classes[dp]
            g = self._run[dp] = math.gcd(*(units[(a, dp)] for a in acts))
            levels, prev_start = [], None
            for i in range(acts[0] + 1):
                p = np.arange(1 << i)[:, None, None]
                block, bbar, a_part, select, start, width = [], [], [], [], {}, 0
                for a in acts:
                    if a < i:
                        continue
                    u = units[(a, dp)] // g
                    offs, _, child = block_layout(a, dp)
                    m = int(child[i])
                    row = offset[(a, dp)] // g + int(offs[i]) * u
                    block.append(row + p * (m * u) + np.arange(m * u))
                    crow = (offset[(a - i, dp - 1)] // g
                            + np.arange(m)[:, None] * (units[(a - i, dp - 1)] // g))
                    inner = p * u + np.arange(u)
                    bbar.append(crow + slots[(a, dp, i, "Bbar")] // g + inner)
                    if i < a:
                        a_part.append(crow + slots[(a, dp, i, "A")] // g + inner)
                    if i > 0:
                        inj = sparse_injection(a - i, a - i + 1, dp - 1)
                        select.append(prev_start[a] + (inj[:, None] * u
                                                       + np.arange(u)).ravel())
                    start[a] = width
                    width += m * u

                def cat(parts):  # class by class along the runs of a row
                    return _read_only(np.hstack(
                        [b.reshape(1 << i, -1) for b in parts]
                        + [np.empty((1 << i, 0), dtype=np.intp)]))

                a_part = cat(a_part)
                levels.append(_Level(
                    n=2 ** (i + 1) - 1, width=width, cut=a_part.shape[1],
                    block=cat(block), bbar=cat(bbar), a_part=a_part,
                    select=_read_only(np.concatenate(select)) if i > 0 else None,
                ))
                prev_start = start
            self._levels[dp] = tuple(levels)


def build_plan(resolution, dim, kernel, size_cap=None):
    """Build the MVM plan for G(resolution, dim) under the given kernel."""
    return MvmPlan(resolution, dim, kernel, size_cap=size_cap)


# ---- recursive form ------------------------------------------------------


def _mvm_recursive(plan, a, dp, R):
    """K_{G(a, dp)} @ R on the trailing dp dimensions; R is (grid size, r)."""
    axis = plan.dim - dp
    if dp == 1:
        T = plan.toeplitz[(axis, a)]
        ranks = canonical_to_sorted_1d(a)
        S = np.empty_like(R)
        S[ranks] = R
        return T.matmat(S)[ranks]

    offs, bs, child = block_layout(a, dp)
    r = R.shape[1]
    Abar, Bbar = [], []
    for i in range(a + 1):
        Mi = child[i]
        Vi = R[offs[i] : offs[i] + bs[i]].reshape(2**i, Mi, r)
        n_i = 2 ** (i + 1) - 1
        E = np.zeros((n_i, Mi, r))
        E[0::2] = Vi  # Omega_i sits at the even slots of its own sorted grid
        T = plan.toeplitz[(axis, i)]
        Abar.append(T.matmat(E.reshape(n_i, -1)).reshape(n_i, Mi, r))
        W = np.ascontiguousarray(Vi.transpose(1, 0, 2)).reshape(Mi, -1)
        Bbar.append(_mvm_recursive(plan, a - i, dp - 1, W).reshape(Mi, 2**i, r))

    U = np.empty_like(R)
    for i in range(a + 1):
        Mi = child[i]
        if i < a:
            SA = np.zeros((2**i, Mi, r))
            for j in range(i + 1, a + 1):
                rows = omega_ranks_in_sorted_1d(i, j)
                cols = sparse_injection(a - j, a - i, dp - 1)
                SA[:, cols, :] += Abar[j][rows]
            A = _mvm_recursive(
                plan, a - i, dp - 1,
                np.ascontiguousarray(SA.transpose(1, 0, 2)).reshape(Mi, -1),
            ).reshape(Mi, 2**i, r).transpose(1, 0, 2)
        else:
            A = 0.0
        n_i = 2 ** (i + 1) - 1
        SB = np.zeros((n_i, Mi, r))
        for j in range(i + 1):
            cols = sparse_injection(a - i, a - j, dp - 1)
            rows = omega_ranks_in_sorted_1d(j, i)
            SB[rows] += Bbar[j][cols].transpose(1, 0, 2)
        T = plan.toeplitz[(axis, i)]
        Bfull = T.matmat(SB.reshape(n_i, -1)).reshape(n_i, Mi, r)
        U[offs[i] : offs[i] + bs[i]] = (A + Bfull[0::2]).reshape(bs[i], r)
    return U


def sg_mvm(plan, v):
    """u = K v via the recursive algorithm.  v is (N,) or (N, r)."""
    v = np.asarray(v, dtype=np.float64)
    single = v.ndim == 1
    R = v.reshape(len(v), -1)
    if R.shape[0] != plan.grid.size:
        raise ValueError(f"vector length {R.shape[0]} != grid size {plan.grid.size}")
    out = _mvm_recursive(plan, plan.resolution, plan.dim, R)
    out = out * plan.kernel.output_scale
    return out[:, 0] if single else out


# ---- iterative (batched) form ---------------------------------------------


def sg_mvm_batched(plan, V):
    """u = K V with all sub-multiplies sharing a kernel sub-problem batched.

    Column-wise identical to sg_mvm up to roundoff.  V is (N,) or (N, r).
    Every Toeplitz factor (dimension, level) is applied once per sweep to
    the column-concatenation of all sub-problems that need it, and every
    move of data between a class and its children is one gather or scatter
    through the plan's index maps per (dimension, level).  The A-type sums
    of the top-down sweep telescope over levels: with D_i the part of the
    sum over j > i restricted to the sorted grid G(i, 1),

        D_{i-1} = embed-columns((Abar_i + D_i) at the odd rows),
        A-part of level i = D_i at the even rows (Omega_i),

    and the bottom-up Bbar sums telescope the other way, so neither needs
    a loop over pairs of levels.
    """
    V = np.asarray(V, dtype=np.float64)
    single = V.ndim == 1
    X = V.reshape(len(V), -1)
    if X.shape[0] != plan.grid.size:
        raise ValueError(f"vector length {X.shape[0]} != grid size {plan.grid.size}")
    r = X.shape[1]
    dim = plan.dim
    # take() writes straight into ``out`` under mode="clip" (the default mode
    # buffers a copy); plan indices are always in range, so none is clipped.

    # Top-down: batched Toeplitz pre-pass per level, then the Bbar and A
    # right-hand sides of every class go to the child workspace.
    for dp in range(dim, 1, -1):
        axis, levels, g = dim - dp, plan._levels[dp], plan._run[dp]
        runs = X.reshape(-1, g * r)
        child = np.empty((plan._workspace[dp - 1] // g, g * r))
        D = None
        for i in range(len(levels) - 1, -1, -1):
            lev = levels[i]
            # Omega_i sits at the even slots of its own sorted grid
            E = np.zeros((lev.n, lev.width, g * r))
            np.take(runs, lev.block, axis=0, out=E[0::2], mode="clip")
            child[lev.bbar] = E[0::2]
            F = plan.toeplitz[(axis, i)].matmat(E)
            if D is not None:
                child[lev.a_part] = D[0::2, : lev.cut]
                F += D
            if i > 0:
                D = np.zeros((lev.n >> 1, levels[i - 1].width, g * r))
                D[:, lev.select] = F[1::2]
        X = child.reshape(-1, r)

    # 1-d base: one permuted Toeplitz multiply per class.
    Y = np.empty(X.shape)
    for a, start, units in plan._base:
        n = 2 ** (a + 1) - 1
        ranks = canonical_to_sorted_1d(a)
        rows = slice(start, start + n * units)
        S = np.empty((n, units * r))
        S[ranks] = X[rows].reshape(n, -1)
        np.take(plan.toeplitz[(dim - 1, a)].matmat(S), ranks, axis=0,
                out=Y[rows].reshape(n, -1), mode="clip")

    # Bottom-up in reverse dimension order: gather each level's B
    # right-hand side, multiply, add the A parts and write the blocks.
    for dp in range(2, dim + 1):
        axis, levels, g = dim - dp, plan._levels[dp], plan._run[dp]
        runs = Y.reshape(-1, g * r)
        out = np.empty((plan._workspace[dp] // g, g * r))
        S = None
        for i, lev in enumerate(levels):
            Sprev, S = S, np.empty((lev.n, lev.width, g * r))
            np.take(runs, lev.bbar, axis=0, out=S[0::2], mode="clip")
            if Sprev is not None:
                np.take(Sprev, lev.select, axis=1, out=S[1::2], mode="clip")
            B = plan.toeplitz[(axis, i)].matmat(S)[0::2]
            B[:, : lev.cut] += np.take(runs, lev.a_part, axis=0)
            out[lev.block] = B
        Y = out.reshape(-1, r)

    out = Y * plan.kernel.output_scale
    return out[:, 0] if single else out
