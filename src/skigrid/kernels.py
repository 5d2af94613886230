"""Stationary product kernels and structure-exploiting multiply primitives.

The kernel contract everything downstream relies on:

    k(x, y) = output_scale * prod_j k_j(|x_j - y_j|)

with each per-dimension factor k_j stationary and unit at zero distance.
On an equispaced 1-d grid such a factor realizes a symmetric Toeplitz
matrix, multiplied as a cached dense matrix while it is small and through a
circulant embedding (FFT) once it is not; on a rectilinear
grid the product structure gives a Kronecker product of per-dimension
Toeplitz factors, multiplied mode by mode.
"""

import json

import numpy as np
import scipy.linalg


class ProductKernel:
    """RBF product kernel with one lengthscale per dimension.

    Only the RBF family is implemented; the per-dimension contract is a
    stationary unit-variance 1-d function of distance (``k1d``), so another
    family slots in without touching the grid MVM machinery.
    """

    family = "rbf"

    def __init__(self, lengthscales, output_scale=1.0):
        ls = np.atleast_1d(np.asarray(lengthscales, dtype=np.float64)).copy()
        if ls.ndim != 1 or not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("lengthscales must be positive finite scalars")
        if not (np.isfinite(output_scale) and output_scale > 0):
            raise ValueError("output_scale must be positive and finite")
        ls.flags.writeable = False
        self.lengthscales = ls
        self.output_scale = float(output_scale)
        self.dim = len(ls)

    def k1d(self, j, deltas):
        """Per-dimension factor at the given distances (unit variance)."""
        deltas = np.asarray(deltas, dtype=np.float64)
        return np.exp(-(deltas * deltas) / (2.0 * self.lengthscales[j] ** 2))

    def eval(self, x, y):
        """Kernel value for a single pair of d-vectors."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        d2 = np.sum(((x - y) / self.lengthscales) ** 2)
        return self.output_scale * float(np.exp(-0.5 * d2))

    def pairwise(self, X, Y=None):
        """Dense kernel matrix between row sets X and Y (Y defaults to X).

        Accumulates scaled squared distances dimension by dimension so the
        peak footprint stays at two (n, m) arrays.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=np.float64))
        acc = np.zeros((X.shape[0], Y.shape[0]))
        for j in range(self.dim):
            diff = np.subtract.outer(X[:, j], Y[:, j])
            np.multiply(diff, diff, out=diff)
            diff /= 2.0 * self.lengthscales[j] ** 2
            acc += diff
        np.negative(acc, out=acc)
        np.exp(acc, out=acc)
        acc *= self.output_scale
        return acc

    def to_json(self, sigma2=None):
        payload = {
            "family": self.family,
            "lengthscales": self.lengthscales.tolist(),
            "output_scale": self.output_scale,
        }
        if sigma2 is not None:
            payload["sigma2"] = float(sigma2)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        if payload.get("family", "rbf") != "rbf":
            raise ValueError(f"unsupported kernel family {payload.get('family')!r}")
        return cls(payload["lengthscales"], payload.get("output_scale", 1.0))

    def __repr__(self):
        return (f"ProductKernel(lengthscales={self.lengthscales.tolist()}, "
                f"output_scale={self.output_scale})")


# Largest order multiplied as a cached dense matrix.  Through order 255 one
# BLAS matmul beats the zero-padded FFT at every column count measured
# (16 to 16384 columns, one OpenBLAS thread on a 2-vCPU x86 VM: 5-100x for
# n <= 63, 1.6-4x at n = 255); at n = 511 the FFT is 2x faster on 16
# columns, and the n x n matrix grows quadratically where the spectrum
# grows linearly.  The sparse grid's 1-d factors (order 2**(l+1) - 1) stay
# dense through resolution 7.
DENSE_MAX_ORDER = 255


class SymmetricToeplitz:
    """Symmetric Toeplitz operator, multiplied as a cached dense matrix up
    to order DENSE_MAX_ORDER and through a circulant embedding above it.

    The embedding length is the smallest power of two >= 2n; the embedded
    circulant vector is symmetric, so its transform is real.  Exactly one
    of ``matrix`` and ``spectrum`` is set.
    """

    def __init__(self, first_column):
        col = np.ascontiguousarray(first_column, dtype=np.float64)
        if col.ndim != 1 or len(col) == 0:
            raise ValueError("first_column must be a non-empty 1-d array")
        self.n = len(col)
        self.first_column = col
        self.matrix = self.spectrum = self.embed_len = None
        if self.n <= DENSE_MAX_ORDER:
            self.matrix = scipy.linalg.toeplitz(col)
            return
        L = 1 << (2 * self.n - 1).bit_length()
        circ = np.zeros(L)
        circ[: self.n] = col
        circ[L - self.n + 1 :] = col[1:][::-1]
        self.embed_len = L
        self.spectrum = np.fft.rfft(circ).real

    def matmat(self, V):
        """Multiply along axis 0: (n, ...) -> (n, ...)."""
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n:
            raise ValueError(f"leading axis must be {self.n}, got {V.shape[0]}")
        shape = V.shape
        flat = V.reshape(self.n, -1)
        if self.matrix is not None:
            return (self.matrix @ flat).reshape(shape)
        pad = np.zeros((self.embed_len, flat.shape[1]))
        pad[: self.n] = flat
        freq = np.fft.rfft(pad, axis=0)
        freq *= self.spectrum[:, None]
        out = np.fft.irfft(freq, n=self.embed_len, axis=0)[: self.n]
        return out.reshape(shape)

    def matvec(self, v):
        return self.matmat(np.asarray(v).reshape(self.n, 1))[:, 0]

    def dense(self):
        return scipy.linalg.toeplitz(self.first_column)


def toeplitz_from_grid(kernel, ell, axis=0):
    """Toeplitz operator of kernel factor ``axis`` on sorted G(ell, 1).

    The sorted 1-d sparse grid is { j/2**(ell+1) : j = 1..2**(ell+1)-1 },
    equispaced with spacing 2**-(ell+1).  first_column[t] = k_axis(t * spacing);
    the product kernel's output_scale multiplies once at the product level,
    never per factor.
    """
    n = 2 ** (ell + 1) - 1
    spacing = 2.0 ** -(ell + 1)
    return SymmetricToeplitz(kernel.k1d(axis, spacing * np.arange(n)))


def toeplitz_on_lattice(kernel, axis, count, spacing):
    """Toeplitz operator of kernel factor ``axis`` on an equispaced lattice."""
    return SymmetricToeplitz(kernel.k1d(axis, spacing * np.arange(count)))


class KroneckerToeplitz:
    """Kernel operator on a rectilinear lattice: Kronecker product of
    per-dimension Toeplitz factors, applied mode by mode.

    Lattice geometry is (count, spacing) per dimension — offsets are
    irrelevant for a stationary kernel.  Point order is row-major with
    dimension 0 slowest, matching UniformLattice.points().
    """

    def __init__(self, kernel, counts, spacings):
        counts = [int(c) for c in counts]
        if len(counts) != kernel.dim or len(spacings) != kernel.dim:
            raise ValueError("counts/spacings must have one entry per dimension")
        self.kernel = kernel
        self.counts = counts
        self.size = int(np.prod(counts, dtype=object))
        self.factors = [
            toeplitz_on_lattice(kernel, j, counts[j], spacings[j])
            for j in range(kernel.dim)
        ]

    def mvm(self, v):
        """Multiply K by v; v may be (size,) or (size, r)."""
        v = np.asarray(v, dtype=np.float64)
        single = v.ndim == 1
        if v.shape[0] != self.size:
            raise ValueError(f"vector length {v.shape[0]} != grid size {self.size}")
        x = v.reshape(self.size, -1)
        r = x.shape[1]
        # Rotate one dimension to the front per step; after d steps the column
        # axis has cycled to the front, so undo with one final reshape.
        for T in self.factors:
            X = x.reshape(T.n, -1)
            x = np.ascontiguousarray(T.matmat(X).T).ravel()
        out = x.reshape(r, self.size).T * self.kernel.output_scale
        return out[:, 0] if single else out
