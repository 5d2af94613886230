"""SKI kernel operator, conjugate-gradient solver, and GP regression.

The data kernel matrix is approximated as W K_G W^T + sigma^2 I with W a
row-sparse interpolation matrix onto a structured grid and K_G applied by a
fast backend (sparse-grid plan, dense Kronecker lattice, or the naive dense
reference).  Fitting solves (W K_G W^T + sigma^2 I) alpha = y by CG; the
predictive mean is W_* (K_G (W^T alpha)), whose grid-sized inner part is
precomputed once at fit time, so prediction evaluates the interpolant of
those grid values at the new points (interp.interpolate) and builds no W_*.

CG is preconditioned by a randomized Nystrom approximation of W K_G W^T,
sketched in place: two preallocated row buffers, small Gram matrices
updated at each doubling of the rank, and U formed once at the final rank.

An exact dense-GP oracle (Cholesky) provides reference means and marginal
log-likelihoods for validation at desk scale.
"""

import base64
import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from .grids import build_sparse_grid
from .interp import METHODS, BaseRule, UniformLattice, assemble_W, interpolate
from .kernels import KroneckerToeplitz, ProductKernel
from .sgmvm import build_plan, sg_mvm_batched

NOISE_FLOOR = 1e-10
ORACLE_POINT_CAP = 5000
SKETCH_START_RANK = 32          # first rank of the Nystrom sketch
SKETCH_SEED = 20211005          # fixed test-matrix seed: fits are reproducible
SKETCH_MVM_BYTES = 48 << 20     # grid-MVM workspace of one sketch chunk
NO_PRECONDITIONER = "no positive definite approximation; plain CG"


class CgFailure(RuntimeError):
    """CG did not reach tolerance; carries the iteration stats."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


# ---- SKI operator ----------------------------------------------------------


class SkiOperator:
    """Symmetric PSD operator v -> W K_G W^T v + sigma^2 v.

    ``mvm_floats`` is the workspace one grid MVM holds per column, in floats
    (the plan's ``workspace_floats`` for the sparse grid; the grid size when
    not given).  kernel_matmat sizes its column chunks by it, and
    ``rank_bound`` = min(n, |G|) bounds the rank of W K_G W^T.  The
    Nystrom sketch calls kernel_matmat with ``out`` set to rows of its
    buffer, so A omega is written where it is kept.
    """

    def __init__(self, W, grid_mvm, sigma2, mvm_floats=None):
        if sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        self.W = W
        self.grid_mvm = grid_mvm
        self.sigma2 = float(sigma2)
        self.n = W.shape[0]
        self.rank_bound = min(self.n, W.shape[1])
        floats = mvm_floats if mvm_floats is not None else W.shape[1]
        self.chunk = max(1, SKETCH_MVM_BYTES // (24 * floats))

    @property
    def shape(self):
        return (self.n, self.n)

    def matvec(self, v):
        return self.W.apply(self.grid_mvm(self.W.apply_transpose(v))) \
            + self.sigma2 * v

    def kernel_matmat(self, V, out=None):
        """W K_G W^T V for an (n, r) block: the operator without its noise
        term.  The grid MVM runs on chunks of ``chunk`` columns, so its
        workspace (about 3 floats per workspace float and column) stays
        under SKETCH_MVM_BYTES.  Writes into ``out`` (an (n, r) array of
        any layout) when given, else into a new array; returns it."""
        if out is None:
            out = np.empty(V.shape)
        for j in range(0, V.shape[1], self.chunk):
            cols = slice(j, j + self.chunk)
            out[:, cols] = self.W.apply(
                self.grid_mvm(self.W.apply_transpose(V[:, cols])))
        return out


def materialize_ski(W, K_grid, sigma2):
    """Dense W K_G W^T + sigma^2 I; the quadratic-cost reference."""
    Wd = W.matrix.toarray()
    return Wd @ K_grid @ Wd.T + sigma2 * np.eye(W.shape[0])


# ---- conjugate gradients ---------------------------------------------------


@dataclass(frozen=True)
class CgConfig:
    """CG stopping rule and preconditioner.

    ``preconditioner`` is "nystrom" (the default: a randomized Nystrom
    preconditioner whose rank adapts to the spectrum, built inside
    cg_solve) or "none" (plain CG).
    """

    rel_tolerance: float = 1e-4
    max_iters: int = 1000
    preconditioner: str = "nystrom"

    def __post_init__(self):
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.preconditioner not in ("nystrom", "none"):
            raise ValueError("preconditioner must be 'nystrom' or 'none'")


@dataclass
class CgStats:
    """Iteration record of one solve.

    The precond_* fields describe the Nystrom preconditioner: its final
    rank (0 when none was built), the sketch's smallest eigenvalue estimate
    over the noise, lambda_r / sigma^2, the iteration estimate at that
    rank, the seconds spent building it, and precond_note: "" normally, else
    why the rank was cut short or no preconditioner was built.
    """

    n_iters: int = 0
    converged: bool = False
    diverged: bool = False
    final_rel_residual: float = 0.0
    residual_norms: list = field(default_factory=list)
    precond_rank: int = 0
    precond_lambda_ratio: float = 0.0
    precond_iter_estimate: float = 0.0
    precond_seconds: float = 0.0
    precond_note: str = ""


def _grow_gram(gram, left, right, old):
    """left @ right.T for (r, n) row blocks whose leading ``old`` rows give
    ``gram``: only the blocks of the new rows are multiplied."""
    out = np.empty((len(left), len(right)))
    out[:old, :old] = gram
    out[:, old:] = left @ right[old:].T
    out[old:, :old] = left[old:] @ right[:old].T
    return out


def _sandwich(r, x):
    """r^-T x r^-1 for upper triangular r."""
    z = scipy.linalg.solve_triangular(r, x, trans="T")
    return scipy.linalg.solve_triangular(r, z.T, trans="T").T


def _nystrom_factors(g_oo, g_oy, g_yy, n):
    """Factors of the stabilized Nystrom approximation of A from r x r Grams.

    With Y = A omega, the Grams are g_oo = omega^T omega, g_oy = omega^T Y
    and g_yy = Y^T Y.  omega = Q R with R = chol(g_oo) (Cholesky QR; a
    Gaussian omega is well conditioned) and A Q = Y R^-1, shifted by nu =
    sqrt(n) eps(||Y R^-1||_F).  The core Q^T (A Q + nu Q) = C^T C, and the
    eigenvalues of B^T B for B = (Y + nu omega) R^-1 C^-1, less nu, are
    those of the approximation.  Returns (R, C, nu, lam_r), lam_r the
    smallest of them.  Raises LinAlgError when omega or the core is not
    positive definite.

    B^T B is formed from g_yy, which squares Y, so once lam_r falls toward
    sqrt(eps) ||A|| its smallest eigenvalues are noise.  They only choose
    the rank: _nystrom_basis forms U from B itself.
    """
    r = scipy.linalg.cholesky(g_oo)
    eye = _sandwich(r, g_oo)
    cross = _sandwich(r, g_oy)
    yy = _sandwich(r, g_yy)
    nu = np.sqrt(n) * np.spacing(np.sqrt(max(np.trace(yy), 0.0)))
    core = cross + nu * eye
    c = scipy.linalg.cholesky((core + core.T) / 2)
    btb = _sandwich(c, yy + nu * (cross + cross.T) + nu**2 * eye)
    lam_r = np.linalg.eigvalsh((btb + btb.T) / 2)[0] - nu
    return r, c, nu, max(lam_r, 0.0)


def _nystrom_basis(omega_t, y_t, r, c, nu):
    """(U, lam) of the approximation _nystrom_factors factored, from the
    sketch rows omega^T and Y^T, which it overwrites: B^T = (C R)^-T (Y +
    nu omega)^T is formed in Y's rows and U = B V S^-1/2 from the
    eigendecomposition V S V^T of B^T B, with nu taken off lam.  lam is
    descending; U holds only the columns with lam > 0, since the
    preconditioner is the identity on the others."""
    omega_t *= nu
    y_t += omega_t
    b = scipy.linalg.blas.dtrsm(1.0, c @ r, y_t.T, side=1, overwrite_b=True)
    s2, v = np.linalg.eigh(b.T @ b)
    s2, v = s2[::-1], v[:, ::-1]
    lam = np.maximum(s2 - nu, 0.0)
    keep = lam > 0
    return b @ (v[:, keep] / np.sqrt(s2[keep])), lam


def _iteration_estimate(lam_r, s2, tol):
    """(lam_r / s2, 1/2 sqrt(1 + lam_r / s2) ln(2 / tol))."""
    ratio = lam_r / s2 if s2 > 0 else np.inf
    return ratio, 0.5 * np.sqrt(1.0 + ratio) * np.log(2.0 / tol)


def _nystrom_preconditioner(op, tol, stats):
    """r -> P^-1 r for P^-1 = (lam_r + s2) U (Lam + s2 I)^-1 U^T + (I - U U^T).

    The rank starts at SKETCH_START_RANK and doubles while the iteration
    estimate 1/2 sqrt(1 + lam_r / s2) ln(2 / tol) exceeds it, up to
    op.rank_bound.  The Gaussian test matrix is drawn from a fixed seed, so
    solves are reproducible.

    The sketch is built in place: omega^T and Y^T = (A omega)^T live in two
    (rank_bound, n) buffers, of which a doubling writes only its own rows
    (rows never written are never touched), and a doubling adds only the
    new blocks of the r x r Grams that _nystrom_factors works from.  U is
    formed once, at the final rank, and the buffers are freed when this
    returns, so at most three n x r arrays are alive at once.

    When the factorization fails (a full-rank sketch can lose more
    orthogonality than the shift covers), the largest of rank/2, rank/4,
    ... that factors is kept, from the leading blocks of the Grams, and the
    doubling stops.  Returns None when no rank factors or no positive
    definite approximation exists (an operator that is not PSD); plain CG
    then reports the failure.  stats.precond_note says why the rank was
    cut or no preconditioner was built.
    """
    n, s2 = op.n, op.sigma2
    rng = np.random.default_rng(SKETCH_SEED)
    omega_t = np.empty((op.rank_bound, n))
    y_t = np.empty((op.rank_bound, n))
    grams = [np.empty((0, 0))] * 3
    rank = min(SKETCH_START_RANK, op.rank_bound)
    done = 0
    while True:
        omega_t[done:rank] = rng.standard_normal((n, rank - done)).T
        op.kernel_matmat(omega_t[done:rank].T, out=y_t[done:rank].T)
        grams = [_grow_gram(g, a[:rank], b[:rank], done) for g, a, b in
                 zip(grams, (omega_t, omega_t, y_t), (omega_t, y_t, y_t))]
        kept, factors = _largest_factoring(grams, rank, n)
        if factors is None:
            stats.precond_note = NO_PRECONDITIONER
            return None
        if kept < rank:
            stats.precond_note = (f"factorization failed at rank {rank}; "
                                  f"kept rank {kept}")
            rank = kept
            break
        _, estimate = _iteration_estimate(factors[-1], s2, tol)
        if estimate <= rank or rank == op.rank_bound:
            break
        done, rank = rank, min(2 * rank, op.rank_bound)
    u, lam = _nystrom_basis(omega_t[:rank], y_t[:rank], *factors[:3])
    scale = lam[-1] + s2
    if scale <= 0:
        stats.precond_note = NO_PRECONDITIONER
        return None
    stats.precond_rank = rank
    ratio, estimate = _iteration_estimate(lam[-1], s2, tol)
    stats.precond_lambda_ratio = float(ratio)
    stats.precond_iter_estimate = float(estimate)
    coef = scale / (lam[: u.shape[1]] + s2) - 1.0
    return lambda res: res + u @ (coef * (u.T @ res))


def _largest_factoring(grams, rank, n):
    """(k, _nystrom_factors) for the largest of rank, rank/2, rank/4, ...
    whose leading k x k Gram blocks factor; (0, None) when none does."""
    while rank:
        try:
            return rank, _nystrom_factors(*(g[:rank, :rank] for g in grams), n)
        except np.linalg.LinAlgError:
            rank //= 2
    return 0, None


def cg_solve(op, y, cfg=CgConfig()):
    """Solve op @ alpha = y by CG, Nystrom-preconditioned by default.

    ``op`` provides matvec(v), the whole operator, and for the
    preconditioner ``n``, ``sigma2``, ``rank_bound`` and kernel_matmat(V,
    out), the operator without sigma2 I on an (n, r) block, written into
    ``out``.  The preconditioner is built here, so its cost is part of the
    solve (stats.precond_seconds).
    Runs until the unpreconditioned relative residual ||r|| / ||y|| drops
    below cfg.rel_tolerance or the iteration budget is spent (reported in
    stats, not raised).  A search direction with p^T A p <= 0 means the
    operator is not positive definite and stops the solve as diverged.
    The 2-norm residual of CG is not monotone; stats.residual_norms
    records its trajectory.
    """
    y = np.asarray(y, dtype=np.float64)
    stats = CgStats()
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        stats.converged = True
        return np.zeros_like(y), stats

    precond = None
    if cfg.preconditioner == "nystrom":
        t0 = time.perf_counter()
        precond = _nystrom_preconditioner(op, cfg.rel_tolerance, stats)
        stats.precond_seconds = time.perf_counter() - t0

    x = np.zeros_like(y)
    r = y.copy()
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, cfg.max_iters + 1):
        Ap = op.matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0:
            stats.diverged = True  # operator not PD on this subspace
            break
        step = rz / pAp
        x += step * p
        r -= step * Ap
        rn = float(np.linalg.norm(r))
        stats.n_iters = it
        stats.residual_norms.append(rn)
        stats.final_rel_residual = rn / ynorm
        if rn <= cfg.rel_tolerance * ynorm:
            stats.converged = True
            break
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, stats


# ---- domain map ------------------------------------------------------------


@dataclass(frozen=True)
class DomainMap:
    """Per-dimension affine map of the data box into [delta, 1-delta]."""

    lo: np.ndarray
    width: np.ndarray
    delta: float

    @classmethod
    def fit(cls, X, delta):
        mn = X.min(axis=0)
        mx = X.max(axis=0)
        span = mx - mn
        eps = 0.01 * span
        return cls(lo=mn - eps, width=span + 2 * eps, delta=float(delta))

    def forward(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.full_like(X, 0.5)
        ok = self.width > 0
        out[:, ok] = self.delta + (X[:, ok] - self.lo[ok]) / self.width[ok] \
            * (1 - 2 * self.delta)
        return out

    def to_json(self):
        return {"lo": self.lo.tolist(), "width": self.width.tolist(),
                "delta": self.delta}

    @classmethod
    def from_json(cls, obj):
        return cls(np.asarray(obj["lo"], dtype=np.float64),
                   np.asarray(obj["width"], dtype=np.float64),
                   float(obj["delta"]))


# ---- GP model --------------------------------------------------------------


@dataclass(frozen=True)
class GpConfig:
    kernel: ProductKernel
    sigma2: float
    grid: str = "sparse"            # sparse | dense
    resolution: int = 4             # sparse-grid resolution
    dense_count: int = 8            # points per dimension for grid="dense"
    rule: str = "simplicial"
    method: str = "combination"     # combination | subsampled
    cg: CgConfig = field(default_factory=CgConfig)

    def __post_init__(self):
        if self.grid not in ("sparse", "dense"):
            raise ValueError("grid must be 'sparse' or 'dense'")
        if self.grid == "dense" and self.dense_count < 1:
            raise ValueError("dense_count must be >= 1")
        BaseRule(self.rule)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


def _build_backend(cfg, dim):
    """(grid object for W assembly, grid kernel MVM, half-spacing delta,
    workspace floats per column of one MVM)."""
    if cfg.grid == "sparse":
        grid = build_sparse_grid(cfg.resolution, dim)
        plan = build_plan(cfg.resolution, dim, cfg.kernel)
        return (grid, lambda v: sg_mvm_batched(plan, v),
                2.0 ** -(cfg.resolution + 1), plan.workspace_floats)
    lattice = UniformLattice.unit(dim, cfg.dense_count)
    kron = KroneckerToeplitz(cfg.kernel, lattice.counts, lattice.spacings)
    return lattice, kron.mvm, 0.5 / cfg.dense_count, kron.size


class GpModel:
    """Fitted SKI GP.

    Predictions are y_mean + y_std * (the fitted GP's mean): when the
    targets were standardized before fitting, y_mean and y_std undo it.
    Both are saved with the model.
    """

    def __init__(self, config, domain_map, grid, grid_dual, alpha, fit_stats,
                 n_train, y_mean=0.0, y_std=1.0):
        self.config = config
        self.domain_map = domain_map
        self.grid = grid
        self.grid_dual = grid_dual      # K_G (W^T alpha), grid-sized
        self.alpha = alpha
        self.fit_stats = fit_stats
        self.n_train = n_train
        self.y_mean = float(y_mean)
        self.y_std = float(y_std)

    def predict_mean(self, Xs):
        Xs = np.asarray(Xs, dtype=np.float64)
        if Xs.ndim != 2:
            raise ValueError("Xs must be (m, d)")
        d = len(self.domain_map.lo)
        if Xs.shape[1] != d:
            raise ValueError(f"Xs has {Xs.shape[1]} columns; the model was "
                             f"fitted on {d}")
        # checked here, not only on U: forward maps a column that was
        # constant in training to 0.5 whatever Xs holds there
        if not np.isfinite(Xs).all():
            raise ValueError("Xs must be finite")
        U = self.domain_map.forward(Xs)
        mean = interpolate(U, self.grid, self.grid_dual,
                           BaseRule(self.config.rule), method=self.config.method)
        return mean * self.y_std + self.y_mean

    def save(self, path, **extra):
        """Write the model as JSON; ``extra`` adds top-level keys."""
        cfg = self.config
        payload = {
            "format": "skigrid-gp-1",
            "kernel": json.loads(cfg.kernel.to_json(sigma2=cfg.sigma2)),
            "grid": {"kind": cfg.grid, "resolution": cfg.resolution,
                     "dense_count": cfg.dense_count, "dim": len(self.domain_map.lo)},
            "rule": cfg.rule,
            "method": cfg.method,
            "cg": {"rel_tolerance": cfg.cg.rel_tolerance,
                   "max_iters": cfg.cg.max_iters,
                   "preconditioner": cfg.cg.preconditioner},
            "domain_map": self.domain_map.to_json(),
            "n_train": self.n_train,
            "y_standardization": {"mean": self.y_mean, "std": self.y_std},
            "alpha": _b64(self.alpha),
            "grid_dual": _b64(self.grid_dual),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def _b64(arr):
    return base64.b64encode(np.asarray(arr, dtype=np.float64).tobytes()).decode()


def _unb64(s):
    return np.frombuffer(base64.b64decode(s), dtype=np.float64).copy()


def load_model(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "skigrid-gp-1":
        raise ValueError(f"unrecognized model format in {path}")
    kernel = ProductKernel.from_json(json.dumps(payload["kernel"]))
    sigma2 = payload["kernel"]["sigma2"]
    g = payload["grid"]
    cg = dict(payload["cg"])
    # Stored CG settings are provenance only; Jacobi no longer exists, so
    # files that name it load with today's default.
    if cg.get("preconditioner") == "jacobi":
        cg["preconditioner"] = CgConfig.preconditioner
    cfg = GpConfig(
        kernel=kernel, sigma2=sigma2, grid=g["kind"],
        resolution=g["resolution"], dense_count=g["dense_count"],
        rule=payload["rule"], method=payload["method"],
        cg=CgConfig(**cg),
    )
    grid = (build_sparse_grid(cfg.resolution, g["dim"]) if cfg.grid == "sparse"
            else UniformLattice.unit(g["dim"], cfg.dense_count))
    ystd = payload.get("y_standardization", {"mean": 0.0, "std": 1.0})
    return GpModel(
        config=cfg,
        domain_map=DomainMap.from_json(payload["domain_map"]),
        grid=grid,
        grid_dual=_unb64(payload["grid_dual"]),
        alpha=_unb64(payload["alpha"]),
        fit_stats=None,
        n_train=payload["n_train"],
        y_mean=ystd["mean"],
        y_std=ystd["std"],
    )


def fit(config, X, y):
    """Fit the SKI GP: map the domain, assemble W, solve for alpha by CG."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("X must be (n, d) with n >= 1")
    if y.shape != (len(X),):
        raise ValueError("y must be one target per row of X")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    if config.sigma2 < NOISE_FLOOR:
        raise ValueError(
            f"sigma2={config.sigma2} below the CG noise floor {NOISE_FLOOR}")
    dim = X.shape[1]
    if config.kernel.dim != dim:
        raise ValueError(f"kernel dim {config.kernel.dim} != data dim {dim}")

    grid, grid_mvm, delta, mvm_floats = _build_backend(config, dim)
    dmap = DomainMap.fit(X, delta)
    W = assemble_W(dmap.forward(X), grid, BaseRule(config.rule),
                   method=config.method)
    op = SkiOperator(W, grid_mvm, config.sigma2, mvm_floats=mvm_floats)
    alpha, stats = cg_solve(op, y, config.cg)
    if not stats.converged:
        raise CgFailure(
            f"CG stopped after {stats.n_iters} iterations at relative "
            f"residual {stats.final_rel_residual:.3e}"
            + (" (diverged)" if stats.diverged else ""), stats)
    grid_dual = grid_mvm(W.apply_transpose(alpha))
    return GpModel(config, dmap, grid, grid_dual, alpha, stats, len(X))


# ---- exact dense GP oracle -------------------------------------------------


def exact_gp_oracle(X, y, Xs, kernel, sigma2, point_cap=ORACLE_POINT_CAP):
    """Dense-Cholesky GP posterior mean at Xs and log marginal likelihood.

    Retries the factorization once with a trace-scaled jitter (1e-8 tr/n)
    if the covariance is numerically indefinite.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = len(X)
    if point_cap is not None and n > point_cap:
        raise ValueError(f"exact oracle limited to {point_cap} points, got {n}")
    K = kernel.pairwise(X)
    K[np.diag_indices_from(K)] += sigma2
    try:
        cho = scipy.linalg.cho_factor(K, lower=True)
    except np.linalg.LinAlgError:
        K[np.diag_indices_from(K)] += 1e-8 * np.trace(K) / n
        cho = scipy.linalg.cho_factor(K, lower=True)
    alpha = scipy.linalg.cho_solve(cho, y)
    logp = float(
        -0.5 * (y @ alpha)
        - np.log(np.diag(cho[0])).sum()
        - 0.5 * n * np.log(2 * np.pi)
    )
    mean = kernel.pairwise(np.atleast_2d(Xs), X) @ alpha
    return mean, logp


# ---- dataset I/O -----------------------------------------------------------


def read_xy_csv(path):
    """Read a dataset CSV: one row per sample, last column the target.

    A single leading header row is allowed and detected by a non-numeric
    cell.  Malformed rows raise ValueError naming the offending line.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for lineno, cells in enumerate(reader, start=1):
            if not cells or all(c.strip() == "" for c in cells):
                continue
            try:
                vals = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric value in {cells!r}"
                ) from None
            if width is None:
                width = len(vals)
                if width < 2:
                    raise ValueError(
                        f"{path}: line {lineno}: need >= 2 columns "
                        "(features..., target)")
            elif len(vals) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} columns, "
                    f"got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return data[:, :-1], data[:, -1]
