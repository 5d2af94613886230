"""Experiment harness: synthetic tasks, MVM scaling, interpolation and GP studies.

Every study returns an :class:`ExperimentResult` holding plot-ready metric
rows (long format, one metric per row) plus a config echo and environment
metadata.  Results serialize to JSON lines and CSV; each emitted JSON record
is validated against the bundled ``schema/results.schema.json``.
"""

import csv
import gc
import json
import math
import platform
import sys
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources

import numpy as np

from .grids import build_sparse_grid, sparse_grid_size
from .interp import BaseRule, UniformLattice, interpolator
from .kernels import ProductKernel
from .sgmvm import build_plan, sg_mvm, sg_mvm_batched
from .ski import CgConfig, CgFailure, GpConfig, exact_gp_oracle, fit, \
    read_xy_csv

SYNTHETIC_FUNCTIONS = ("cos_l1", "aniso_cos", "corner_peak")

DEFAULT_NAIVE_BENCH_CAP = 3 * 10**4
PIGGYBACK_RTOL = 1e-8


class MvmMismatch(RuntimeError):
    """Two MVM backends disagreed on the same input (correctness gate)."""


# ---- synthetic tasks -----------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask:
    """A seeded synthetic regression problem on [0,1]^d.

    ``w`` and ``c`` are the random shift/direction parameters of the
    aniso_cos and corner_peak families; they are drawn once per task from
    the task seed unless given explicitly.
    """

    function: str
    dim: int
    noise_std: float = 0.05
    seed: int = 0
    n_train: int = 1000
    n_test: int = 200
    w: float = None
    c: tuple = None

    def __post_init__(self):
        if self.function not in SYNTHETIC_FUNCTIONS:
            raise ValueError(f"unknown function {self.function!r}, "
                             f"expected one of {SYNTHETIC_FUNCTIONS}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        rng = np.random.default_rng([self.seed, 1])
        w = rng.uniform()
        c = rng.uniform(size=self.dim)
        if self.w is None:
            object.__setattr__(self, "w", float(w))
        if self.c is None:
            object.__setattr__(self, "c", tuple(float(x) for x in c))
        elif len(self.c) != self.dim:
            raise ValueError("c must have one entry per dimension")

    def evaluate(self, X):
        """Noiseless target values at the rows of X."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.function == "cos_l1":
            return np.cos(np.abs(X).sum(axis=1))
        c = np.asarray(self.c)
        if self.function == "aniso_cos":
            return np.cos(2.0 * np.pi * self.w + X @ c)
        return (1.0 + X @ c) ** (-(self.dim + 1))


def gen_synthetic(task):
    """(X_train, y_train, X_test, f_test_clean) for a task.

    Training targets carry noise_std * standard-normal noise; test targets
    are returned noiseless so errors measure distance to the true function.
    """
    d = task.dim
    X = np.random.default_rng([task.seed, 2]).uniform(size=(task.n_train, d))
    noise = np.random.default_rng([task.seed, 3]).standard_normal(task.n_train)
    Xs = np.random.default_rng([task.seed, 4]).uniform(size=(task.n_test, d))
    y = task.evaluate(X) + task.noise_std * noise
    return X, y, Xs, task.evaluate(Xs)


def split_4_2_3(n, seed=0):
    """Shuffled train/val/test index arrays in the ratio 4:2:3."""
    if n < 3:
        raise ValueError("need at least 3 rows to split")
    perm = np.random.default_rng([seed, 9]).permutation(n)
    n_tr = (4 * n) // 9
    n_val = (2 * n) // 9
    return perm[:n_tr], perm[n_tr:n_tr + n_val], perm[n_tr + n_val:]


# ---- result container ----------------------------------------------------


def environment_metadata():
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "noise_interpretation": "std",
    }


def _scalar(v):
    # json/csv-safe scalars only; numpy types narrowed to python ones
    # (numpy first: np.float64 subclasses float and would slip through)
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    raise TypeError(f"metric rows hold scalars only, got {type(v).__name__}")


@lru_cache(maxsize=1)
def results_schema():
    text = resources.files("skigrid").joinpath(
        "schema/results.schema.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def _validator():
    import jsonschema

    return jsonschema.Draft202012Validator(results_schema())


@dataclass
class ExperimentResult:
    """Config echo, metadata, and long-format metric rows for one study."""

    experiment: str
    config: dict
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=environment_metadata)

    def add(self, metric, value, unit=None, **keys):
        row = {"experiment": self.experiment, "metric": str(metric),
               "value": _scalar(value)}
        if unit is not None:
            row["unit"] = unit
        for k, v in keys.items():
            row[k] = _scalar(v)
        self.rows.append(row)
        return row

    def metric_rows(self, metric=None, **keys):
        out = [r for r in self.rows
               if (metric is None or r["metric"] == metric)
               and all(r.get(k) == v for k, v in keys.items())]
        return out

    def json_records(self):
        head = {"record": "header", "experiment": self.experiment,
                "config": self.config, "metadata": self.metadata}
        return [head] + [{"record": "row", **r} for r in self.rows]

    def write_json_lines(self, path):
        v = _validator()
        records = self.json_records()
        for rec in records:
            v.validate(rec)
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def write_csv(self, path):
        lead = ["experiment", "metric", "value", "unit"]
        extra = sorted({k for r in self.rows for k in r} - set(lead))
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=lead + extra, restval="")
            w.writeheader()
            for r in self.rows:
                w.writerow(r)


def fit_loglog_slope(sizes, values):
    """Least-squares slope of log(value) against log(size)."""
    xs = np.log(np.asarray(sizes, dtype=np.float64))
    ys = np.log(np.asarray(values, dtype=np.float64))
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(xs, ys, 1)[0])


# ---- MVM scaling study ---------------------------------------------------


def _make_iterative(ell, dim, kernel, size_cap):
    plan = build_plan(ell, dim, kernel, size_cap=size_cap)
    return lambda v: sg_mvm_batched(plan, v)


def _make_recursive(ell, dim, kernel, size_cap):
    plan = build_plan(ell, dim, kernel, size_cap=size_cap)
    return lambda v: sg_mvm(plan, v)


def _make_naive(ell, dim, kernel, size_cap):
    # Matrix-free on purpose: a materialised K turns every later multiply
    # into a bandwidth-bound dgemv whose apparent growth drifts with cache
    # size.  Recomputing kernel blocks keeps the work compute-bound, so
    # the fitted trend is the quadratic cost itself.
    pts = build_sparse_grid(ell, dim).points()

    def mvm(v, _block=2048):
        v = np.asarray(v, dtype=np.float64)
        out = np.empty(len(pts))
        for lo in range(0, len(pts), _block):
            out[lo:lo + _block] = kernel.pairwise(pts[lo:lo + _block], pts) @ v
        return out

    return mvm


# name -> factory(ell, dim, kernel, size_cap) -> mvm callable.
# Kept as a mutable module-level table so tests can inject a broken
# backend and watch the correctness gate trip.
ALGO_REGISTRY = {
    "iterative": _make_iterative,
    "recursive": _make_recursive,
    "naive": _make_naive,
}


def _time_reps(mvm, v, reps):
    mvm(v)  # warm-up, discarded
    ts = np.empty(reps)
    for i in range(reps):
        t0 = time.perf_counter()
        mvm(v)
        ts[i] = time.perf_counter() - t0
    stderr = float(ts.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return float(ts.mean()), stderr


def _peak_bytes(factory, v):
    # separate pass: allocator high-water of build + one multiply
    gc.collect()
    tracemalloc.start()
    try:
        mvm = factory()
        mvm(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del mvm
    gc.collect()
    return peak


def run_mvm_scaling(dim, ells, algos=("iterative", "recursive", "naive"),
                    reps=8, seed=0, naive_cap=DEFAULT_NAIVE_BENCH_CAP,
                    size_cap=None, kernel=None):
    """Per-MVM time, build time, and peak memory across grid resolutions.

    Every resolution at which two or more backends run gets a correctness
    gate: all outputs on a shared random vector must agree to relative L2
    1e-8 (naive is the reference when present) before any timing row for
    that resolution is recorded.  Naive runs above ``naive_cap`` points are
    replaced by explicit skipped rows.
    """
    algos = list(algos)
    unknown = [a for a in algos if a not in ALGO_REGISTRY]
    if unknown:
        raise ValueError(f"unknown algos {unknown}; "
                         f"registry has {sorted(ALGO_REGISTRY)}")
    if kernel is None:
        kernel = ProductKernel([0.3] * dim)
    res = ExperimentResult(
        "mvm_scaling",
        {"dim": dim, "ells": list(ells), "algos": algos, "reps": reps,
         "seed": seed, "naive_cap": naive_cap, "size_cap": size_cap,
         "kernel": json.loads(kernel.to_json())},
    )
    for ell in ells:
        size = sparse_grid_size(ell, dim)
        res.add("grid_points", size, unit="points", ell=ell, d=dim)
        v = np.random.default_rng([seed, ell]).standard_normal(size)

        staged, outputs = [], {}
        for algo in algos:
            if algo == "naive" and size > naive_cap:
                warnings.warn(
                    f"naive skipped at ell={ell}: {size} points exceed "
                    f"cap {naive_cap}", RuntimeWarning)
                res.add("status", "skipped", algo=algo, ell=ell, d=dim,
                        reason=f"{size} points exceed naive cap {naive_cap}")
                continue
            factory = ALGO_REGISTRY[algo]
            t0 = time.perf_counter()
            mvm = factory(ell, dim, kernel, size_cap)
            build = time.perf_counter() - t0
            outputs[algo] = np.asarray(mvm(v), dtype=np.float64)
            mean, stderr = _time_reps(mvm, v, reps)
            del mvm
            gc.collect()
            peak = _peak_bytes(lambda: factory(ell, dim, kernel, size_cap), v)
            staged.append((algo, build, mean, stderr, peak))

        if len(outputs) >= 2:
            ref_algo = "naive" if "naive" in outputs else staged[0][0]
            ref = outputs[ref_algo]
            scale = np.linalg.norm(ref)
            for algo, u in outputs.items():
                rel = np.linalg.norm(u - ref) / scale if scale else 0.0
                if rel > PIGGYBACK_RTOL:
                    raise MvmMismatch(
                        f"{algo} disagrees with {ref_algo} at ell={ell}, "
                        f"d={dim}: relative L2 error {rel:.3e}")

        for algo, build, mean, stderr, peak in staged:
            key = {"algo": algo, "ell": ell, "d": dim}
            res.add("build_time", build, unit="s", **key)
            res.add("mvm_time_mean", mean, unit="s", **key)
            res.add("mvm_time_stderr", stderr, unit="s", **key)
            res.add("cg_proxy_time", build + 50 * mean, unit="s", **key)
            res.add("peak_memory", peak, unit="bytes", **key)
    return res


# ---- interpolation accuracy study ----------------------------------------


def matched_dense_side(ell, dim):
    """Smallest per-dimension count whose dense grid reaches |G(ell, dim)|."""
    target = sparse_grid_size(ell, dim)
    side = max(1, int(round(target ** (1.0 / dim))))
    while side**dim < target:
        side += 1
    while side > 1 and (side - 1) ** dim >= target:
        side -= 1
    return side


def run_interp_accuracy(task, grids=None, rules=("simplicial",), n_eval=200):
    """RMS interpolation error per (grid kind, rule, size), the sparse
    grids' rows comparing base rules under the combination technique.

    ``grids`` is a list of ("sparse", resolution) / ("dense", side) pairs;
    the default pairs resolutions 2..5 with point-budget-matched dense
    lattices.  The function is sampled exactly on the grid (no noise).
    """
    d = task.dim
    if grids is None:
        grids = [("sparse", ell) for ell in range(2, 6)]
        grids += [("dense", matched_dense_side(ell, d)) for ell in range(2, 6)]
    res = ExperimentResult(
        "interp_accuracy",
        {"function": task.function, "dim": d, "seed": task.seed,
         "grids": [list(g) for g in grids], "rules": list(rules),
         "n_eval": n_eval},
    )
    Xe = np.random.default_rng([task.seed, 5]).uniform(size=(n_eval, d))
    fe = task.evaluate(Xe)

    for kind, size in grids:
        if kind == "sparse":
            grid = build_sparse_grid(size, d)
        elif kind == "dense":
            grid = UniformLattice.unit(d, size)
        else:
            raise ValueError(f"grid kind must be sparse or dense, got {kind!r}")
        f_grid = task.evaluate(grid.points())
        for rule in rules:
            tables = interpolator(grid, BaseRule(rule), method="combination")
            err = tables.evaluate(Xe, tables.table_values(f_grid)) - fe
            rms = float(np.sqrt(np.mean(err**2)))
            key = {"kind": kind, "size": size, "rule": rule, "d": d,
                   "function": task.function}
            res.add("grid_points", grid.size, unit="points", **key)
            res.add("rms_error", rms, **key)
    return res


# ---- GP regression study -------------------------------------------------


def run_gp_study(tasks, resolution=4, lengthscale=0.3, sigma2=None,
                 cg=None, grids=("sparse", "dense"), include_exact=False,
                 exact_point_cap=5000):
    """Test RMSE per (task, grid kind) at resolution ``ell`` sparse vs the
    point-budget-matched dense lattice; optionally an exact-GP oracle row.

    CG failures are recorded in the affected row rather than raised.
    """
    res = ExperimentResult(
        "gp_study",
        {"tasks": [{"function": t.function, "dim": t.dim, "seed": t.seed,
                    "noise_std": t.noise_std, "n_train": t.n_train,
                    "n_test": t.n_test} for t in tasks],
         "resolution": resolution, "lengthscale": lengthscale,
         "sigma2": sigma2, "grids": list(grids),
         "include_exact": include_exact},
    )
    for task in tasks:
        d = task.dim
        X, y, Xs, fs = gen_synthetic(task)
        s2 = sigma2 if sigma2 is not None else max(task.noise_std**2, 1e-6)
        kernel = ProductKernel([lengthscale] * d)
        side = matched_dense_side(resolution, d)
        base = {"function": task.function, "d": d, "n_train": task.n_train}
        res.add("sparse_grid_points", sparse_grid_size(resolution, d),
                unit="points", **base)
        res.add("dense_grid_points", side**d, unit="points", **base)

        for kind in grids:
            cfg = GpConfig(kernel=kernel, sigma2=s2, grid=kind,
                           resolution=resolution, dense_count=side,
                           cg=cg if cg is not None else
                           CgConfig(rel_tolerance=1e-5, max_iters=2000))
            key = {**base, "grid": kind}
            t0 = time.perf_counter()
            model = _fit_rows(res, cfg, X, y, key)
            if model is None:
                continue
            took = time.perf_counter() - t0
            rmse = float(np.sqrt(np.mean((model.predict_mean(Xs) - fs) ** 2)))
            res.add("fit_time", took, unit="s", **key)
            res.add("test_rmse", rmse, **key)

        if include_exact and task.n_train <= exact_point_cap:
            mu, logp = exact_gp_oracle(X, y, Xs, kernel, s2,
                                       point_cap=exact_point_cap)
            rmse = float(np.sqrt(np.mean((mu - fs) ** 2)))
            res.add("test_rmse", rmse, **{**base, "grid": "exact"})
            res.add("log_marginal", float(logp), **{**base, "grid": "exact"})
    return res


def cg_report(stats):
    """A fit's CG and preconditioner statistics, by report name."""
    return {"cg_iterations": stats.n_iters,
            "final_rel_residual": stats.final_rel_residual,
            "precond_rank": stats.precond_rank,
            "precond_lambda_ratio": stats.precond_lambda_ratio,
            "precond_iter_estimate": stats.precond_iter_estimate,
            "precond_seconds": stats.precond_seconds}


def _fit_rows(res, cfg, X, y, key):
    """Fit and add its CG rows to ``res``; a CG failure is recorded in the
    rows (with a null test_rmse) and returns None."""
    try:
        model = fit(cfg, X, y)
    except CgFailure as exc:
        res.add("cg_converged", False, **key)
        res.add("cg_error", str(exc), **key)
        res.add("test_rmse", None, **key)
        stats, model = exc.stats, None
    else:
        res.add("cg_converged", True, **key)
        stats = model.fit_stats
    for name, value in cg_report(stats).items():
        res.add(name, value, unit="s" if name == "precond_seconds" else None,
                **key)
    return model


def run_csv_study(data, resolution=4, lengthscales=(0.3,), sigma2=0.0025,
                  cg=None, seed=0, standardize=True):
    """4:2:3 split study on a CSV dataset, sparse vs matched dense grids.

    Targets are standardized with training-split statistics when asked; the
    fitted model carries the transform, so its predictions are on the data
    scale (``*_rmse_raw``) and ``*_rmse`` is that over the training std.
    """
    X, y = read_xy_csv(data)
    dim = X.shape[1]
    tr, val, te = split_4_2_3(len(X), seed=seed)
    y_mean, y_std = 0.0, 1.0
    if standardize:
        y_mean = float(y[tr].mean())
        y_std = float(y[tr].std()) or 1.0
    ls = list(lengthscales)
    side = matched_dense_side(resolution, dim)
    res = ExperimentResult(
        "gp_study",
        {"data": data, "dim": dim, "resolution": resolution,
         "lengthscales": ls, "sigma2": sigma2, "seed": seed,
         "split": "4:2:3", "standardize": bool(standardize)},
    )
    res.add("split_sizes", f"{len(tr)}:{len(val)}:{len(te)}", d=dim)
    res.add("sparse_grid_points", sparse_grid_size(resolution, dim),
            unit="points", d=dim)
    res.add("dense_grid_points", side**dim, unit="points", d=dim)
    if len(ls) == 1:
        ls = ls * dim
    for kind in ("sparse", "dense"):
        cfg = GpConfig(kernel=ProductKernel(ls), sigma2=sigma2, grid=kind,
                       resolution=resolution, dense_count=side,
                       cg=cg if cg is not None else CgConfig())
        key = {"grid": kind, "d": dim}
        model = _fit_rows(res, cfg, X[tr], (y[tr] - y_mean) / y_std, key)
        if model is None:
            continue
        model.y_mean, model.y_std = y_mean, y_std
        for split, idx in (("val", val), ("test", te)):
            raw = float(np.sqrt(np.mean(
                (model.predict_mean(X[idx]) - y[idx]) ** 2)))
            res.add(f"{split}_rmse", raw / y_std, **key, scale="standardized")
            res.add(f"{split}_rmse_raw", raw, **key, scale="raw")
    return res
