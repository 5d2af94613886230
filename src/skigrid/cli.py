"""Command-line entry point: grid inspection, benchmarks, GP fit/predict.

Exit codes are a stable contract: 0 ok, 1 input error, 2 correctness
failure, 3 resource cap, 4 solver failure.  Machine-readable output (JSON
on stdout, results files on disk) comes first; human summaries go to
stderr.  Flags override keys from --config files; every run echoes the
fully-resolved configuration.
"""

import csv
import json
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from .bench import (
    MvmMismatch,
    SyntheticTask,
    cg_report,
    environment_metadata,
    matched_dense_side,
    run_csv_study,
    run_gp_study,
    run_interp_accuracy,
    run_mvm_scaling,
)
from .grids import GridCapExceeded, build_sparse_grid, dump_points_csv, \
    sparse_grid_size
from .kernels import ProductKernel
from .ski import CgConfig, CgFailure, GpConfig, fit, load_model, read_xy_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CORRECTNESS = 2
EXIT_RESOURCES = 3
EXIT_SOLVER = 4


@dataclass
class CliConfig:
    """Fully-resolved invocation: defaults <- config file <- explicit flags."""

    subcommand: str
    config_path: str = None
    seed: int = 0
    output: str = None
    verbosity: int = 0
    resolved: dict = field(default_factory=dict)


def _load_config_file(path):
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise ValueError("TOML config files need Python 3.11+; "
                             "use JSON instead")
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve(subcommand, defaults, config_path, flags):
    """Merge defaults, config-file keys, and explicitly-set flags."""
    resolved = dict(defaults)
    if config_path:
        file_cfg = _load_config_file(config_path)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"config file {config_path}: unknown keys "
                             f"{sorted(unknown)}")
        resolved.update(file_cfg)
    resolved.update({k: v for k, v in flags.items() if v is not None})
    return CliConfig(
        subcommand=subcommand,
        config_path=config_path,
        seed=resolved.get("seed", 0),
        output=resolved.get("output"),
        verbosity=resolved.get("verbose", 0),
        resolved=resolved,
    )


def _emit(cc, **payload):
    doc = {"command": cc.subcommand, "config": cc.resolved, **payload}
    click.echo(json.dumps(doc, sort_keys=True))


def _note(cc, msg, min_verbosity=0):
    if cc.verbosity >= min_verbosity:
        click.echo(msg, err=True)


def _guard(ctx, fn):
    """Run fn, mapping library errors onto the exit-code contract."""
    try:
        return fn()
    except MvmMismatch as exc:
        click.echo(f"correctness failure: {exc}", err=True)
        ctx.exit(EXIT_CORRECTNESS)
    except GridCapExceeded as exc:
        click.echo(f"resource cap: {exc}", err=True)
        ctx.exit(EXIT_RESOURCES)
    except CgFailure as exc:
        click.echo(f"solver failure: {exc}", err=True)
        click.echo(f"stats: {exc.stats}", err=True)
        ctx.exit(EXIT_SOLVER)
    except (ValueError, OSError) as exc:
        click.echo(f"input error: {exc}", err=True)
        ctx.exit(EXIT_INPUT)


def _parse_ints(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _parse_floats(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _write_results(res, cc, csv_path=None):
    out = cc.output
    if out:
        res.write_json_lines(out)
    if csv_path:
        res.write_csv(csv_path)
    return out


# ---- group ------------------------------------------------------------------


class _ContractGroup(click.Group):
    """Group whose parse errors follow the exit-code contract (input = 1)."""

    def main(self, *args, standalone_mode=True, **extra):
        try:
            rv = super().main(*args, standalone_mode=False, **extra)
        except click.UsageError as exc:
            exc.show()
            sys.exit(EXIT_INPUT)
        except click.ClickException as exc:
            exc.show()
            sys.exit(EXIT_INPUT)
        except click.exceptions.Abort:
            sys.exit(EXIT_INPUT)
        if isinstance(rv, int) and rv != 0:
            sys.exit(rv)
        return 0 if standalone_mode is False else rv


@click.group(cls=_ContractGroup)
@click.version_option(package_name="skigrid")
def main():
    """Sparse-grid structured kernel interpolation toolkit."""


# ---- grid -------------------------------------------------------------------


@main.command("grid")
@click.option("--l", "-l", "ell", type=int, default=None,
              help="Sparse-grid resolution level.")
@click.option("--d", "-d", "dim", type=int, default=None,
              help="Dimension.")
@click.option("--dump", type=click.Path(dir_okay=False), default=None,
              help="Write one CSV row per grid point.")
@click.option("--size-cap", type=int, default=None,
              help="Refuse to enumerate grids above this many points.")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None)
@click.option("--seed", type=int, default=None)
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_grid(ctx, ell, dim, dump, size_cap, config_path, seed, verbose):
    """Report the closed-form and enumerated sizes of G(l, d)."""
    defaults = {"l": None, "d": None, "dump": None, "size_cap": None,
                "seed": 0, "verbose": 0}
    flags = {"l": ell, "d": dim, "dump": dump, "size_cap": size_cap,
             "seed": seed, "verbose": verbose or None}

    def run():
        cc = _resolve("grid", defaults, config_path, flags)
        r = cc.resolved
        if r["l"] is None or r["d"] is None:
            raise ValueError("--l and --d are required")
        if r["l"] < 0 or r["d"] < 1:
            raise ValueError("need l >= 0 and d >= 1")
        closed = sparse_grid_size(r["l"], r["d"])
        grid = build_sparse_grid(
            r["l"], r["d"],
            **({"size_cap": r["size_cap"]} if r["size_cap"] else {}))
        enumerated = len(grid)
        if enumerated != closed:
            click.echo(
                f"correctness failure: closed form {closed} != enumerated "
                f"{enumerated}", err=True)
            ctx.exit(EXIT_CORRECTNESS)
        if r["dump"]:
            dump_points_csv(grid, r["dump"])
        label = f"{closed} point" + ("s" if closed != 1 else "")
        _emit(cc, closed_form=closed, enumerated=enumerated, label=label,
              dump=r["dump"])
        click.echo(f"G(l={r['l']}, d={r['d']}): {label}", err=True)

    _guard(ctx, run)


# ---- mvm-bench --------------------------------------------------------------


@main.command("mvm-bench")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None)
@click.option("--d", "dim", type=int, default=None)
@click.option("--ells", type=str, default=None,
              help="Comma-separated resolution levels, e.g. 2,3,4,5.")
@click.option("--algos", type=str, default=None,
              help="Comma-separated subset of naive,recursive,iterative.")
@click.option("--reps", type=int, default=None)
@click.option("--naive-cap", type=int, default=None)
@click.option("--size-cap", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None)
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_mvm_bench(ctx, config_path, dim, ells, algos, reps, naive_cap,
                  size_cap, seed, output, csv_path, verbose):
    """Time sparse-grid MVM backends across resolutions (Fig.-2-style)."""
    defaults = {"d": 6, "ells": "2,3,4,5",
                "algos": "iterative,recursive,naive", "reps": 8,
                "naive_cap": 30000, "size_cap": None, "seed": 0,
                "output": "mvm_bench.jsonl", "csv": None, "verbose": 0}
    flags = {"d": dim, "ells": ells, "algos": algos, "reps": reps,
             "naive_cap": naive_cap, "size_cap": size_cap, "seed": seed,
             "output": output, "csv": csv_path, "verbose": verbose or None}

    def run():
        cc = _resolve("mvm-bench", defaults, config_path, flags)
        r = cc.resolved
        res = run_mvm_scaling(
            r["d"], _parse_ints(r["ells"]),
            algos=tuple(a.strip() for a in str(r["algos"]).split(",")),
            reps=r["reps"], seed=r["seed"], naive_cap=r["naive_cap"],
            size_cap=r["size_cap"])
        _write_results(res, cc, r["csv"])
        _emit(cc, output=cc.output, csv=r["csv"], rows=len(res.rows))
        for row in res.metric_rows("mvm_time_mean"):
            _note(cc, f"  {row['algo']:>10s} l={row['ell']}: "
                      f"{row['value'] * 1e3:.3f} ms/MVM")
        skipped = res.metric_rows("status")
        _note(cc, f"mvm-bench: {len(res.rows)} rows -> {cc.output}"
                  + (f" ({len(skipped)} skipped)" if skipped else ""))

    _guard(ctx, run)


# ---- interp-bench -----------------------------------------------------------


@main.command("interp-bench")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None)
@click.option("--function", type=click.Choice(
    ["cos_l1", "aniso_cos", "corner_peak"]), default=None)
@click.option("--d", "dim", type=int, default=None)
@click.option("--ells", type=str, default=None)
@click.option("--rules", type=str, default=None,
              help="Comma-separated subset of simplicial,linear,cubic.")
@click.option("--matched-dense/--sparse-only", "matched_dense", default=None)
@click.option("--n-eval", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None)
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_interp_bench(ctx, config_path, function, dim, ells, rules,
                     matched_dense, n_eval, seed, output, csv_path, verbose):
    """Interpolation RMS error on sparse vs point-matched dense grids."""
    defaults = {"function": "cos_l1", "d": 6, "ells": "2,3,4,5",
                "rules": "simplicial", "matched_dense": True, "n_eval": 200,
                "seed": 0, "output": "interp_bench.jsonl", "csv": None,
                "verbose": 0}
    flags = {"function": function, "d": dim, "ells": ells, "rules": rules,
             "matched_dense": matched_dense, "n_eval": n_eval, "seed": seed,
             "output": output, "csv": csv_path, "verbose": verbose or None}

    def run():
        cc = _resolve("interp-bench", defaults, config_path, flags)
        r = cc.resolved
        levels = _parse_ints(r["ells"])
        task = SyntheticTask(r["function"], r["d"], seed=r["seed"])
        grids = [("sparse", e) for e in levels]
        if r["matched_dense"]:
            grids += [("dense", matched_dense_side(e, r["d"]))
                      for e in levels]
        res = run_interp_accuracy(
            task, grids=grids,
            rules=tuple(s.strip() for s in str(r["rules"]).split(",")),
            n_eval=r["n_eval"])
        _write_results(res, cc, r["csv"])
        _emit(cc, output=cc.output, csv=r["csv"], rows=len(res.rows))
        for row in res.metric_rows("rms_error"):
            _note(cc, f"  {row['kind']:>6s} size={row['size']} "
                      f"{row['rule']}: rms {row['value']:.4e}")

    _guard(ctx, run)


# ---- gp ----------------------------------------------------------------------


@main.group("gp")
def cmd_gp():
    """Fit, predict with, and study SKI GP models."""


def _gp_config(r, dim):
    ls = _parse_floats(r["lengthscales"])
    if len(ls) == 1:
        ls = ls * dim
    if len(ls) != dim:
        raise ValueError(f"got {len(ls)} lengthscales for {dim}-dimensional "
                         f"data")
    return GpConfig(
        kernel=ProductKernel(ls, output_scale=r["output_scale"]),
        sigma2=r["sigma2"],
        grid=r["grid"],
        resolution=r["resolution"],
        dense_count=r["dense_count"],
        rule=r["rule"],
        method=r["method"],
        cg=CgConfig(rel_tolerance=r["cg_tol"], max_iters=r["cg_max_iters"],
                    preconditioner=r["preconditioner"]),
    )


_GP_FIT_DEFAULTS = {
    "data": None, "model": "model.json", "lengthscales": "0.3",
    "output_scale": 1.0, "sigma2": 0.0025, "grid": "sparse",
    "resolution": 4, "dense_count": 8, "rule": "simplicial",
    "method": "combination", "cg_tol": 1e-4, "cg_max_iters": 1000,
    "preconditioner": CgConfig.preconditioner, "standardize": True,
    "seed": 0, "verbose": 0,
}


def _gp_shared_options(fn):
    for deco in reversed([
        click.option("--lengthscales", type=str, default=None,
                     help="One value, or one per dimension (comma list)."),
        click.option("--output-scale", type=float, default=None),
        click.option("--sigma2", type=float, default=None),
        click.option("--grid", type=click.Choice(["sparse", "dense"]),
                     default=None),
        click.option("--resolution", type=int, default=None),
        click.option("--dense-count", type=int, default=None),
        click.option("--rule", type=click.Choice(
            ["simplicial", "linear", "cubic"]), default=None),
        click.option("--method", type=click.Choice(
            ["combination", "subsampled"]), default=None),
        click.option("--cg-tol", type=float, default=None),
        click.option("--cg-max-iters", type=int, default=None),
        click.option("--preconditioner", type=click.Choice(
            ["none", "nystrom"]), default=None,
            help="CG preconditioner (default: nystrom)."),
    ]):
        fn = deco(fn)
    return fn


@cmd_gp.command("fit")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None)
@click.option("--data", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Training CSV; last column is the target.")
@click.option("--model", "model_path", type=click.Path(dir_okay=False),
              default=None, help="Where to write the fitted model JSON.")
@_gp_shared_options
@click.option("--standardize/--no-standardize", default=None,
              help="Standardize targets using training statistics.")
@click.option("--seed", type=int, default=None)
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_gp_fit(ctx, config_path, data, model_path, lengthscales,
               output_scale, sigma2, grid, resolution, dense_count, rule,
               method, cg_tol, cg_max_iters, preconditioner, standardize,
               seed, verbose):
    """Fit a SKI GP on a CSV dataset and save the model."""
    flags = {"data": data, "model": model_path,
             "lengthscales": lengthscales, "output_scale": output_scale,
             "sigma2": sigma2, "grid": grid, "resolution": resolution,
             "dense_count": dense_count, "rule": rule, "method": method,
             "cg_tol": cg_tol, "cg_max_iters": cg_max_iters,
             "preconditioner": preconditioner, "standardize": standardize,
             "seed": seed, "verbose": verbose or None}

    def run():
        cc = _resolve("gp fit", _GP_FIT_DEFAULTS, config_path, flags)
        r = cc.resolved
        if not r["data"]:
            raise ValueError("--data is required")
        X, y = read_xy_csv(r["data"])
        y_mean, y_std = 0.0, 1.0
        if r["standardize"]:
            y_mean = float(y.mean())
            y_std = float(y.std())
            if y_std == 0.0:
                y_std = 1.0
            y = (y - y_mean) / y_std
        cfg = _gp_config(r, X.shape[1])
        model = fit(cfg, X, y)
        model.y_mean, model.y_std = y_mean, y_std
        model.save(r["model"], cli={"command": "gp fit",
                                    "config": cc.resolved,
                                    "metadata": environment_metadata()})
        _emit(cc, model=r["model"], n_train=len(y),
              **cg_report(model.fit_stats))
        _note(cc, f"fit: n={len(y)} d={X.shape[1]} grid={cfg.grid} -> "
                  f"{r['model']} ({model.fit_stats.n_iters} CG iterations)")

    _guard(ctx, run)


def _read_features(path, dim):
    """Feature matrix from a CSV with either d or d+1 numeric columns."""
    X, y = read_xy_csv(path)
    width = X.shape[1] + 1
    if width == dim + 1:
        return X
    if width == dim:
        return np.column_stack([X, y])
    raise ValueError(f"{path}: expected {dim} or {dim + 1} columns, "
                     f"found {width}")


@cmd_gp.command("predict")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None)
@click.option("--model", "model_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--data", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="CSV of inputs; a trailing target column is ignored.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_gp_predict(ctx, config_path, model_path, data, output, verbose):
    """Write per-row posterior means for a CSV of inputs."""
    defaults = {"model": None, "data": None, "output": "predictions.csv",
                "seed": 0, "verbose": 0}
    flags = {"model": model_path, "data": data, "output": output,
             "verbose": verbose or None}

    def run():
        cc = _resolve("gp predict", defaults, config_path, flags)
        r = cc.resolved
        if not r["model"] or not r["data"]:
            raise ValueError("--model and --data are required")
        model = load_model(r["model"])
        dim = model.config.kernel.dim
        X = _read_features(r["data"], dim)
        mean = model.predict_mean(X)
        with open(r["output"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x_{j}" for j in range(dim)] + ["mean"])
            for xi, mi in zip(X, mean):
                w.writerow([repr(float(v)) for v in xi]
                           + [repr(float(mi))])
        _emit(cc, output=r["output"], rows=len(mean))
        _note(cc, f"predict: {len(mean)} rows -> {r['output']}")

    _guard(ctx, run)


_GP_STUDY_DEFAULTS = {
    "data": None, "function": "cos_l1", "dims": "2", "n_train": 4000,
    "n_test": 200, "noise_std": 0.05, "lengthscales": "0.3",
    "output_scale": 1.0, "sigma2": 0.0025, "resolution": 4,
    "cg_tol": 1e-5, "cg_max_iters": 2000, "include_exact": False,
    "standardize": True, "seed": 0, "output": "gp_study.jsonl",
    "csv": None, "verbose": 0,
}


@cmd_gp.command("study")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None)
@click.option("--data", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="Optional CSV dataset; split 4:2:3 instead of synthetic.")
@click.option("--function", type=click.Choice(
    ["cos_l1", "aniso_cos", "corner_peak"]), default=None)
@click.option("--dims", type=str, default=None,
              help="Comma-separated dimensions for synthetic studies.")
@click.option("--n-train", type=int, default=None)
@click.option("--n-test", type=int, default=None)
@click.option("--noise-std", type=float, default=None)
@click.option("--lengthscales", type=str, default=None)
@click.option("--sigma2", type=float, default=None)
@click.option("--resolution", type=int, default=None)
@click.option("--cg-tol", type=float, default=None)
@click.option("--cg-max-iters", type=int, default=None)
@click.option("--include-exact/--no-exact", "include_exact", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None)
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_gp_study(ctx, config_path, data, function, dims, n_train, n_test,
                 noise_std, lengthscales, sigma2, resolution, cg_tol,
                 cg_max_iters, include_exact, seed, output, csv_path,
                 verbose):
    """Sparse-vs-dense test RMSE study on synthetic or CSV data."""
    flags = {"data": data, "function": function, "dims": dims,
             "n_train": n_train, "n_test": n_test, "noise_std": noise_std,
             "lengthscales": lengthscales, "sigma2": sigma2,
             "resolution": resolution, "cg_tol": cg_tol,
             "cg_max_iters": cg_max_iters, "include_exact": include_exact,
             "seed": seed, "output": output, "csv": csv_path,
             "verbose": verbose or None}

    def run():
        cc = _resolve("gp study", _GP_STUDY_DEFAULTS, config_path, flags)
        r = cc.resolved
        ls = _parse_floats(r["lengthscales"])
        cg = CgConfig(rel_tolerance=r["cg_tol"],
                      max_iters=r["cg_max_iters"])
        if r["data"]:
            res = run_csv_study(r["data"], resolution=r["resolution"],
                                lengthscales=ls, sigma2=r["sigma2"], cg=cg,
                                seed=r["seed"], standardize=r["standardize"])
        else:
            tasks = [SyntheticTask(r["function"], d, noise_std=r["noise_std"],
                                   seed=r["seed"], n_train=r["n_train"],
                                   n_test=r["n_test"])
                     for d in _parse_ints(r["dims"])]
            if len(ls) != 1:
                raise ValueError("synthetic studies take a single "
                                 "lengthscale, one kernel per dimension "
                                 "count is derived from it")
            res = run_gp_study(tasks, resolution=r["resolution"],
                               lengthscale=ls[0], sigma2=r["sigma2"],
                               cg=cg, include_exact=r["include_exact"])
        _write_results(res, cc, r["csv"])
        _emit(cc, output=cc.output, csv=r["csv"], rows=len(res.rows))
        for row in res.metric_rows("test_rmse"):
            val = "failed" if row["value"] is None else f"{row['value']:.4f}"
            _note(cc, f"  d={row.get('d', '?')} {row['grid']:>6s}: "
                      f"rmse {val}")

    _guard(ctx, run)


if __name__ == "__main__":
    main()
