"""Command-line entry point: grid inspection, benchmarks, GP fit/predict.

Exit codes are a stable contract: 0 ok, 1 input error, 2 correctness
failure, 3 resource cap, 4 solver failure.  Machine-readable output (JSON
on stdout, results files on disk) comes first; human summaries go to
stderr.

Settings are click's own: each option's parameter name is its settings key
and its decorator holds its default.  ``--config FILE`` (JSON, or TOML on
Python 3.11+) loads keys into click's ``default_map``, so explicit flags
win over the file and the file over the defaults; a key that names no
option of the command is rejected.  Every run echoes the resolved settings
(``ctx.params``) as ``"config"``.
"""

import csv
import json
import sys

import click
import numpy as np

from .bench import (
    SYNTHETIC_FUNCTIONS,
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
from .interp import METHODS, RULE_KINDS
from .kernels import ProductKernel
from .ski import CgConfig, CgFailure, GpConfig, fit, load_model, read_xy_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CORRECTNESS = 2
EXIT_RESOURCES = 3
EXIT_SOLVER = 4


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


def _read_config(ctx, param, path):
    """Eager ``--config`` callback: the file's keys become the defaults."""
    if path is None:
        return
    try:
        cfg = _load_config_file(path)
    except (ValueError, OSError) as exc:
        raise click.BadParameter(str(exc), ctx, param)
    keys = {p.name for p in ctx.command.params if p.expose_value}
    unknown = set(cfg) - keys
    if unknown:
        raise click.BadParameter(
            f"config file {path}: unknown keys {sorted(unknown)}", ctx, param)
    ctx.default_map = cfg


_config_option = click.option(
    "--config", type=click.Path(exists=True), is_eager=True,
    expose_value=False, callback=_read_config,
    help="JSON or TOML file of settings keyed by parameter name; "
         "explicit flags win over it.")


def _command_name(ctx):
    """Subcommand path without the program name, e.g. ``gp fit``."""
    names = []
    while ctx.parent is not None:
        names.insert(0, ctx.info_name)
        ctx = ctx.parent
    return " ".join(names)


def _emit(ctx, **payload):
    doc = {"command": _command_name(ctx), "config": ctx.params, **payload}
    click.echo(json.dumps(doc, sort_keys=True))


def _note(ctx, msg, min_verbosity=0):
    if ctx.params["verbose"] >= min_verbosity:
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


def _write_results(res, r):
    if r["output"]:
        res.write_json_lines(r["output"])
    if r["csv"]:
        res.write_csv(r["csv"])


# ---- group ------------------------------------------------------------------


class _ContractGroup(click.Group):
    """Group whose parse errors follow the exit-code contract (input = 1)."""

    def main(self, *args, standalone_mode=True, **extra):
        try:
            rv = super().main(*args, standalone_mode=False, **extra)
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
@_config_option
@click.option("--l", "-l", type=int, help="Sparse-grid resolution level.")
@click.option("--d", "-d", type=int, help="Dimension.")
@click.option("--dump", type=click.Path(dir_okay=False),
              help="Write one CSV row per grid point.")
@click.option("--size-cap", type=int,
              help="Refuse to enumerate grids above this many points.")
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_grid(ctx, **r):
    """Report the closed-form and enumerated sizes of G(l, d)."""

    def run():
        if r["l"] is None or r["d"] is None:
            raise ValueError("--l and --d are required")
        if r["l"] < 0 or r["d"] < 1:
            raise ValueError("need l >= 0 and d >= 1")
        closed = sparse_grid_size(r["l"], r["d"])
        grid = build_sparse_grid(
            r["l"], r["d"],
            **({} if r["size_cap"] is None else {"size_cap": r["size_cap"]}))
        enumerated = len(grid)
        if enumerated != closed:
            click.echo(
                f"correctness failure: closed form {closed} != enumerated "
                f"{enumerated}", err=True)
            ctx.exit(EXIT_CORRECTNESS)
        if r["dump"]:
            dump_points_csv(grid, r["dump"])
        label = f"{closed} point" + ("s" if closed != 1 else "")
        _emit(ctx, closed_form=closed, enumerated=enumerated, label=label,
              dump=r["dump"])
        click.echo(f"G(l={r['l']}, d={r['d']}): {label}", err=True)

    _guard(ctx, run)


# ---- mvm-bench --------------------------------------------------------------


@main.command("mvm-bench")
@_config_option
@click.option("--d", type=int, default=6)
@click.option("--ells", type=str, default="2,3,4,5",
              help="Comma-separated resolution levels, e.g. 2,3,4,5.")
@click.option("--algos", type=str, default="iterative,recursive,naive",
              help="Comma-separated subset of naive,recursive,iterative.")
@click.option("--reps", type=int, default=8)
@click.option("--naive-cap", type=int, default=30000)
@click.option("--size-cap", type=int)
@click.option("--seed", type=int, default=0)
@click.option("--output", type=click.Path(dir_okay=False),
              default="mvm_bench.jsonl")
@click.option("--csv", type=click.Path(dir_okay=False))
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_mvm_bench(ctx, **r):
    """Time sparse-grid MVM backends across resolutions (Fig.-2-style)."""

    def run():
        res = run_mvm_scaling(
            r["d"], _parse_ints(r["ells"]),
            algos=tuple(a.strip() for a in str(r["algos"]).split(",")),
            reps=r["reps"], seed=r["seed"], naive_cap=r["naive_cap"],
            size_cap=r["size_cap"])
        _write_results(res, r)
        _emit(ctx, output=r["output"], csv=r["csv"], rows=len(res.rows))
        for row in res.metric_rows("mvm_time_mean"):
            _note(ctx, f"  {row['algo']:>10s} l={row['ell']}: "
                       f"{row['value'] * 1e3:.3f} ms/MVM", min_verbosity=1)
        skipped = res.metric_rows("status")
        _note(ctx, f"mvm-bench: {len(res.rows)} rows -> {r['output']}"
                   + (f" ({len(skipped)} skipped)" if skipped else ""))

    _guard(ctx, run)


# ---- interp-bench -----------------------------------------------------------


@main.command("interp-bench")
@_config_option
@click.option("--function", type=click.Choice(SYNTHETIC_FUNCTIONS),
              default="cos_l1")
@click.option("--d", type=int, default=6)
@click.option("--ells", type=str, default="2,3,4,5")
@click.option("--rules", type=str, default="simplicial",
              help="Comma-separated subset of simplicial,linear,cubic.")
@click.option("--matched-dense/--sparse-only", default=True)
@click.option("--n-eval", type=int, default=200)
@click.option("--seed", type=int, default=0)
@click.option("--output", type=click.Path(dir_okay=False),
              default="interp_bench.jsonl")
@click.option("--csv", type=click.Path(dir_okay=False))
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_interp_bench(ctx, **r):
    """Interpolation RMS error on sparse vs point-matched dense grids."""

    def run():
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
        _write_results(res, r)
        _emit(ctx, output=r["output"], csv=r["csv"], rows=len(res.rows))
        for row in res.metric_rows("rms_error"):
            _note(ctx, f"  {row['kind']:>6s} size={row['size']} "
                       f"{row['rule']}: rms {row['value']:.4e}",
                  min_verbosity=1)

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


@cmd_gp.command("fit")
@_config_option
@click.option("--data", type=click.Path(exists=True, dir_okay=False),
              help="Training CSV; last column is the target.")
@click.option("--model", type=click.Path(dir_okay=False), default="model.json",
              help="Where to write the fitted model JSON.")
@click.option("--lengthscales", type=str, default="0.3",
              help="One value, or one per dimension (comma list).")
@click.option("--output-scale", type=float, default=1.0)
@click.option("--sigma2", type=float, default=0.0025)
@click.option("--grid", type=click.Choice(["sparse", "dense"]),
              default="sparse")
@click.option("--resolution", type=int, default=4)
@click.option("--dense-count", type=int, default=8)
@click.option("--rule", type=click.Choice(RULE_KINDS), default="simplicial")
@click.option("--method", type=click.Choice(METHODS), default="combination")
@click.option("--cg-tol", type=float, default=1e-4)
@click.option("--cg-max-iters", type=int, default=1000)
@click.option("--preconditioner", type=click.Choice(["none", "nystrom"]),
              default=CgConfig.preconditioner,
              help="CG preconditioner (default: nystrom).")
@click.option("--standardize/--no-standardize", default=True,
              help="Standardize targets using training statistics.")
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_gp_fit(ctx, **r):
    """Fit a SKI GP on a CSV dataset and save the model."""

    def run():
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
        model.save(r["model"], cli={"command": _command_name(ctx),
                                    "config": r,
                                    "metadata": environment_metadata()})
        _emit(ctx, model=r["model"], n_train=len(y),
              **cg_report(model.fit_stats),
              precond_note=model.fit_stats.precond_note)
        _note(ctx, f"fit: n={len(y)} d={X.shape[1]} grid={cfg.grid} -> "
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
@_config_option
@click.option("--model", type=click.Path(exists=True, dir_okay=False))
@click.option("--data", type=click.Path(exists=True, dir_okay=False),
              help="CSV of inputs; a trailing target column is ignored.")
@click.option("--output", type=click.Path(dir_okay=False),
              default="predictions.csv")
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_gp_predict(ctx, **r):
    """Write per-row posterior means for a CSV of inputs."""

    def run():
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
        _emit(ctx, output=r["output"], rows=len(mean))
        _note(ctx, f"predict: {len(mean)} rows -> {r['output']}")

    _guard(ctx, run)


@cmd_gp.command("study")
@_config_option
@click.option("--data", type=click.Path(exists=True, dir_okay=False),
              help="Optional CSV dataset; split 4:2:3 instead of synthetic.")
@click.option("--function", type=click.Choice(SYNTHETIC_FUNCTIONS),
              default="cos_l1")
@click.option("--dims", type=str, default="2",
              help="Comma-separated dimensions for synthetic studies.")
@click.option("--n-train", type=int, default=4000)
@click.option("--n-test", type=int, default=200)
@click.option("--noise-std", type=float, default=0.05)
@click.option("--lengthscales", type=str, default="0.3")
@click.option("--sigma2", type=float, default=0.0025)
@click.option("--resolution", type=int, default=4)
@click.option("--cg-tol", type=float, default=1e-5)
@click.option("--cg-max-iters", type=int, default=2000)
@click.option("--include-exact/--no-exact", default=False)
@click.option("--standardize/--no-standardize", default=True,
              help="Standardize CSV-study targets using training statistics.")
@click.option("--seed", type=int, default=0)
@click.option("--output", type=click.Path(dir_okay=False),
              default="gp_study.jsonl")
@click.option("--csv", type=click.Path(dir_okay=False))
@click.option("-v", "--verbose", count=True)
@click.pass_context
def cmd_gp_study(ctx, **r):
    """Sparse-vs-dense test RMSE study on synthetic or CSV data."""

    def run():
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
        _write_results(res, r)
        _emit(ctx, output=r["output"], csv=r["csv"], rows=len(res.rows))
        for row in res.metric_rows("test_rmse"):
            val = "failed" if row["value"] is None else f"{row['value']:.4f}"
            _note(ctx, f"  d={row.get('d', '?')} {row['grid']:>6s}: "
                       f"rmse {val}", min_verbosity=1)

    _guard(ctx, run)


if __name__ == "__main__":
    main()
