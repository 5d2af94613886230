import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

import skigrid
import skigrid.bench as bench
import skigrid.cli as cli
from skigrid.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def make_train_csv(path, n=200, d=2, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d))
    y = np.cos(X.sum(axis=1)) + noise * rng.standard_normal(n)
    header = ",".join([f"x{j}" for j in range(d)] + ["target"])
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", header=header,
               comments="")
    return X, y


class TestGrid:
    @pytest.mark.parametrize("ell,d,label", [
        (2, 2, "17 points"), (4, 10, "13441 points"), (0, 1, "1 point"),
    ])
    def test_sizes_and_label(self, runner, ell, d, label):
        res = runner.invoke(main, ["grid", "--l", str(ell), "--d", str(d)])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["closed_form"] == doc["enumerated"]
        assert doc["label"] == label
        assert label in res.stderr

    def test_echoes_resolved_config(self, runner):
        res = runner.invoke(main, ["grid", "--l", "3", "--d", "2"])
        doc = json.loads(res.stdout)
        assert doc["command"] == "grid"
        assert doc["config"]["l"] == 3 and doc["config"]["d"] == 2

    def test_size_cap_exit_3(self, runner):
        res = runner.invoke(main, ["grid", "--l", "9", "--d", "6",
                                   "--size-cap", "100"])
        assert res.exit_code == 3
        assert "resource cap" in res.stderr

    def test_size_cap_zero_is_enforced(self, runner):
        res = runner.invoke(main, ["grid", "--l", "2", "--d", "2",
                                   "--size-cap", "0"])
        assert res.exit_code == 3
        assert "resource cap" in res.stderr

    def test_dump_points(self, runner, tmp_path):
        out = tmp_path / "pts.csv"
        res = runner.invoke(main, ["grid", "--l", "1", "--d", "2",
                                   "--dump", str(out)])
        assert res.exit_code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert {r["x_0"] for r in rows} >= {"0.5", "0.25", "0.75"}

    def test_bad_flags_exit_1(self, runner):
        assert runner.invoke(main, ["grid", "--l", "x", "--d", "2"])\
            .exit_code == 1
        assert runner.invoke(main, ["grid", "--d", "2"]).exit_code == 1
        assert runner.invoke(main, ["grid", "--l", "-3", "--d", "2"])\
            .exit_code == 1

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"l": 2, "d": 3}))
        res = runner.invoke(main, ["grid", "--config", str(cfg)])
        assert json.loads(res.stdout)["config"]["d"] == 3
        res = runner.invoke(main, ["grid", "--config", str(cfg),
                                   "--d", "2"])
        doc = json.loads(res.stdout)
        assert doc["config"]["d"] == 2 and doc["closed_form"] == 17

    def test_unknown_config_key_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"l": 2, "d": 2, "levels": 9}))
        res = runner.invoke(main, ["grid", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "unknown keys" in res.stderr


class TestMvmBench:
    def invoke_small(self, runner, tmp_path, *extra):
        out = tmp_path / "mvm.jsonl"
        res = runner.invoke(main, ["mvm-bench", "--d", "2", "--ells", "1,2",
                                   "--reps", "2", "--output", str(out),
                                   *extra])
        return res, out

    def test_default_shape_completes(self, runner, tmp_path):
        res, out = self.invoke_small(runner, tmp_path)
        assert res.exit_code == 0
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert lines[0]["record"] == "header"
        assert lines[0]["config"]["algos"] == ["iterative", "recursive",
                                               "naive"]
        assert any(r["metric"] == "cg_proxy_time" for r in lines[1:])

    def test_per_row_times_need_verbose(self, runner, tmp_path):
        quiet, _ = self.invoke_small(runner, tmp_path)
        loud, _ = self.invoke_small(runner, tmp_path, "-v")
        assert quiet.exit_code == 0 and loud.exit_code == 0
        assert "ms/MVM" not in quiet.stderr and "mvm-bench:" in quiet.stderr
        assert "ms/MVM" in loud.stderr

    def test_csv_output(self, runner, tmp_path):
        res, _ = self.invoke_small(runner, tmp_path, "--csv",
                                   str(tmp_path / "mvm.csv"))
        assert res.exit_code == 0
        with open(tmp_path / "mvm.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["experiment"] == "mvm_scaling"

    def test_injected_bug_exit_2(self, runner, tmp_path, monkeypatch):
        def broken(ell, dim, kernel, size_cap):
            good = bench._make_iterative(ell, dim, kernel, size_cap)
            return lambda v: good(v) * (1 + 1e-4)
        monkeypatch.setitem(bench.ALGO_REGISTRY, "iterative", broken)
        res, _ = self.invoke_small(runner, tmp_path)
        assert res.exit_code == 2
        assert "correctness failure" in res.stderr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_naive_cap_skips_with_warning(self, runner, tmp_path):
        out = tmp_path / "m.jsonl"
        res = runner.invoke(main, ["mvm-bench", "--d", "2", "--ells", "1,3",
                                   "--reps", "2", "--naive-cap", "10",
                                   "--algos", "naive,iterative",
                                   "--output", str(out)])
        assert res.exit_code == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()[1:]]
        assert any(r["metric"] == "status" and r["value"] == "skipped"
                   for r in rows)

    def test_unknown_algo_exit_1(self, runner, tmp_path):
        res, _ = self.invoke_small(runner, tmp_path, "--algos", "quantum")
        assert res.exit_code == 1


class TestInterpBench:
    def test_runs_and_reports(self, runner, tmp_path):
        out = tmp_path / "interp.jsonl"
        res = runner.invoke(main, ["interp-bench", "--d", "2",
                                   "--ells", "2,3", "--n-eval", "50",
                                   "--rules", "simplicial,cubic",
                                   "--output", str(out), "-v"])
        assert res.exit_code == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()[1:]]
        kinds = {(r["kind"], r["rule"]) for r in rows
                 if r["metric"] == "rms_error"}
        assert kinds == {("sparse", "simplicial"), ("sparse", "cubic"),
                         ("dense", "simplicial"), ("dense", "cubic")}
        assert "rms" in res.stderr

    def test_sparse_only(self, runner, tmp_path):
        out = tmp_path / "interp.jsonl"
        res = runner.invoke(main, ["interp-bench", "--d", "2", "--ells", "2",
                                   "--sparse-only", "--n-eval", "20",
                                   "--output", str(out)])
        assert res.exit_code == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()[1:]]
        assert all(r["kind"] == "sparse" for r in rows)


class TestGpFitPredict:
    def fit_args(self, data, model, **kw):
        args = ["gp", "fit", "--data", str(data), "--model", str(model),
                "--resolution", str(kw.get("resolution", 5)),
                "--sigma2", str(kw.get("sigma2", 1e-4)),
                "--cg-tol", str(kw.get("cg_tol", 1e-7)),
                "--cg-max-iters", str(kw.get("cg_max_iters", 3000))]
        return args

    def test_flagless_fit_takes_the_library_defaults(self, runner, tmp_path):
        train = tmp_path / "train.csv"
        make_train_csv(train, n=60, d=2, seed=12)
        model = tmp_path / "m.json"
        res = runner.invoke(main, ["gp", "fit", "--data", str(train),
                                   "--model", str(model)])
        assert res.exit_code == 0, res.output
        payload = json.loads(model.read_text())
        assert payload["method"] == "hierarchical" == skigrid.GpConfig.method
        assert payload["rule"] == "simplicial" == skigrid.GpConfig.rule

    def test_fit_then_predict_self_consistency(self, runner, tmp_path):
        # tiny sigma^2, noiseless targets: training-file predictions must
        # land within 1e-2 of the standardized targets.  Needs |G| > n so
        # W has full row rank; below that the unrepresentable component of
        # y puts a floor on the training residual.
        train = tmp_path / "train.csv"
        X, y = make_train_csv(train, n=250, d=2, noise=0.0, seed=1)
        model = tmp_path / "model.json"
        res = runner.invoke(main, self.fit_args(train, model))
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["model"] == str(model) and doc["n_train"] == 250
        assert doc["config"]["preconditioner"] == "nystrom"
        assert doc["precond_rank"] > 0 and doc["precond_seconds"] > 0
        assert doc["precond_iter_estimate"] > 0
        assert doc["precond_lambda_ratio"] >= 0
        assert doc["precond_note"] == ""

        pred = tmp_path / "pred.csv"
        res = runner.invoke(main, ["gp", "predict", "--model", str(model),
                                   "--data", str(train),
                                   "--output", str(pred)])
        assert res.exit_code == 0
        with open(pred) as fh:
            mu = np.array([float(r["mean"]) for r in csv.DictReader(fh)])
        rmse_std = np.sqrt(np.mean(((mu - y) / y.std()) ** 2))
        assert rmse_std <= 1e-2

    def test_model_file_records_standardization_and_config(self, runner,
                                                           tmp_path):
        train = tmp_path / "train.csv"
        _, y = make_train_csv(train, n=80, d=2, seed=2)
        model = tmp_path / "model.json"
        res = runner.invoke(main, self.fit_args(train, model, sigma2=1e-4,
                                                cg_tol=1e-6))
        assert res.exit_code == 0
        payload = json.loads(model.read_text())
        assert payload["y_standardization"]["mean"] == pytest.approx(y.mean())
        assert payload["cli"]["config"]["grid"] == "sparse"
        assert payload["cli"]["metadata"]["noise_interpretation"] == "std"

    def test_malformed_csv_exit_1_with_line_number(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,target\n0.1,0.2,1.0\n0.3,oops,2.0\n")
        res = runner.invoke(main, ["gp", "fit", "--data", str(bad),
                                   "--model", str(tmp_path / "m.json")])
        assert res.exit_code == 1
        assert "line 3" in res.stderr

    def test_cg_failure_exit_4_with_stats(self, runner, tmp_path):
        train = tmp_path / "train.csv"
        make_train_csv(train, n=150, d=2, seed=3)
        res = runner.invoke(main, self.fit_args(
            train, tmp_path / "m.json", sigma2=1e-6, cg_tol=1e-13,
            cg_max_iters=2))
        assert res.exit_code == 4
        assert "solver failure" in res.stderr and "stats:" in res.stderr

    def test_preconditioner_flag(self, runner, tmp_path):
        train = tmp_path / "train.csv"
        make_train_csv(train, n=60, d=2, seed=4)
        args = self.fit_args(train, tmp_path / "m.json", sigma2=1e-4,
                             cg_tol=1e-6)
        res = runner.invoke(main, args + ["--preconditioner", "none"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["precond_rank"] == 0 and doc["cg_iterations"] > 0
        assert doc["precond_note"] == ""
        res = runner.invoke(main, args + ["--preconditioner", "jacobi"])
        assert res.exit_code == 1

    def test_fit_reports_why_the_preconditioner_rank_was_cut(
            self, runner, tmp_path, monkeypatch):
        # a sketch started at full rank n fails to factor and keeps n/2;
        # with the combination weights, since the hierarchical operator's
        # full-rank sketch factors here
        monkeypatch.setattr(skigrid.ski, "SKETCH_START_RANK", 200)
        train = tmp_path / "train.csv"
        make_train_csv(train, n=200, d=4, noise=0.05, seed=5)
        res = runner.invoke(main, self.fit_args(
            train, tmp_path / "m.json", resolution=3, sigma2=0.01,
            cg_tol=1e-6) + ["--method", "combination"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["precond_rank"] == 100
        assert doc["precond_note"] == ("factorization failed at rank 200; "
                                       "kept rank 100")

    def test_predict_dimension_mismatch_exit_1(self, runner, tmp_path):
        train = tmp_path / "train.csv"
        make_train_csv(train, n=60, d=2, seed=4)
        model = tmp_path / "m.json"
        assert runner.invoke(main, self.fit_args(
            train, model, sigma2=1e-4, cg_tol=1e-6)).exit_code == 0
        wide = tmp_path / "wide.csv"
        make_train_csv(wide, n=10, d=4, seed=5)
        res = runner.invoke(main, ["gp", "predict", "--model", str(model),
                                   "--data", str(wide),
                                   "--output", str(tmp_path / "p.csv")])
        assert res.exit_code == 1

    def test_loaded_model_predicts_on_data_scale(self, runner, tmp_path):
        # targets with mean ~5 and std ~3: a model fitted by the CLI and
        # loaded through the library must undo the standardization itself
        train = tmp_path / "train.csv"
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (100, 2))
        y = 5.0 + 3.0 * np.cos(3 * X.sum(axis=1))
        np.savetxt(train, np.column_stack([X, y]), delimiter=",")
        model = tmp_path / "m.json"
        res = runner.invoke(main, self.fit_args(train, model, sigma2=1e-4,
                                                cg_tol=1e-6))
        assert res.exit_code == 0, res.output
        pred = tmp_path / "pred.csv"
        res = runner.invoke(main, ["gp", "predict", "--model", str(model),
                                   "--data", str(train),
                                   "--output", str(pred)])
        assert res.exit_code == 0, res.output
        with open(pred) as fh:
            mu_cli = np.array([float(r["mean"]) for r in csv.DictReader(fh)])
        mu_lib = skigrid.load_model(model).predict_mean(X)
        np.testing.assert_array_equal(mu_lib, mu_cli)
        assert abs(mu_lib.mean() - y.mean()) < 0.1

    def test_deterministic_model_across_runs(self, runner, tmp_path):
        train = tmp_path / "train.csv"
        make_train_csv(train, n=120, d=2, seed=8)
        args = lambda m: self.fit_args(train, m, sigma2=1e-4, cg_tol=1e-8)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, args(a)).exit_code == 0
        assert runner.invoke(main, args(b)).exit_code == 0
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        # the cli echo differs by output path/timestamp; the model may not
        pa.pop("cli")
        pb.pop("cli")
        assert pa == pb


class TestGpStudy:
    def test_synthetic_study(self, runner, tmp_path):
        out = tmp_path / "study.jsonl"
        res = runner.invoke(main, ["gp", "study", "--dims", "2",
                                   "--n-train", "300", "--n-test", "80",
                                   "--resolution", "3",
                                   "--output", str(out), "-v"])
        assert res.exit_code == 0, res.output
        rows = [json.loads(ln) for ln in out.read_text().splitlines()[1:]]
        rmse = {r["grid"]: r["value"] for r in rows
                if r["metric"] == "test_rmse"}
        assert set(rmse) == {"sparse", "dense"}
        assert all(v < 0.15 for v in rmse.values())
        assert "rmse" in res.stderr
        ranks = {r["grid"]: r["value"] for r in rows
                 if r["metric"] == "precond_rank"}
        assert set(ranks) == {"sparse", "dense"}
        assert all(v > 0 for v in ranks.values())

    def test_csv_study_splits_and_standardizes(self, runner, tmp_path):
        train = tmp_path / "data.csv"
        make_train_csv(train, n=450, d=2, noise=0.02, seed=9)
        out = tmp_path / "study.jsonl"
        res = runner.invoke(main, ["gp", "study", "--data", str(train),
                                   "--resolution", "3", "--sigma2", "1e-3",
                                   "--output", str(out)])
        assert res.exit_code == 0, res.output
        rows = [json.loads(ln) for ln in out.read_text().splitlines()[1:]]
        (split,) = [r for r in rows if r["metric"] == "split_sizes"]
        assert split["value"] == "200:100:150"
        metrics = {r["metric"] for r in rows}
        assert {"val_rmse", "test_rmse", "val_rmse_raw",
                "test_rmse_raw"} <= metrics
        for r in rows:
            if r["metric"] == "test_rmse":
                assert r["value"] < 0.5

    def test_study_deterministic_under_seed(self, runner, tmp_path):
        def run(path):
            res = runner.invoke(main, ["gp", "study", "--dims", "2",
                                       "--n-train", "200", "--n-test", "50",
                                       "--resolution", "2", "--seed", "5",
                                       "--output", str(path)])
            assert res.exit_code == 0
            rows = [json.loads(ln) for ln in path.read_text().splitlines()]
            return [r for r in rows if r.get("record") == "row"
                    and r.get("unit") != "s"]
        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


class TestConfigPlumbing:
    def test_config_file_drives_mvm_bench(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.jsonl"
        cfg.write_text(json.dumps({
            "d": 2, "ells": "1,2", "reps": 2, "algos": "iterative,recursive",
            "output": str(out)}))
        res = runner.invoke(main, ["mvm-bench", "--config", str(cfg)])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["config"]["d"] == 2 and doc["config"]["reps"] == 2
        assert out.exists()

    def test_broken_config_json_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        res = runner.invoke(main, ["mvm-bench", "--config", str(cfg)])
        assert res.exit_code == 1

    def test_help_exits_zero(self, runner):
        assert runner.invoke(main, ["--help"]).exit_code == 0
        assert runner.invoke(main, ["gp", "--help"]).exit_code == 0


class TestSettings:
    """Options are the settings keys; --config files set their defaults."""

    @pytest.fixture
    def commands(self, tmp_path):
        train = tmp_path / "train.csv"
        make_train_csv(train, n=40, d=2, seed=10)
        model = tmp_path / "model.json"
        fit = ["gp", "fit", "--data", str(train), "--model", str(model),
               "--resolution", "2", "--sigma2", "1e-3", "--cg-tol", "1e-6"]
        return {
            "grid": ["grid", "--l", "2", "--d", "3", "--size-cap", "100"],
            "mvm-bench": ["mvm-bench", "--d", "2", "--ells", "1,2",
                          "--reps", "2", "--algos", "iterative",
                          "--output", str(tmp_path / "m.jsonl")],
            "interp-bench": ["interp-bench", "--d", "2", "--ells", "2",
                             "--n-eval", "20", "--sparse-only",
                             "--output", str(tmp_path / "i.jsonl")],
            "gp fit": fit,
            "gp predict": ["gp", "predict", "--model", str(model),
                           "--data", str(train),
                           "--output", str(tmp_path / "p.csv")],
            "gp study": ["gp", "study", "--dims", "2", "--n-train", "100",
                         "--n-test", "20", "--resolution", "2",
                         "--no-standardize",
                         "--output", str(tmp_path / "s.jsonl")],
        }

    @pytest.mark.parametrize("name", ["grid", "mvm-bench", "interp-bench",
                                      "gp fit", "gp predict", "gp study"])
    def test_echoed_config_replays_from_file(self, runner, tmp_path,
                                             commands, name):
        if name == "gp predict":
            assert runner.invoke(main, commands["gp fit"]).exit_code == 0
        res = runner.invoke(main, commands[name])
        assert res.exit_code == 0, res.output
        first = json.loads(res.stdout)
        assert first["command"] == name
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(first["config"]))
        res = runner.invoke(main, [*name.split(), "--config", str(cfg)],
                            prog_name="python -m skigrid.cli")
        assert res.exit_code == 0, res.output
        again = json.loads(res.stdout)
        assert again["command"] == name
        assert again["config"] == first["config"]

    def test_toml_config_drives_grid(self, runner, tmp_path):
        pytest.importorskip("tomllib")
        cfg = tmp_path / "c.toml"
        cfg.write_text('l = 2\nd = 2\ndump = "%s"\n'
                       % (tmp_path / "pts.csv").as_posix())
        res = runner.invoke(main, ["grid", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["config"]["l"] == 2 and doc["closed_form"] == 17
        assert (tmp_path / "pts.csv").exists()

    def test_broken_toml_exit_1(self, runner, tmp_path):
        pytest.importorskip("tomllib")
        cfg = tmp_path / "c.toml"
        cfg.write_text("l = = 2\n")
        assert runner.invoke(main, ["grid", "--config", str(cfg)])\
            .exit_code == 1

    def test_wrong_type_in_file_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"d": 2, "ells": "1", "reps": "x"}))
        res = runner.invoke(main, ["mvm-bench", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "reps" in res.stderr

    @pytest.mark.parametrize("command,key", [
        ("grid", "seed"), ("gp fit", "seed"), ("gp predict", "seed"),
        ("gp study", "output_scale"),
    ])
    def test_dead_keys_rejected(self, runner, tmp_path, command, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: 4}))
        res = runner.invoke(main, [*command.split(), "--config", str(cfg)])
        assert res.exit_code == 1
        assert "unknown keys" in res.stderr

    def test_choices_are_the_library_names(self):
        names = {"method": skigrid.interp.METHODS,
                 "rule": skigrid.interp.RULE_KINDS,
                 "function": bench.SYNTHETIC_FUNCTIONS}
        commands = [*main.commands.values(),
                    *main.commands["gp"].commands.values()]
        params = [p for c in commands for p in c.params if p.name in names]
        assert {p.name for p in params} == set(names)
        for p in params:
            assert tuple(p.type.choices) == names[p.name]

    @pytest.mark.parametrize("name", ["grid", "gp fit"])
    def test_no_seed_flag_where_unused(self, runner, commands, name):
        res = runner.invoke(main, [*commands[name], "--seed", "3"])
        assert res.exit_code == 1
        assert "--seed" in res.stderr

    def test_study_standardize_flag(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        make_train_csv(data, n=90, d=2, seed=11)
        out = tmp_path / "s.jsonl"
        res = runner.invoke(main, ["gp", "study", "--data", str(data),
                                   "--resolution", "2", "--no-standardize",
                                   "--output", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["config"]["standardize"] is False
        header = json.loads(out.read_text().splitlines()[0])
        assert header["config"]["standardize"] is False
