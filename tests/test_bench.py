import json

import numpy as np
import pytest

import skigrid.bench as bench
from skigrid.bench import (
    ALGO_REGISTRY,
    ExperimentResult,
    MvmMismatch,
    SyntheticTask,
    fit_loglog_slope,
    gen_synthetic,
    matched_dense_side,
    run_gp_study,
    run_interp_accuracy,
    run_mvm_scaling,
    split_4_2_3,
)
from skigrid.grids import sparse_grid_size
from skigrid.ski import CgConfig


class TestSyntheticTask:
    def test_deterministic_given_seed(self):
        t = SyntheticTask("aniso_cos", 3, seed=11, n_train=40, n_test=15)
        first = gen_synthetic(t)
        second = gen_synthetic(SyntheticTask("aniso_cos", 3, seed=11,
                                             n_train=40, n_test=15))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_zero_noise_is_exact(self):
        t = SyntheticTask("cos_l1", 2, noise_std=0.0, seed=5, n_train=30)
        X, y, _, _ = gen_synthetic(t)
        np.testing.assert_array_equal(y, t.evaluate(X))

    def test_cos_l1_at_origin(self):
        t = SyntheticTask("cos_l1", 4)
        assert t.evaluate(np.zeros((1, 4)))[0] == 1.0

    def test_corner_peak_closed_form(self):
        t = SyntheticTask("corner_peak", 1, c=(1.0,))
        assert t.evaluate(np.array([[1.0]]))[0] == pytest.approx(0.25)

    def test_aniso_cos_formula(self):
        t = SyntheticTask("aniso_cos", 2, seed=3)
        X = np.array([[0.2, 0.7], [0.0, 0.0]])
        want = np.cos(2 * np.pi * t.w + X @ np.asarray(t.c))
        np.testing.assert_allclose(t.evaluate(X), want, rtol=1e-15)

    def test_params_drawn_once_from_seed(self):
        a = SyntheticTask("corner_peak", 3, seed=8)
        b = SyntheticTask("corner_peak", 3, seed=8)
        assert a.w == b.w and a.c == b.c
        assert 0.0 <= a.w <= 1.0
        assert all(0.0 <= ci <= 1.0 for ci in a.c)

    def test_data_inside_unit_cube(self):
        X, _, Xs, _ = gen_synthetic(SyntheticTask("cos_l1", 5, seed=2,
                                                  n_train=200, n_test=50))
        for A in (X, Xs):
            assert A.min() >= 0.0 and A.max() <= 1.0

    def test_test_targets_noiseless(self):
        t = SyntheticTask("cos_l1", 2, noise_std=0.5, seed=1)
        _, _, Xs, fs = gen_synthetic(t)
        np.testing.assert_array_equal(fs, t.evaluate(Xs))

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTask("sinc", 2)
        with pytest.raises(ValueError):
            SyntheticTask("cos_l1", 0)
        with pytest.raises(ValueError):
            SyntheticTask("cos_l1", 2, noise_std=-0.1)
        with pytest.raises(ValueError):
            SyntheticTask("aniso_cos", 3, c=(1.0,))


class TestSplit:
    def test_ratio_and_coverage(self):
        tr, val, te = split_4_2_3(90, seed=4)
        assert (len(tr), len(val), len(te)) == (40, 20, 30)
        assert sorted(np.concatenate([tr, val, te])) == list(range(90))

    def test_deterministic(self):
        a = split_4_2_3(50, seed=7)
        b = split_4_2_3(50, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_4_2_3(2)


class TestExperimentResult:
    def make(self):
        res = ExperimentResult("demo", {"alpha": 1})
        res.add("rmse", 0.125, d=2, grid="sparse")
        res.add("build_time", 0.5, unit="s", algo="iterative")
        res.add("status", "skipped", reason="over cap")
        return res

    def test_rows_are_scalars(self):
        res = ExperimentResult("demo", {})
        row = res.add("count", np.int64(3), d=np.float64(1.5),
                      ok=np.bool_(True))
        assert type(row["value"]) is int
        assert type(row["d"]) is float and type(row["ok"]) is bool
        with pytest.raises(TypeError):
            res.add("bad", {"nested": 1})

    def test_json_lines_validate_against_schema(self, tmp_path):
        import jsonschema

        path = tmp_path / "out.jsonl"
        self.make().write_json_lines(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        schema = bench.results_schema()
        records = [json.loads(ln) for ln in lines]
        assert records[0]["record"] == "header"
        assert records[0]["metadata"]["noise_interpretation"] == "std"
        for rec in records:
            jsonschema.validate(rec, schema)

    def test_invalid_row_rejected_on_write(self, tmp_path):
        import jsonschema

        res = self.make()
        res.rows.append({"experiment": "demo", "metric": "", "value": 1.0})
        with pytest.raises(jsonschema.ValidationError):
            res.write_json_lines(tmp_path / "bad.jsonl")

    def test_csv_long_format(self, tmp_path):
        import csv

        path = tmp_path / "out.csv"
        self.make().write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["metric"] == "rmse"
        assert rows[0]["value"] == "0.125"
        assert rows[0]["grid"] == "sparse"
        assert rows[1]["unit"] == "s"
        assert rows[2]["reason"] == "over cap"
        # one metric per row: every row has the metric/value pair
        assert all(r["metric"] and r["value"] != "" for r in rows)

    def test_metric_rows_filter(self):
        res = self.make()
        assert len(res.metric_rows("rmse")) == 1
        assert res.metric_rows("rmse", d=2)[0]["value"] == 0.125
        assert res.metric_rows(algo="iterative")[0]["metric"] == "build_time"


class TestSlopeFit:
    def test_exact_power_law(self):
        sizes = np.array([10.0, 100.0, 1000.0])
        assert fit_loglog_slope(sizes, 3.0 * sizes**2) == pytest.approx(2.0)
        assert fit_loglog_slope(sizes, sizes**0.9) == pytest.approx(0.9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([10.0], [1.0])


class TestMvmScaling:
    def test_rows_and_metrics(self):
        res = run_mvm_scaling(2, [1, 2], algos=("iterative", "naive"),
                              reps=2, seed=1)
        for ell in (1, 2):
            assert res.metric_rows("grid_points", ell=ell)[0]["value"] == \
                sparse_grid_size(ell, 2)
            for algo in ("iterative", "naive"):
                key = {"algo": algo, "ell": ell}
                for m in ("build_time", "mvm_time_mean", "mvm_time_stderr",
                          "cg_proxy_time", "peak_memory"):
                    (row,) = res.metric_rows(m, **key)
                    assert row["value"] >= 0.0
                (proxy,) = res.metric_rows("cg_proxy_time", **key)
                (b,) = res.metric_rows("build_time", **key)
                (m_,) = res.metric_rows("mvm_time_mean", **key)
                assert proxy["value"] == pytest.approx(b["value"]
                                                       + 50 * m_["value"])

    def test_naive_over_cap_emits_skipped_rows_and_warns(self):
        with pytest.warns(RuntimeWarning, match="naive skipped"):
            res = run_mvm_scaling(2, [1, 4], algos=("iterative", "naive"),
                                  reps=2, naive_cap=30)
        (skip,) = res.metric_rows("status", ell=4)
        assert skip["value"] == "skipped" and "cap" in skip["reason"]
        # timings still present for the fast algo at the skipped level
        assert res.metric_rows("mvm_time_mean", algo="iterative", ell=4)
        assert not res.metric_rows("mvm_time_mean", algo="naive", ell=4)

    def test_injected_bug_trips_correctness_gate(self, monkeypatch):
        def broken(ell, dim, kernel, size_cap):
            good = bench._make_iterative(ell, dim, kernel, size_cap)
            return lambda v: good(v) + 1e-3
        monkeypatch.setitem(ALGO_REGISTRY, "iterative", broken)
        with pytest.raises(MvmMismatch, match="iterative disagrees"):
            run_mvm_scaling(2, [2], algos=("iterative", "naive"), reps=2)

    def test_no_timing_rows_survive_a_mismatch(self, monkeypatch):
        monkeypatch.setitem(
            ALGO_REGISTRY, "recursive",
            lambda e, d, k, c: lambda v: np.zeros_like(v))
        try:
            run_mvm_scaling(2, [2], algos=("iterative", "recursive"), reps=2)
        except MvmMismatch:
            pass

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown algos"):
            run_mvm_scaling(2, [1], algos=("strassen",))

    def test_time_slope_is_sane_on_tiny_range(self):
        res = run_mvm_scaling(2, [2, 3, 4], algos=("naive",), reps=3, seed=0)
        sizes = [r["value"] for r in res.metric_rows("grid_points")]
        times = [res.metric_rows("mvm_time_mean", algo="naive", ell=e)[0]
                 ["value"] for e in (2, 3, 4)]
        # tiny grids sit in constant-overhead territory; just demand growth
        assert times[-1] > 0 and sizes == sorted(sizes)


class TestMatchedDenseSide:
    @pytest.mark.parametrize("d,side,total", [
        (2, 12, 144), (4, 6, 1296), (6, 4, 4096), (8, 3, 6561),
        (10, 3, 59049),
    ])
    def test_resolution4_table(self, d, side, total):
        assert matched_dense_side(4, d) == side
        assert side**d == total
        assert (side - 1) ** d < sparse_grid_size(4, d) <= side**d

    def test_dim1_matches_exactly(self):
        for ell in range(5):
            assert matched_dense_side(ell, 1) == sparse_grid_size(ell, 1)


class TestInterpAccuracy:
    def test_constant_function_exact_for_simplicial(self):
        class Const(SyntheticTask):
            def evaluate(self, X):
                return np.full(np.atleast_2d(X).shape[0], 2.5)

        task = Const("cos_l1", 3, seed=0)
        res = run_interp_accuracy(task, grids=[("sparse", 3), ("dense", 4)],
                                  rules=("simplicial", "linear"))
        for row in res.metric_rows("rms_error"):
            assert row["value"] <= 1e-12

    def test_rows_cover_grid_rule_grid_points(self):
        task = SyntheticTask("cos_l1", 2, seed=6)
        res = run_interp_accuracy(task, grids=[("sparse", 2), ("dense", 5)],
                                  rules=("simplicial", "cubic"), n_eval=50)
        assert len(res.metric_rows("rms_error")) == 4
        (gp,) = res.metric_rows("grid_points", kind="dense", size=5,
                                rule="simplicial")
        assert gp["value"] == 25

    def test_sparse_error_decreases_with_resolution(self):
        task = SyntheticTask("cos_l1", 2, seed=9)
        res = run_interp_accuracy(
            task, grids=[("sparse", e) for e in range(1, 5)], n_eval=300)
        errs = [res.metric_rows("rms_error", size=e)[0]["value"]
                for e in range(1, 5)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_cubic_error_decreases_with_resolution(self):
        task = SyntheticTask("cos_l1", 2, seed=9)
        res = run_interp_accuracy(
            task, grids=[("sparse", e) for e in (2, 4)], rules=("cubic",),
            n_eval=300)
        errs = [res.metric_rows("rms_error", size=e)[0]["value"]
                for e in (2, 4)]
        assert errs[1] < errs[0]

    def test_bad_grid_kind(self):
        with pytest.raises(ValueError, match="sparse or dense"):
            run_interp_accuracy(SyntheticTask("cos_l1", 2),
                                grids=[("hex", 3)])

    def test_default_grids_match_point_budgets(self):
        task = SyntheticTask("cos_l1", 2, seed=0)
        res = run_interp_accuracy(task, n_eval=10)
        dense_sizes = sorted(r["size"] for r in
                             res.metric_rows("grid_points", kind="dense"))
        assert dense_sizes == [matched_dense_side(e, 2) for e in range(2, 6)]


class TestGpStudy:
    def small_task(self, **kw):
        kw.setdefault("n_train", 300)
        kw.setdefault("n_test", 100)
        kw.setdefault("seed", 3)
        return SyntheticTask("cos_l1", 2, **kw)

    def test_rmse_rows_for_both_grids(self):
        res = run_gp_study([self.small_task()], resolution=3)
        for kind in ("sparse", "dense"):
            (row,) = res.metric_rows("test_rmse", grid=kind)
            assert row["value"] < 3 * 0.05
            (conv,) = res.metric_rows("cg_converged", grid=kind)
            assert conv["value"] is True

    def test_grid_size_rows(self):
        res = run_gp_study([self.small_task()], resolution=4)
        assert res.metric_rows("sparse_grid_points")[0]["value"] == 129
        assert res.metric_rows("dense_grid_points")[0]["value"] == 144

    def test_exact_oracle_row(self):
        res = run_gp_study([self.small_task()], resolution=3,
                           include_exact=True)
        (row,) = res.metric_rows("test_rmse", grid="exact")
        assert 0.0 < row["value"] < 0.15
        assert res.metric_rows("log_marginal", grid="exact")

    def test_cg_failure_recorded_not_raised(self):
        # plain CG: with the Nystrom default the sketch captures this 49-point
        # grid's kernel whole and the solve converges within the budget
        res = run_gp_study(
            [self.small_task()], resolution=3,
            cg=CgConfig(rel_tolerance=1e-14, max_iters=2,
                        preconditioner="none"))
        (row,) = res.metric_rows("test_rmse", grid="sparse")
        assert row["value"] is None
        (conv,) = res.metric_rows("cg_converged", grid="sparse")
        assert conv["value"] is False
        assert res.metric_rows("cg_error", grid="sparse")

    def test_deterministic_metric_rows(self):
        def run():
            res = run_gp_study([self.small_task()], resolution=3,
                               include_exact=True)
            return [r for r in res.rows if r.get("unit") != "s"]
        assert run() == run()

    def test_study_results_serialize(self, tmp_path):
        res = run_gp_study([self.small_task()], resolution=3)
        res.write_json_lines(tmp_path / "gp.jsonl")
        res.write_csv(tmp_path / "gp.csv")
        assert (tmp_path / "gp.jsonl").read_text().count("\n") == \
            len(res.rows) + 1
