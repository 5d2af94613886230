"""Tests of the benchmark's own code: gates, span arithmetic, metric names."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import skigrid  # noqa: E402
import workloads  # noqa: E402
from checks import ORACLE_RTOL, OracleGate, ResidualGate  # noqa: E402
from spans import Patch, Span, Tracer, child_coverage, layer_metrics, self_times  # noqa: E402
from speed import REF_S, RefClock  # noqa: E402

TINY = workloads.Workload("tiny", dim=2, resolution=3, n_train=300,
                          sigma2=0.01, rmse_bound=0.1)


@pytest.fixture(scope="module")
def fitted():
    X, y = workloads.make_inputs(TINY, seed=0)
    return skigrid.fit(TINY.config(), X, y), X, y


def test_residual_gate_passes_fit_and_trips_on_corrupted_alpha(fitted):
    model, X, y = fitted
    gate = ResidualGate(model, X, y)
    assert gate(model.alpha) <= workloads.CG_TOL
    bad = model.alpha.copy()
    bad[7] += 1e-3 * np.abs(bad).max()
    assert gate(bad) > workloads.CG_TOL


def test_oracle_gate_passes_predictions_and_trips_on_corrupted_one(fitted):
    model, _, _ = fitted
    Xs = np.random.default_rng(1).uniform(size=(40, TINY.dim))
    mean = model.predict_mean(Xs)
    gate = OracleGate(model)
    assert gate(Xs, mean) <= ORACLE_RTOL
    mean[3] += 1e-6
    assert gate(Xs, mean) > ORACLE_RTOL


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.child", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 6.0),
        Span(4, 0, "c", 5.5, 7.0),      # overlaps b: the union counts once
        Span(5, 0, "d", 9.0, 12.0),     # runs past root: clipped to it
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.5, 5: 3.0})
    assert child_coverage(spans, "root") == pytest.approx(0.6)


def test_layer_self_times_subtract_children():
    spans = [
        Span(0, None, "fit", 0.0, 10.0),
        Span(1, 0, "ski.cg", 0.5, 9.5, {"iters": 4, "peak_resid_ratio": 2.0,
                                         "final_rel_resid": 1e-6}),
        Span(2, 1, "sgmvm.mvm", 1.0, 3.0),
        Span(3, 2, "kernels.toeplitz", 1.5, 2.0, {"cols": 5}),
        Span(4, 1, "sgmvm.mvm", 4.0, 8.0),
        Span(5, 4, "kernels.toeplitz", 4.0, 7.0, {"cols": 6}),
    ]
    m = layer_metrics(spans)
    assert m["sgmvm.mvm_s"] == pytest.approx(6.0)
    assert m["sgmvm.mvm_ms"] == pytest.approx(3000.0)
    assert m["sgmvm.gather_scatter_s"] == pytest.approx(2.5)
    assert m["kernels.toeplitz_cols"] == 11
    assert m["ski.cg_self_s"] == pytest.approx(3.0)
    assert m["ski.cg_ms_per_iter"] == pytest.approx(2250.0)


def test_patch_restores_originals():
    orig = skigrid.ski.sg_mvm_batched, skigrid.WeightMatrix.apply
    tracer = Tracer()
    with Patch(tracer).applied():
        assert skigrid.ski.sg_mvm_batched is not orig[0]
        assert skigrid.sgmvm.sg_mvm_batched is skigrid.ski.sg_mvm_batched
    assert (skigrid.ski.sg_mvm_batched, skigrid.WeightMatrix.apply) == orig


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_are_declared(tmp_path, monkeypatch, trace, kind):
    monkeypatch.chdir(tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner, metrics, _ = workloads.run(TINY, seed=0, seconds=0, trace=trace)
    assert runner.failures == []
    assert set(metrics) == {m["name"] for m in spec[kind]}
    assert all(np.isfinite(v) for v in metrics.values())


def test_ref_clock_removes_probe_time_and_scales_by_nearby_probes():
    clock = RefClock()
    clock.probes = [(0.0, 0.010, 0.004), (1.0, 0.020, 0.002),
                    (2.0, 0.010, 0.002), (9.0, 0.5, 0.5)]
    wall = 1.5 - 0.5 - 0.022
    assert clock.seconds(0.5, 1.5, "fft") == pytest.approx(
        wall * REF_S["fft"] / 0.010)
    assert clock.seconds(0.5, 1.5, "loop") == pytest.approx(
        wall * REF_S["loop"] / 0.002)
