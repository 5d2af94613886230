"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers.  Results are cached per (criterion, run) so the final
determinism check can re-run everything and compare metrics without
paying for a third pass.
"""
import time
import warnings

import numpy as np

from skigrid.bench import (
    SyntheticTask,
    fit_loglog_slope,
    matched_dense_side,
    run_gp_study,
    run_interp_accuracy,
    run_mvm_scaling,
)
from skigrid.grids import build_sparse_grid, sparse_grid_size
from skigrid.interp import BaseRule, UniformLattice, assemble_W
from skigrid.kernels import ProductKernel
from skigrid.sgmvm import NaiveDenseKernel, build_plan, sg_mvm, sg_mvm_batched
from skigrid.ski import CgConfig, GpConfig, exact_gp_oracle, fit, materialize_ski

_RUNS = {}  # (criterion, run tag) -> {"metrics", "ok", "detail"}


def _run(crit, tag):
    if (crit, tag) not in _RUNS:
        _RUNS[(crit, tag)] = _CRITERIA[crit]()
    return _RUNS[(crit, tag)]


def _report(capsys, crit, tag=0):
    r = _run(crit, tag)
    with capsys.disabled():
        print(f"\nCRITERION {crit}: {'PASS' if r['ok'] else 'FAIL'} — {r['detail']}")
    assert r["ok"], r["detail"]


# ---- 1: grid sizes ---------------------------------------------------------


def _criterion_1():
    t0 = time.perf_counter()
    targets = {(2, 2): 17, (4, 2): 129, (4, 6): 2561, (4, 8): 6401, (4, 10): 13441}
    metrics, ok = {}, True
    for (ell, d), want in sorted(targets.items()):
        closed = int(sparse_grid_size(ell, d))
        enum = len(build_sparse_grid(ell, d))
        metrics[f"size_{ell}_{d}"] = closed
        ok = ok and closed == enum == want
    closed44 = int(sparse_grid_size(4, 4))
    ok = ok and closed44 == len(build_sparse_grid(4, 4))
    metrics["size_4_4"] = closed44
    metrics["flag_4_4_vs_tabulated_796"] = closed44 != 796
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    detail = (
        f"closed form == enumeration == {sorted(targets.values())} for the pinned "
        f"tuples; (4,4) computes {closed44}, tabulated value 796 flagged as "
        f"inconsistent; {elapsed:.2f}s < 1s"
    )
    return {"metrics": metrics, "ok": ok, "detail": detail}


def test_criterion_1_grid_sizes(capsys):
    _report(capsys, 1)


# ---- 2: MVM oracle equivalence --------------------------------------------


def _criterion_2():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 5):
        for ell in range(0, 6):
            grid = build_sparse_grid(ell, d)
            for draw in range(5):
                rng = np.random.default_rng([2, d, ell, draw])
                ls = np.exp(rng.uniform(np.log(0.2), np.log(1.5), size=d))
                scale = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
                kern = ProductKernel(ls, output_scale=scale)
                plan = build_plan(ell, d, kern)
                # the five vectors as rows of one draw, the same numbers as
                # five draws, so the reference forms each kernel block once
                V = rng.standard_normal((5, len(grid)))
                refs = NaiveDenseKernel(grid, kern, point_cap=None).mvm(V.T)
                for v, ref in zip(V, refs.T):
                    den = np.linalg.norm(ref)
                    for out in (sg_mvm(plan, v), sg_mvm_batched(plan, v)):
                        worst = max(worst, float(np.linalg.norm(out - ref) / den))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    detail = (
        f"recursive+iterative vs naive over l=0..5, d=1..4, 5 hyperparameter "
        f"draws x 5 vectors: max rel L2 {worst:.3e} <= 1e-10; {elapsed:.0f}s < 2min"
    )
    return {"metrics": {"max_rel_l2": worst}, "ok": ok, "detail": detail}


def test_criterion_2_mvm_oracle(capsys):
    _report(capsys, 2)


# ---- 3: complexity scaling -------------------------------------------------


def _criterion_3():
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_mvm_scaling(6, ells=range(3, 8),
                              algos=("iterative", "recursive", "naive"),
                              reps=8, seed=0)
    sizes = {r["ell"]: r["value"] for r in res.metric_rows("grid_points")}

    def slope(algo, metric):
        pts = sorted((r["ell"], r["value"]) for r in res.metric_rows(metric, algo=algo))
        return fit_loglog_slope([sizes[e] for e, _ in pts], [v for _, v in pts]), \
            [e for e, _ in pts]

    it_slope, _ = slope("iterative", "mvm_time_mean")
    rec_slope, _ = slope("recursive", "mvm_time_mean")
    nv_slope, nv_ells = slope("naive", "mvm_time_mean")
    mem_slope, _ = slope("iterative", "peak_memory")
    elapsed = time.perf_counter() - t0
    ok = (0.8 <= it_slope <= 1.4 and 1.7 <= nv_slope <= 2.3
          and mem_slope <= 1.5 and elapsed < 600.0)
    detail = (
        f"d=6, l=3..7: iterative time slope {it_slope:.2f} in [0.8, 1.4]; naive "
        f"slope {nv_slope:.2f} in [1.7, 2.3] over feasible l={nv_ells}; iterative "
        f"memory slope {mem_slope:.2f} <= 1.5 (recursive-form slope {rec_slope:.2f}, "
        f"reported only); {elapsed:.0f}s < 10min"
    )
    # slopes are functions of wall times / allocator peaks, so only the
    # structural facts take part in the determinism comparison
    metrics = {f"grid_points_{e}": int(sizes[e]) for e in sizes}
    metrics["naive_feasible_ells"] = ",".join(map(str, nv_ells))
    return {"metrics": metrics, "ok": ok, "detail": detail}


def test_criterion_3_complexity_scaling(capsys):
    _report(capsys, 3)


# ---- 4: interpolation accuracy ---------------------------------------------


def _criterion_4():
    t0 = time.perf_counter()
    task = SyntheticTask("cos_l1", 6, noise_std=0.0, seed=0)
    res = run_interp_accuracy(task, n_eval=200)
    sp = {r["size"]: r["value"]
          for r in res.metric_rows("rms_error", kind="sparse", rule="simplicial")}
    dn = {r["size"]: r["value"]
          for r in res.metric_rows("rms_error", kind="dense", rule="simplicial")}
    mono = all(sp[ell + 1] <= sp[ell] for ell in range(2, 5))
    beats = all(sp[ell] <= dn[matched_dense_side(ell, 6)] for ell in (3, 4, 5))
    elapsed = time.perf_counter() - t0
    ok = mono and beats and elapsed < 300.0
    detail = (
        f"cos_l1 d=6, 200 evaluation points: sparse simplicial RMS "
        f"{[f'{sp[l]:.4f}' for l in (2, 3, 4, 5)]} non-increasing over l=2..5 and "
        f"<= matched dense {[f'{dn[matched_dense_side(l, 6)]:.4f}' for l in (3, 4, 5)]} "
        f"for l>=3; {elapsed:.0f}s < 5min"
    )
    metrics = {f"rms_sparse_{l}": float(sp[l]) for l in (2, 3, 4, 5)}
    metrics.update({f"rms_dense_side_{s}": float(dn[s]) for s in sorted(dn)})
    return {"metrics": metrics, "ok": ok, "detail": detail}


def test_criterion_4_interp_accuracy(capsys):
    _report(capsys, 4)


# ---- 5: partition of unity and affine exactness ----------------------------


def _criterion_5():
    rng = np.random.default_rng([5, 1])
    worst_sum = 0.0
    for _ in range(50):  # 50 configs x 200 points
        d = int(rng.integers(1, 7))
        ell = int(rng.integers(1, 6))
        grid = build_sparse_grid(ell, d)
        X = rng.uniform(size=(200, d))
        W = assemble_W(X, grid, BaseRule("simplicial"), method="combination")
        s = W.apply(np.ones(len(grid)))
        worst_sum = max(worst_sum, float(np.abs(s - 1.0).max()))

    worst_aff = 0.0
    for _ in range(100):  # 100 lattices x 100 points, drawn inside the hull
        d = int(rng.integers(1, 7))
        lat = UniformLattice(rng.integers(2, 6, size=d),
                             rng.uniform(0.05, 0.4, size=d),
                             rng.uniform(-0.5, 0.5, size=d))
        a, b = rng.standard_normal(d), float(rng.standard_normal())
        lo = lat.offsets
        hi = lat.offsets + (lat.counts - 1) * lat.spacings
        X = lo + rng.uniform(size=(100, d)) * (hi - lo)
        W = assemble_W(X, lat, BaseRule("simplicial"))
        err = np.abs(W.apply(lat.points() @ a + b) - (X @ a + b)).max()
        worst_aff = max(worst_aff, float(err))

    ok = worst_sum <= 1e-12 and worst_aff <= 1e-12
    detail = (
        f"10^4 combination-simplicial rows: max |row sum - 1| = {worst_sum:.2e} "
        f"<= 1e-12; 10^4 affine reconstructions on rectilinear lattices: max "
        f"error {worst_aff:.2e} <= 1e-12"
    )
    return {"metrics": {"worst_row_sum_dev": worst_sum,
                        "worst_affine_err": worst_aff},
            "ok": ok, "detail": detail}


def test_criterion_5_unity_and_exactness(capsys):
    _report(capsys, 5)


# ---- 6: SKI solver oracle ---------------------------------------------------


def _criterion_6():
    worst_mean = 0.0
    for i in range(20):
        rng = np.random.default_rng([6, i])
        d = int(rng.integers(1, 4))
        choices = [l for l in range(1, 7) if sparse_grid_size(l, d) <= 3000]
        ell = choices[int(rng.integers(len(choices)))]
        n = int(rng.integers(50, 301))
        kern = ProductKernel(rng.uniform(0.25, 0.8, size=d),
                             output_scale=float(rng.uniform(0.7, 1.4)))
        s2 = float(rng.uniform(0.2, 0.5))
        X = rng.uniform(size=(n, d))
        y = np.cos(2.0 * X.sum(axis=1)) + rng.normal(0.0, 0.3, size=n)
        Xs = rng.uniform(size=(40, d))
        cfg = GpConfig(kernel=kern, sigma2=s2, resolution=ell,
                       cg=CgConfig(rel_tolerance=1e-12, max_iters=5000))
        model = fit(cfg, X, y)
        mean_cg = model.predict_mean(Xs)
        # quadratic-cost reference on the same mapped coordinates
        U = model.domain_map.forward(X)
        Us = model.domain_map.forward(Xs)
        W = assemble_W(U, model.grid, BaseRule(cfg.rule), method=cfg.method)
        Ws = assemble_W(Us, model.grid, BaseRule(cfg.rule), method=cfg.method)
        KG = kern.pairwise(model.grid.points())
        alpha = np.linalg.solve(materialize_ski(W, KG, s2), y)
        mean_ref = Ws.apply(KG @ W.apply_transpose(alpha))
        rel = np.linalg.norm(mean_cg - mean_ref) / np.linalg.norm(mean_ref)
        worst_mean = max(worst_mean, float(rel))

    rng = np.random.default_rng([6, 99])
    X = rng.uniform(size=(50, 2))
    y = rng.standard_normal(50)
    kern, s2 = ProductKernel([0.4, 0.6]), 0.15
    _, logp = exact_gp_oracle(X, y, X[:2], kern, s2)
    K = kern.pairwise(X) + s2 * np.eye(50)
    direct = float(-0.5 * y @ np.linalg.inv(K) @ y
                   - 0.5 * np.linalg.slogdet(K)[1]
                   - 25.0 * np.log(2.0 * np.pi))
    dlogp = abs(logp - direct)

    ok = worst_mean <= 1e-8 and dlogp <= 1e-6
    detail = (
        f"20 random instances (n <= 300, |G| <= 3000): CG vs dense-materialized "
        f"predictive means, max rel L2 {worst_mean:.2e} <= 1e-8; oracle log p(y) "
        f"vs direct inverse at n=50: |diff| {dlogp:.2e} <= 1e-6"
    )
    return {"metrics": {"worst_mean_rel_l2": worst_mean, "logp_diff": dlogp},
            "ok": ok, "detail": detail}


def test_criterion_6_solver_oracle(capsys):
    _report(capsys, 6)


# ---- 7: GP regression desk-scale -------------------------------------------


def _criterion_7():
    t0 = time.perf_counter()
    noise = 0.05
    task2 = SyntheticTask("cos_l1", 2, noise_std=noise, seed=11,
                          n_train=4000, n_test=500)
    task8 = SyntheticTask("cos_l1", 8, noise_std=noise, seed=11,
                          n_train=4000, n_test=500)
    r2 = run_gp_study([task2], resolution=4, lengthscale=0.3, sigma2=0.01,
                      cg=CgConfig(rel_tolerance=1e-5, max_iters=2000),
                      grids=("sparse",), include_exact=True)
    r8 = run_gp_study([task8], resolution=4, lengthscale=0.4, sigma2=0.01,
                      cg=CgConfig(rel_tolerance=1e-4, max_iters=2000))
    rows2 = {(r["metric"], r.get("grid")): r["value"] for r in r2.rows}
    rmse2 = rows2[("test_rmse", "sparse")]
    rmse_ex = rows2[("test_rmse", "exact")]
    rows8 = {(r["metric"], r.get("grid")): r["value"] for r in r8.rows}
    sp8, dn8 = rows8[("test_rmse", "sparse")], rows8[("test_rmse", "dense")]
    g_sp = rows8[("sparse_grid_points", None)]
    g_dn = rows8[("dense_grid_points", None)]
    elapsed = time.perf_counter() - t0

    ok = (rmse2 is not None and rmse_ex is not None
          and rmse2 <= 3 * noise and rmse2 <= 2 * rmse_ex
          and sp8 is not None and dn8 is not None and sp8 <= dn8
          and (g_sp, g_dn) == (6401, 6561) and elapsed < 1200.0)
    detail = (
        f"cos_l1 + noise 0.05, n=4000: d=2 sparse rmse {rmse2:.4f} <= "
        f"{3 * noise:.2f} and {rmse2 / rmse_ex:.2f}x exact oracle ({rmse_ex:.4f}); "
        f"d=8 sparse rmse {sp8:.4f} <= dense {dn8:.4f} at {g_sp} vs {g_dn} grid "
        f"points; {elapsed:.0f}s < 20min"
    )
    metrics = {"rmse_d2_sparse": rmse2, "rmse_d2_exact": rmse_ex,
               "rmse_d8_sparse": sp8, "rmse_d8_dense": dn8,
               "grid_d8_sparse": int(g_sp), "grid_d8_dense": int(g_dn),
               "iters_d2": int(rows2[("cg_iterations", "sparse")]),
               "iters_d8_sparse": int(rows8[("cg_iterations", "sparse")]),
               "iters_d8_dense": int(rows8[("cg_iterations", "dense")])}
    return {"metrics": metrics, "ok": ok, "detail": detail}


def test_criterion_7_gp_regression(capsys):
    _report(capsys, 7)


# ---- 8: determinism ---------------------------------------------------------

_CRITERIA = {1: _criterion_1, 2: _criterion_2, 3: _criterion_3, 4: _criterion_4,
             5: _criterion_5, 6: _criterion_6, 7: _criterion_7}


def test_criterion_8_determinism(capsys):
    diffs = []
    for crit in sorted(_CRITERIA):
        a, b = _run(crit, 0)["metrics"], _run(crit, 1)["metrics"]
        bad = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if bad:
            diffs.append(f"criterion {crit}: {bad}")
    ok = not diffs
    detail = ("criteria 1-7 reproduce bit-identical metrics across two runs "
              "(timings and allocator peaks excluded)"
              if ok else "; ".join(diffs))
    with capsys.disabled():
        print(f"\nCRITERION 8: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail
