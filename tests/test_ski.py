"""SKI operator, CG solver, GP fit/predict, and the exact dense oracle."""

import base64
import gc
import json
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from skigrid import interp, ski
from skigrid.grids import build_sparse_grid
from skigrid.interp import (
    BaseRule,
    UniformLattice,
    WeightMatrix,
    assemble_W,
    interpolator,
)
from skigrid.kernels import ProductKernel
from skigrid.sgmvm import build_plan, sg_mvm, sg_mvm_batched
from skigrid.ski import (
    CgConfig,
    CgFailure,
    CgStats,
    DomainMap,
    GpConfig,
    SkiOperator,
    cg_solve,
    exact_gp_oracle,
    fit,
    load_model,
    materialize_ski,
    read_xy_csv,
)


def small_instance(seed, n=100, ell=3, d=2, sigma2=0.1):
    rng = np.random.default_rng(seed)
    kernel = ProductKernel(
        lengthscales=rng.uniform(0.25, 0.8, d),
        output_scale=rng.uniform(0.5, 2.0),
    )
    grid = build_sparse_grid(ell, d)
    plan = build_plan(ell, d, kernel)
    X = rng.uniform(0, 1, (n, d))
    W = assemble_W(X, grid, method="combination")
    op = SkiOperator(W, lambda v: sg_mvm_batched(plan, v), sigma2)
    dense = materialize_ski(W, kernel.pairwise(grid.points()), sigma2)
    return rng, op, dense


class _DiagOp:
    """diag(d) as a noise-free operator: sigma^2 = 0, full rank bound."""

    sigma2 = 0.0

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.n = self.rank_bound = len(self.diag)

    def matvec(self, v):
        return self.diag * v

    def kernel_matmat(self, V, out=None):
        if out is None:
            out = np.empty(V.shape)
        out[...] = self.diag[:, None] * V
        return out


def ski_operator(n, d, ell, sigma2, ls=0.3, seed=3):
    """SkiOperator on n uniform points, with no dense reference."""
    X = np.random.default_rng(seed).uniform(size=(n, d))
    plan = build_plan(ell, d, ProductKernel(lengthscales=np.full(d, ls)))
    W = assemble_W(X, build_sparse_grid(ell, d), method="combination")
    return SkiOperator(W, lambda v: sg_mvm_batched(plan, v), sigma2,
                       mvm_floats=plan.workspace_floats)


def reference_preconditioner(op, tol):
    """The sketch rebuilt from scratch at every doubling (hstack'd columns,
    Cholesky QR of the whole omega): (P^-1, rank, iteration estimate)."""
    rng = np.random.default_rng(ski.SKETCH_SEED)
    omega = y_raw = np.empty((op.n, 0))
    rank = min(ski.SKETCH_START_RANK, op.rank_bound)
    while True:
        new = rng.standard_normal((op.n, rank - omega.shape[1]))
        omega = np.hstack([omega, new])
        y_raw = np.hstack([y_raw, op.kernel_matmat(new)])
        r = scipy.linalg.cholesky(omega.T @ omega)
        q = scipy.linalg.solve_triangular(r, omega.T, trans="T").T
        y = scipy.linalg.solve_triangular(r, y_raw.T, trans="T").T
        nu = np.sqrt(op.n) * np.spacing(np.linalg.norm(y))
        y += nu * q
        core = q.T @ y
        c = scipy.linalg.cholesky((core + core.T) / 2)
        b = scipy.linalg.solve_triangular(c, y.T, trans="T").T
        s2, v = np.linalg.eigh(b.T @ b)
        s2, v = s2[::-1], v[:, ::-1]
        lam = np.maximum(s2 - nu, 0.0)
        keep = lam > 0
        u = b @ (v[:, keep] / np.sqrt(s2[keep]))
        estimate = 0.5 * np.sqrt(1 + lam[-1] / op.sigma2) * np.log(2 / tol)
        if estimate <= rank or rank == op.rank_bound:
            break
        rank = min(2 * rank, op.rank_bound)
    coef = (lam[-1] + op.sigma2) / (lam[keep] + op.sigma2) - 1.0
    return lambda res: res + u @ (coef * (u.T @ res)), rank, estimate


class TestSkiOperator:
    def test_matvec_matches_dense_materialization(self):
        for seed in range(3):
            rng, op, dense = small_instance(seed)
            v = rng.standard_normal(op.n)
            got = op.matvec(v)
            assert np.abs(got - dense @ v).max() < 1e-10

    def test_zero_weight_rows_leave_noise_only(self):
        # all-zero W: the operator degenerates to sigma^2 I
        empty = scipy.sparse.csr_matrix((4, 17))
        W = WeightMatrix(empty, interpolator(UniformLattice.unit(2, 2)))
        op = SkiOperator(W, lambda v: v, sigma2=1.0)
        v = np.arange(4.0)
        np.testing.assert_array_equal(op.matvec(v), v)

    def test_unit_vector_probes_symmetric(self):
        _, op, _ = small_instance(7)
        ei = np.zeros(op.n)
        ej = np.zeros(op.n)
        ei[3] = 1.0
        ej[11] = 1.0
        assert op.matvec(ei)[11] == pytest.approx(op.matvec(ej)[3], rel=1e-12)

    def test_quadratic_form_dominates_noise(self):
        rng, op, _ = small_instance(9, sigma2=0.3)
        for _ in range(5):
            v = rng.standard_normal(op.n)
            assert v @ op.matvec(v) >= 0.3 * (v @ v) - 1e-8

    def test_kernel_matmat_into_out_is_bit_identical(self):
        rng, op, dense = small_instance(11)
        op.chunk = 3                    # several chunks per block
        V = rng.standard_normal((op.n, 16))
        got = op.kernel_matmat(V)
        np.testing.assert_allclose(got, (dense - op.sigma2 * np.eye(op.n)) @ V,
                                   rtol=0, atol=1e-10)
        # a transposed row buffer, as the sketch passes it, and views of V
        # that are not C-contiguous
        for block in (V, np.asfortranarray(V),
                      rng.standard_normal((op.n, 32))[:, ::2]):
            buf = np.full((20, op.n), np.nan)
            out = buf[2:18].T
            assert op.kernel_matmat(block, out=out) is out
            np.testing.assert_array_equal(out, op.kernel_matmat(
                np.ascontiguousarray(block)))
            assert np.isnan(buf[:2]).all() and np.isnan(buf[18:]).all()

    def test_negative_sigma_rejected(self):
        empty = scipy.sparse.csr_matrix((2, 3))
        W = WeightMatrix(empty, interpolator(UniformLattice.unit(1, 2)))
        with pytest.raises(ValueError):
            SkiOperator(W, lambda v: v, sigma2=-0.1)


class TestCg:
    def test_zero_rhs(self):
        alpha, stats = cg_solve(_DiagOp([2.0, 3.0]), np.zeros(2))
        np.testing.assert_array_equal(alpha, 0.0)
        assert stats.converged and stats.n_iters == 0

    def test_scaled_identity_one_iteration(self):
        y = np.array([1.0, -2.0, 0.5])
        alpha, stats = cg_solve(_DiagOp([4.0, 4.0, 4.0]), y)
        np.testing.assert_allclose(alpha, y / 4.0, rtol=1e-14)
        assert stats.converged and stats.n_iters == 1

    def test_matches_direct_dense_solve(self):
        rng, op, dense = small_instance(13)
        y = rng.standard_normal(op.n)
        alpha, stats = cg_solve(op, y, CgConfig(rel_tolerance=1e-10,
                                                max_iters=500))
        assert stats.converged
        np.testing.assert_allclose(alpha, np.linalg.solve(dense, y),
                                   atol=1e-6)

    def test_budget_exhaustion_reported_not_raised(self):
        # plain CG: this kernel's grid spectrum falls below roundoff within
        # 32 eigenvalues, so a Nystrom-preconditioned solve converges within
        # the two-iteration budget
        rng, op, _ = small_instance(17)
        y = rng.standard_normal(op.n)
        alpha, stats = cg_solve(op, y, CgConfig(rel_tolerance=1e-12,
                                                max_iters=2,
                                                preconditioner="none"))
        assert not stats.converged
        assert not stats.diverged
        assert stats.n_iters == 2
        assert np.isfinite(alpha).all()

    def test_indefinite_operator_flagged_as_divergence(self):
        # the sketch core is negative definite: its Cholesky fails, no
        # preconditioner is built and plain CG reports the divergence
        y = np.ones(3)
        alpha, stats = cg_solve(_DiagOp([-1.0, -1.0, -1.0]), y)
        assert stats.diverged and not stats.converged
        assert stats.precond_rank == 0

    def test_no_preconditioner_is_explained(self):
        _, stats = cg_solve(_DiagOp([-1.0, -1.0, -1.0]), np.ones(3))
        assert stats.precond_note == ski.NO_PRECONDITIONER
        _, stats = cg_solve(_DiagOp([2.0, 3.0]), np.ones(2),
                            CgConfig(preconditioner="none"))
        assert stats.precond_note == ""

    def test_nystrom_cuts_iterations_and_matches_dense_solve(self):
        rng, op, dense = small_instance(5, n=400, ell=4, d=3, sigma2=1e-3)
        y = rng.standard_normal(op.n)
        cfg = dict(rel_tolerance=1e-10, max_iters=5000)
        _, plain = cg_solve(op, y, CgConfig(preconditioner="none", **cfg))
        alpha, stats = cg_solve(op, y, CgConfig(**cfg))
        assert stats.converged and plain.converged
        assert 0 < stats.precond_rank <= op.rank_bound
        assert stats.precond_seconds > 0
        assert stats.precond_note == ""
        assert 3 * stats.n_iters <= plain.n_iters
        np.testing.assert_allclose(alpha, np.linalg.solve(dense, y),
                                   rtol=0, atol=1e-6)

    def test_residual_peak_above_ten_times_rhs_still_converges(self):
        # CG's residual norm is not monotone: here the first step of plain CG
        # takes it to 20 ||y||, and the solve must carry on to the exact
        # solution (a full-rank Nystrom preconditioner would solve it at once)
        y = np.array([0.05, 1.0])
        alpha, stats = cg_solve(_DiagOp([1.0, 1e-6]), y,
                                CgConfig(preconditioner="none"))
        assert stats.residual_norms[0] > 10 * np.linalg.norm(y)
        assert stats.converged and not stats.diverged
        assert stats.n_iters == 2
        np.testing.assert_allclose(alpha, [0.05, 1e6], rtol=1e-8)

    def test_fit_with_early_residual_peak_converges(self):
        # a well-posed fit that a 10 ||y|| divergence guard once stopped after
        # 17 iterations; how high its residual peaks depends on MVM roundoff,
        # so the peak itself is checked on the fixed operator above
        rng = np.random.default_rng([0, 2, 10000])
        X = rng.uniform(size=(10000, 2))
        y = np.cos(X.sum(axis=1)) + 0.05 * rng.standard_normal(10000)
        cfg = GpConfig(kernel=ProductKernel([0.3, 0.3]), sigma2=0.0025,
                       resolution=6,
                       cg=CgConfig(rel_tolerance=1e-5, max_iters=5000))
        model = fit(cfg, X, y)
        stats = model.fit_stats
        assert stats.converged and not stats.diverged
        # true residual through the recursive MVM, a second route
        W = assemble_W(model.domain_map.forward(X), model.grid,
                       method=cfg.method)
        plan = build_plan(6, 2, cfg.kernel)
        Ka = W.apply(sg_mvm(plan, W.apply_transpose(model.alpha)))
        resid = y - Ka - cfg.sigma2 * model.alpha
        assert np.linalg.norm(resid) <= 1e-5 * np.linalg.norm(y)

    def test_deterministic(self):
        rng, op, _ = small_instance(23)
        y = rng.standard_normal(op.n)
        a1, s1 = cg_solve(op, y, CgConfig(rel_tolerance=1e-8, max_iters=200))
        a2, s2 = cg_solve(op, y, CgConfig(rel_tolerance=1e-8, max_iters=200))
        np.testing.assert_array_equal(a1, a2)
        assert s1.residual_norms == s2.residual_norms

    def test_residual_history_tracked(self):
        rng, op, _ = small_instance(29)
        y = rng.standard_normal(op.n)
        _, stats = cg_solve(op, y, CgConfig(rel_tolerance=1e-6, max_iters=300))
        assert len(stats.residual_norms) == stats.n_iters
        assert stats.final_rel_residual <= 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CgConfig(rel_tolerance=0.0)
        with pytest.raises(ValueError):
            CgConfig(max_iters=0)
        with pytest.raises(ValueError):
            CgConfig(preconditioner="ssor")
        with pytest.raises(ValueError):
            CgConfig(preconditioner="jacobi")


class TestNystromSketch:
    # each sketch doubles once or more and keeps lam_r far above roundoff
    # of ||A||: where lam_r nears sqrt(eps) ||A||, both routes' smallest
    # eigenpairs are noise and agree only to that noise
    @pytest.mark.parametrize("build", [
        lambda: small_instance(0, n=400, ell=4, d=3, sigma2=3e-5)[1],
        lambda: small_instance(3, n=400, ell=4, d=3, sigma2=1e-4)[1],
        lambda: ski_operator(4000, 4, 4, 0.0025),
    ], ids=["d3_seed0", "d3_seed3", "d4_n4000"])
    def test_matches_the_sketch_rebuilt_at_every_doubling(self, build):
        op = build()
        tol = 1e-5
        ref, rank, estimate = reference_preconditioner(op, tol)
        stats = CgStats()
        precond = ski._nystrom_preconditioner(op, tol, stats)
        assert stats.precond_rank == rank > ski.SKETCH_START_RANK
        assert stats.precond_iter_estimate == pytest.approx(estimate, rel=1e-9)
        for res in np.random.default_rng(1).standard_normal((3, op.n)):
            want = ref(res)
            assert (np.linalg.norm(precond(res) - want)
                    <= 1e-10 * np.linalg.norm(want))

    def test_peak_memory_is_three_sketch_arrays(self, monkeypatch):
        # three doublings (16 -> 128) on a short lengthscale; the rank stops
        # one short of rank_bound = |G| = 129, so the two row buffers, which
        # tracemalloc counts whole, are the size of the final sketch
        monkeypatch.setattr(ski, "SKETCH_START_RANK", 16)
        op = ski_operator(4000, 2, 4, 1e-6, ls=0.05)
        V = np.ones((op.n, min(op.chunk, 64)))
        out = np.empty(V.shape)
        stats = CgStats()
        tracemalloc.start()
        try:
            op.kernel_matmat(V, out=out)
            chunk = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ski._nystrom_preconditioner(op, 1e-5, stats)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert stats.precond_rank == 128 and op.rank_bound == 129
        assert peak <= 3.5 * op.n * stats.precond_rank * 8 + chunk

    def test_full_rank_sketch_falls_back_to_half_rank(self, monkeypatch):
        # the serving workload's setting with the sketch started at n: the
        # rank-1000 factorization fails, and half the rank still factors
        monkeypatch.setattr(ski, "SKETCH_START_RANK", 1000)
        op = ski_operator(1000, 6, 4, 0.01)
        y = np.cos(np.random.default_rng(5).uniform(size=op.n))
        _, plain = cg_solve(op, y, CgConfig(rel_tolerance=1e-5, max_iters=2000,
                                            preconditioner="none"))
        alpha, stats = cg_solve(op, y, CgConfig(rel_tolerance=1e-5,
                                                max_iters=2000))
        assert stats.converged and plain.converged
        assert stats.precond_rank == 500
        assert stats.precond_note == ("factorization failed at rank 1000; "
                                      "kept rank 500")
        assert 10 * stats.n_iters <= plain.n_iters
        resid = y - op.matvec(alpha)
        assert np.linalg.norm(resid) <= 1e-5 * np.linalg.norm(y)


class TestDomainMap:
    def test_maps_data_inside_grid_hull(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(-5, 12, (200, 3))
        delta = 2.0**-5
        dm = DomainMap.fit(X, delta)
        U = dm.forward(X)
        assert (U > delta - 1e-12).all() and (U < 1 - delta + 1e-12).all()
        # the 1% margin keeps the extremes strictly inside
        assert U.min() > delta
        assert U.max() < 1 - delta

    def test_zero_range_dimension_centres(self):
        X = np.array([[1.0, 4.0], [2.0, 4.0], [3.0, 4.0]])
        dm = DomainMap.fit(X, 0.125)
        U = dm.forward(X)
        np.testing.assert_array_equal(U[:, 1], 0.5)

    def test_json_roundtrip(self):
        dm = DomainMap.fit(np.array([[0.0, 1.0], [2.0, 5.0]]), 0.25)
        dm2 = DomainMap.from_json(dm.to_json())
        np.testing.assert_array_equal(dm2.lo, dm.lo)
        np.testing.assert_array_equal(dm2.width, dm.width)
        assert dm2.delta == dm.delta


@pytest.fixture
def built_hierarchies(monkeypatch):
    """Weak references to every _Hierarchy built while the test runs."""
    built = []
    init = interp._Hierarchy.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(interp._Hierarchy, "__init__", recording)
    return built


def _drop_last_value(b64):
    return base64.b64encode(base64.b64decode(b64)[:-8]).decode()


def _with(payload, part, **changes):
    return {**payload, part: {**payload[part], **changes}}


# Edits of a saved d = 2 model file after which its parts disagree, each
# with the message that names the key: (edit, message), by id.
DISAGREEING = {
    "grid_dim_3": (lambda p: _with(p, "grid", dim=3),
                   "grid.dim is 3, but kernel.lengthscales has 2 entries"),
    "three_lengthscales": (
        lambda p: _with(p, "kernel", lengthscales=[0.3] * 3),
        "grid.dim is 2, but kernel.lengthscales has 3 entries"),
    "lo_one_entry": (
        lambda p: _with(p, "domain_map", lo=p["domain_map"]["lo"][:1]),
        r"domain_map\.lo has shape \(1,\)"),
    "width_three_entries": (
        lambda p: _with(p, "domain_map",
                        width=p["domain_map"]["width"] + [1.0]),
        r"domain_map\.width has shape \(3,\)"),
    "grid_dual_other_grid": (
        lambda p: _with(p, "grid", resolution=p["grid"]["resolution"] - 1),
        r"grid_dual has shape"),
    "alpha_short": (lambda p: {**p, "alpha": _drop_last_value(p["alpha"])},
                    r"alpha has shape"),
    "std_zero": (lambda p: _with(p, "y_standardization", std=0.0),
                 "y_standardization"),
    "std_nan": (lambda p: _with(p, "y_standardization", std=float("nan")),
                "y_standardization"),
    "delta_edited": (lambda p: _with(p, "domain_map", delta=0.3),
                     r"domain_map\.delta is 0\.3, but the grid it names "
                     r"fixes it at 0\.0625"),
    "width_negated": (
        lambda p: _with(p, "domain_map",
                        width=[-w for w in p["domain_map"]["width"]]),
        r"domain_map\.width is .*finite and >= 0"),
    "width_inf": (
        lambda p: _with(p, "domain_map",
                        width=[float("inf"), *p["domain_map"]["width"][1:]]),
        r"domain_map\.width is \[inf,"),
    "lo_nan": (
        lambda p: _with(p, "domain_map",
                        lo=[float("nan"), *p["domain_map"]["lo"][1:]]),
        r"domain_map\.lo is \[nan,"),
}


def quick_cfg(d, ell=3, sigma2=0.01, ls=0.35, tol=1e-8, **kw):
    return GpConfig(
        kernel=ProductKernel(lengthscales=np.full(d, ls)),
        sigma2=sigma2,
        resolution=ell,
        cg=CgConfig(rel_tolerance=tol, max_iters=2000),
        **kw,
    )


class TestFitPredict:
    def test_single_point_scalar_solve(self):
        X = np.array([[0.3, 0.8]])
        y = np.array([2.5])
        cfg = quick_cfg(2, sigma2=0.5)
        model = fit(cfg, X, y)
        grid = build_sparse_grid(3, 2)
        plan_kernel = cfg.kernel
        W = assemble_W(model.domain_map.forward(X), grid, method=cfg.method)
        K_G = plan_kernel.pairwise(grid.points())
        k11 = materialize_ski(W, K_G, 0.0)[0, 0]
        assert model.alpha[0] == pytest.approx(2.5 / (k11 + 0.5), rel=1e-8)
        assert model.fit_stats.precond_rank == 1    # capped at n

    def test_fewer_points_than_start_rank(self):
        # n = 20 < 32 columns: the sketch rank is capped at min(n, |G|)
        rng = np.random.default_rng(47)
        X = rng.uniform(0, 1, (20, 2))
        y = np.sin(3 * X.sum(axis=1))
        cfg = quick_cfg(2, sigma2=0.01, tol=1e-10)
        model = fit(cfg, X, y)
        assert model.fit_stats.precond_rank == 20
        grid = build_sparse_grid(3, 2)
        W = assemble_W(model.domain_map.forward(X), grid, method=cfg.method)
        Kt = materialize_ski(W, cfg.kernel.pairwise(grid.points()), 0.01)
        np.testing.assert_allclose(model.alpha, np.linalg.solve(Kt, y),
                                   rtol=0, atol=1e-8)

    def test_fits_are_bit_identical(self):
        # the sketch's test matrix is seeded, so repeated fits agree exactly
        for n, d in ((300, 3), (4000, 4)):
            rng = np.random.default_rng(49)
            X = rng.uniform(0, 1, (n, d))
            y = np.cos(X.sum(axis=1)) + 0.05 * rng.standard_normal(n)
            cfg = quick_cfg(d, ell=4, sigma2=0.0025, tol=1e-6)
            a, b = fit(cfg, X, y), fit(cfg, X, y)
            assert a.fit_stats.precond_rank > 0
            np.testing.assert_array_equal(a.alpha, b.alpha)
            assert a.fit_stats.residual_norms == b.fit_stats.residual_norms
            # true residual through the recursive MVM and scipy's products
            W = assemble_W(a.domain_map.forward(X), a.grid, method=cfg.method)
            Ka = W.matrix @ sg_mvm(build_plan(4, d, cfg.kernel),
                                   W.matrix.T @ a.alpha)
            resid = y - Ka - cfg.sigma2 * a.alpha
            assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(y)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs")
    def test_fits_are_bit_identical_on_one_and_two_cpus(self):
        # W and W^T are applied on the calling thread, so the CPU count
        # does not enter the arithmetic; at n = 4000, d = 4 Phi has 280k
        # non-zeros
        rng = np.random.default_rng(53)
        X = rng.uniform(0, 1, (4000, 4))
        y = np.cos(X.sum(axis=1)) + 0.05 * rng.standard_normal(len(X))
        cfg = quick_cfg(4, ell=4, sigma2=0.0025, tol=1e-6)
        mask = os.sched_getaffinity(0)
        fits = []
        try:
            for cpus in ({min(mask)}, set(sorted(mask)[:2])):
                os.sched_setaffinity(0, cpus)
                fits.append(fit(cfg, X, y))
        finally:
            os.sched_setaffinity(0, mask)
        one, two = fits
        np.testing.assert_array_equal(one.alpha, two.alpha)
        np.testing.assert_array_equal(one.grid_dual, two.grid_dual)
        assert one.fit_stats.residual_norms == two.fit_stats.residual_norms

    def test_noiseless_interpolation_recovers_prior_sample(self):
        rng = np.random.default_rng(41)
        n, d, ell = 80, 2, 3
        X = rng.uniform(-1, 1, (n, d))
        cfg = quick_cfg(d, ell, sigma2=1e-8, tol=1e-12)
        grid = build_sparse_grid(ell, d)
        dm = DomainMap.fit(X, 2.0 ** -(ell + 1))
        W = assemble_W(dm.forward(X), grid, method=cfg.method)
        Kt = materialize_ski(W, cfg.kernel.pairwise(grid.points()), 1e-8)
        y = np.linalg.cholesky(Kt + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
        model = fit(cfg, X, y)
        np.testing.assert_allclose(model.predict_mean(X), y, atol=1e-3)

    def test_far_test_points_revert_to_prior_mean(self):
        # two training clusters; probe the empty middle with a short scale
        rng = np.random.default_rng(43)
        lo = rng.uniform(0.0, 0.1, (100, 2))
        hi = rng.uniform(0.9, 1.0, (100, 2))
        X = np.vstack([lo, hi])
        y = np.concatenate([np.full(100, 3.0), np.full(100, -3.0)])
        cfg = quick_cfg(2, ell=5, sigma2=0.01, ls=0.02, tol=1e-6)
        model = fit(cfg, X, y)
        mid = model.predict_mean(np.array([[0.5, 0.5]]))
        assert abs(mid[0]) < 1e-6

    def test_rmse_within_twice_exact_oracle(self):
        rng = np.random.default_rng(53)
        n, d = 2000, 2
        f = lambda P: np.cos(np.abs(P).sum(axis=1))
        X = rng.uniform(0, 1, (n, d))
        y = f(X) + 0.05 * rng.standard_normal(n)
        Xte = rng.uniform(0, 1, (500, d))
        cfg = GpConfig(
            kernel=ProductKernel(lengthscales=[0.3, 0.3]),
            sigma2=0.05**2,
            resolution=4,
            cg=CgConfig(rel_tolerance=1e-6, max_iters=2000),
        )
        model = fit(cfg, X, y)
        rmse = float(np.sqrt(np.mean((model.predict_mean(Xte) - f(Xte)) ** 2)))
        mu_ex, _ = exact_gp_oracle(X, y, Xte, cfg.kernel, cfg.sigma2)
        rmse_ex = float(np.sqrt(np.mean((mu_ex - f(Xte)) ** 2)))
        assert rmse <= 3 * 0.05
        assert rmse <= 2 * rmse_ex

    def test_fast_predictor_equals_materialized_predictor(self):
        # small random instances: CG + fast MVM vs dense-materialized SKI
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            d = int(rng.integers(1, 4))
            ell = int(rng.integers(1, 4))
            n = int(rng.integers(30, 300))
            X = rng.uniform(-1, 1, (n, d))
            y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
            cfg = GpConfig(
                kernel=ProductKernel(lengthscales=np.full(d, 0.5)),
                sigma2=0.05,
                resolution=ell,
                cg=CgConfig(rel_tolerance=1e-10, max_iters=3000),
            )
            model = fit(cfg, X, y)
            Xs = rng.uniform(-1, 1, (40, d))
            grid = build_sparse_grid(ell, d)
            W = assemble_W(model.domain_map.forward(X), grid, method=cfg.method)
            Ws = assemble_W(model.domain_map.forward(Xs), grid,
                            method=cfg.method)
            K_G = cfg.kernel.pairwise(grid.points())
            Kt = materialize_ski(W, K_G, cfg.sigma2)
            alpha = np.linalg.solve(Kt, y)
            dense_mean = Ws.matrix @ (K_G @ (W.matrix.T @ alpha))
            np.testing.assert_allclose(model.predict_mean(Xs), dense_mean,
                                       atol=1e-8)

    def test_subsampled_method(self):
        rng = np.random.default_rng(59)
        X = rng.uniform(0, 1, (120, 2))
        y = np.cos(X.sum(axis=1))
        model = fit(quick_cfg(2, method="subsampled"), X, y)
        assert np.isfinite(model.predict_mean(X[:5])).all()

    def test_dense_grid_backend(self):
        rng = np.random.default_rng(61)
        X = rng.uniform(0, 1, (150, 2))
        y = np.cos(X.sum(axis=1)) + 0.02 * rng.standard_normal(150)
        cfg = GpConfig(
            kernel=ProductKernel(lengthscales=[0.5, 0.5]),
            sigma2=0.01, grid="dense", dense_count=9, rule="linear",
            cg=CgConfig(rel_tolerance=1e-8, max_iters=2000),
        )
        model = fit(cfg, X, y)
        assert model.fit_stats.precond_rank > 0   # (N, r) lattice MVMs
        mean = model.predict_mean(X)
        rmse = float(np.sqrt(np.mean((mean - y) ** 2)))
        assert rmse < 0.2
        # predictions build no W; they agree with the W route to roundoff
        W = assemble_W(model.domain_map.forward(X), model.grid,
                       BaseRule("linear"))
        size = abs(W.matrix) @ np.abs(model.grid_dual)
        assert (np.abs(mean - W.apply(model.grid_dual)) <= 1e-12 * size).all()

    def test_fit_validation(self):
        cfg = quick_cfg(2)
        with pytest.raises(ValueError, match="finite"):
            fit(cfg, np.array([[np.nan, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="noise floor"):
            fit(quick_cfg(2, sigma2=1e-12), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="one target"):
            fit(cfg, np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="kernel dim"):
            fit(cfg, np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            GpConfig(kernel=cfg.kernel, sigma2=0.1, grid="hex")
        with pytest.raises(ValueError, match="method"):
            GpConfig(kernel=cfg.kernel, sigma2=0.1, method="bogus")

    def test_predict_rejects_wrong_width(self):
        rng = np.random.default_rng(73)
        X = rng.uniform(0, 1, (30, 3))
        model = fit(quick_cfg(3, ell=2), X, np.sin(X.sum(axis=1)))
        for width in (1, 5):
            with pytest.raises(ValueError, match=f"{width} columns.*fitted on 3"):
                model.predict_mean(np.zeros((4, width)))
        assert model.predict_mean(np.zeros((4, 3))).shape == (4,)

    def test_predict_rejects_non_finite(self):
        rng = np.random.default_rng(71)
        X = rng.uniform(0, 1, (30, 3))
        X[:, 2] = 0.25      # constant in training: mapped to 0.5 whatever Xs
        model = fit(quick_cfg(3, ell=2), X, np.sin(X.sum(axis=1)))
        for j in range(3):
            for bad in (np.nan, np.inf, -np.inf):
                Xs = np.full((4, 3), 0.5)
                Xs[1, j] = bad
                with pytest.raises(ValueError, match="finite"):
                    model.predict_mean(Xs)

    def test_predict_on_no_points(self):
        rng = np.random.default_rng(79)
        X = rng.uniform(0, 1, (30, 3))
        model = fit(quick_cfg(3, ell=2), X, np.sin(X.sum(axis=1)))
        assert model.predict_mean(np.zeros((0, 3))).shape == (0,)

    def test_cg_failure_surfaces_with_stats(self):
        rng = np.random.default_rng(67)
        X = rng.uniform(0, 1, (50, 2))
        y = rng.standard_normal(50)
        cfg = quick_cfg(2, tol=1e-14)
        bad = GpConfig(kernel=cfg.kernel, sigma2=cfg.sigma2, resolution=3,
                       cg=CgConfig(rel_tolerance=1e-14, max_iters=1))
        with pytest.raises(CgFailure) as err:
            fit(bad, X, y)
        assert isinstance(err.value.stats, CgStats)
        assert err.value.stats.n_iters == 1

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(71)
        X = rng.uniform(-2, 5, (100, 2))
        y = np.sin(X.sum(axis=1))
        model = fit(quick_cfg(2), X, y)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = load_model(path)
        Xs = rng.uniform(-2, 5, (30, 2))
        np.testing.assert_array_equal(loaded.predict_mean(Xs),
                                      model.predict_mean(Xs))
        payload = json.loads(path.read_text())
        assert payload["format"] == "skigrid-gp-1"

    def test_load_maps_jacobi_to_default_preconditioner(self, tmp_path):
        # files written while Jacobi existed still load and predict the same
        rng = np.random.default_rng(73)
        X = rng.uniform(0, 1, (100, 2))
        model = fit(quick_cfg(2), X, np.sin(X.sum(axis=1)))
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        payload["cg"]["preconditioner"] = "jacobi"
        path.write_text(json.dumps(payload))
        loaded = load_model(path)
        assert loaded.config.cg.preconditioner == CgConfig().preconditioner
        Xs = rng.uniform(0, 1, (30, 2))
        np.testing.assert_array_equal(loaded.predict_mean(Xs),
                                      model.predict_mean(Xs))

    def test_combination_model_file_predicts_as_saved(self):
        # model_combination.json was written with "method": "combination"
        # by the release before hierarchical interpolation became the
        # default, and model_hierarchical.json (d = 3) by the release before
        # models held their interpolator; each holds the predictions it then
        # gave at 12 points inside and around the box and 3 training points
        def unpack(s):
            return np.frombuffer(base64.b64decode(s), dtype=np.float64)

        for name, method in (("model_combination.json", "combination"),
                             ("model_hierarchical.json", "hierarchical")):
            path = Path(__file__).parent / "data" / name
            expected = json.loads(path.read_text())["expected"]
            model = load_model(path)
            assert (model.config.method, model.config.rule) == (method,
                                                                "simplicial")
            X = unpack(expected["X"]).reshape(expected["shape"])
            np.testing.assert_array_equal(model.predict_mean(X),
                                          unpack(expected["mean"]), strict=True)

    def test_requests_reuse_the_interpolator_built_with_the_model(
            self, tmp_path, monkeypatch):
        # fit and load_model build the interpolator and the surpluses in
        # table order; a request neither builds tables nor forms H @ values
        rng = np.random.default_rng(83)
        X = rng.uniform(0, 1, (200, 3))
        fitted = fit(quick_cfg(3), X, np.sin(X.sum(axis=1)))
        assert fitted.config.method == "hierarchical"
        path = tmp_path / "model.json"
        fitted.save(path)
        loaded = load_model(path)
        cfg = fitted.config
        batches = [rng.uniform(-0.2, 1.2, (m, 3)) for m in (1, 17, 2600)]
        tables = interpolator(fitted.grid, BaseRule(cfg.rule), cfg.method)
        values = tables.table_values(fitted.grid_dual)
        want = [tables.evaluate(fitted.domain_map.forward(Xs), values)
                for Xs in batches]
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(interp._Hierarchy, "__init__",
                            counted(interp._Hierarchy.__init__))
        monkeypatch.setattr(interp._Hierarchy, "table_values",
                            counted(interp._Hierarchy.table_values))
        for model in (fitted, loaded):
            for Xs, mean in zip(batches, want):
                np.testing.assert_array_equal(model.predict_mean(Xs), mean,
                                              strict=True)
        assert calls == []

    def test_hierarchical_is_the_default_and_round_trips(self, tmp_path):
        rng = np.random.default_rng(79)
        X = rng.uniform(0, 1, (100, 3))
        model = fit(quick_cfg(3), X, np.sin(X.sum(axis=1)))
        assert model.config.method == "hierarchical"
        path = tmp_path / "model.json"
        model.save(path)
        assert json.loads(path.read_text())["method"] == "hierarchical"
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.grid_dual, model.grid_dual)
        Xs = rng.uniform(-0.2, 1.2, (30, 3))
        np.testing.assert_array_equal(loaded.predict_mean(Xs),
                                      model.predict_mean(Xs))

    def test_each_fit_and_load_builds_its_own_tables(self, tmp_path,
                                                     built_hierarchies):
        # no table is shared: two fits of one (l, d) build one _Hierarchy
        # each, a load builds one and a request none
        rng = np.random.default_rng(89)
        X = rng.uniform(0, 1, (100, 3))
        y = np.sin(X.sum(axis=1))
        models = [fit(quick_cfg(3), X, y), fit(quick_cfg(3), X, y)]
        assert len(built_hierarchies) == 2
        path = tmp_path / "model.json"
        models[0].save(path)
        models.append(load_model(path))
        assert len(built_hierarchies) == 3
        for model in models:
            model.predict_mean(rng.uniform(0, 1, (5, 3)))
        assert len(built_hierarchies) == 3

    def test_tables_are_freed_with_the_model(self, tmp_path,
                                             built_hierarchies):
        rng = np.random.default_rng(97)
        X = rng.uniform(0, 1, (100, 3))
        model = fit(quick_cfg(3), X, np.sin(X.sum(axis=1)))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = load_model(path)
        assert [ref() is not None for ref in built_hierarchies] == [True] * 2
        del model, loaded
        gc.collect()
        assert [ref() for ref in built_hierarchies] == [None] * 2

    @pytest.mark.parametrize("corrupt,message", [
        (lambda payload: {k: v for k, v in payload.items() if k != "rule"},
         "has no key 'rule'"),
        (lambda payload: {**payload, "cg": {**payload["cg"], "extra": 1}},
         "unexpected keyword argument 'extra'"),
        (lambda payload: [payload], "unrecognized model format"),
        (lambda payload: {**payload, "kernel": [1.0]}, "malformed"),
        (lambda payload: {**payload, "grid": {**payload["grid"], "dim": "2"}},
         "malformed"),
        *DISAGREEING.values(),
    ], ids=["missing_key", "unknown_cg_key", "list", "kernel_list",
            "dim_string", *DISAGREEING])
    def test_load_rejects_malformed_file(self, tmp_path, corrupt, message):
        rng = np.random.default_rng(101)
        X = rng.uniform(0, 1, (50, 2))
        path = tmp_path / "model.json"
        fit(quick_cfg(2), X, np.sin(X.sum(axis=1))).save(path)
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message) as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_load_accepts_zero_width_of_a_constant_column(self, tmp_path):
        rng = np.random.default_rng(103)
        X = rng.uniform(0, 1, (60, 2))
        X[:, 1] = 0.25
        model = fit(quick_cfg(2), X, np.sin(X[:, 0]))
        path = tmp_path / "model.json"
        model.save(path)
        assert json.loads(path.read_text())["domain_map"]["width"][1] == 0.0
        Xs = rng.uniform(0, 1, (10, 2))
        np.testing.assert_array_equal(load_model(path).predict_mean(Xs),
                                      model.predict_mean(Xs))

    @pytest.mark.parametrize("key", ["format", "alpha"])
    def test_save_rejects_extra_keys_that_are_model_keys(self, tmp_path, key):
        rng = np.random.default_rng(107)
        X = rng.uniform(0, 1, (50, 2))
        model = fit(quick_cfg(2), X, np.sin(X.sum(axis=1)))
        path = tmp_path / "model.json"
        model.save(path, cli={"command": "fit"})
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"extra keys \\['{key}'\\]"):
            model.save(path, **{key: "mine"})
        assert path.read_bytes() == before
        assert json.loads(before)["cli"] == {"command": "fit"}

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="format"):
            load_model(path)


class TestExactOracle:
    def test_single_point_closed_form(self):
        kernel = ProductKernel(lengthscales=[0.5], output_scale=1.3)
        X = np.array([[0.4]])
        y = np.array([0.9])
        var = 1.3 + 0.2
        mean, logp = exact_gp_oracle(X, y, X, kernel, 0.2)
        want = -0.5 * 0.9**2 / var - 0.5 * np.log(2 * np.pi * var)
        assert logp == pytest.approx(want, rel=1e-12)
        assert mean[0] == pytest.approx(0.9 * 1.3 / var, rel=1e-12)

    def test_interpolates_at_zero_noise(self):
        rng = np.random.default_rng(73)
        X = rng.uniform(0, 1, (30, 2))
        y = rng.standard_normal(30)
        kernel = ProductKernel(lengthscales=[0.4, 0.4])
        mean, _ = exact_gp_oracle(X, y, X, kernel, 0.0)
        np.testing.assert_allclose(mean, y, atol=1e-6)

    def test_logp_matches_direct_inverse(self):
        rng = np.random.default_rng(79)
        n = 50
        X = rng.uniform(0, 1, (n, 3))
        y = rng.standard_normal(n)
        kernel = ProductKernel(lengthscales=[0.3, 0.5, 0.7], output_scale=1.2)
        s2 = 0.1
        _, logp = exact_gp_oracle(X, y, X[:1], kernel, s2)
        K = kernel.pairwise(X) + s2 * np.eye(n)
        direct = float(-0.5 * y @ np.linalg.inv(K) @ y
                       - 0.5 * np.linalg.slogdet(K)[1]
                       - 0.5 * n * np.log(2 * np.pi))
        assert logp == pytest.approx(direct, abs=1e-6)

    def test_jitter_retry_on_singular_covariance(self):
        X = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.1]])  # duplicated row
        y = np.array([1.0, 1.0, -1.0])
        kernel = ProductKernel(lengthscales=[0.5, 0.5])
        mean, logp = exact_gp_oracle(X, y, X, kernel, 0.0)
        assert np.isfinite(mean).all() and np.isfinite(logp)

    def test_point_cap(self):
        kernel = ProductKernel(lengthscales=[0.5])
        X = np.zeros((11, 1))
        with pytest.raises(ValueError, match="limited"):
            exact_gp_oracle(X, np.zeros(11), X, kernel, 0.1, point_cap=10)


class TestReadCsv:
    def test_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,y\n0.1,0.2,1.5\n0.3,0.4,-2.0\n")
        X, y = read_xy_csv(p)
        np.testing.assert_allclose(X, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_allclose(y, [1.5, -2.0])

    def test_without_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1.5\n0.3,0.4,-2.0\n")
        X, y = read_xy_csv(p)
        assert X.shape == (2, 2)

    def test_malformed_cell_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1.0\n0.3,oops,2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_xy_csv(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1.0\n0.3,2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_xy_csv(p)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="2 columns"):
            read_xy_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data"):
            read_xy_csv(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,1.0\n\n0.2,2.0\n")
        X, y = read_xy_csv(p)
        assert len(y) == 2
