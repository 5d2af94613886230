"""skigrid benchmark workloads: seeded inputs, timed fit and predict, gates.

Every workload is one process with one closed-loop caller.  A run sets up
(inputs; on the serving workload also a fit, save and reload), fits the
seeded problem once (fit workloads), then serves ``predict_mean`` requests
one after another: at least MIN_REQUESTS, and until fits and requests have
taken the run's seconds.  The requests' points are the held-out set of
``test_rmse``.  Gates run outside the timed calls; see checks.py.  The
residual gate assembles ``W`` on every training point, so it runs after
``peak_rss_mb`` is read.
"""

import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import skigrid
from checks import ORACLE_RTOL, OracleGate, ResidualGate
from spans import Patch, Tracer, child_coverage, layer_metrics
from speed import RefClock

NOISE_STD = 0.05
LENGTHSCALE = 0.3
CG_TOL = 1e-5
CG_MAX_ITERS = 5000
MIN_REQUESTS = 200          # p95 then has at least ten samples beyond it
MAX_REQUEST_POINTS = 256
REQUEST_BLOCK = 20
ORACLE_EVERY = 10           # every tenth request is checked against the oracle,
ORACLE_POINTS = 16          # on its first 16 points
SETUP_REPEATS = 2
MIN_FIT_COVERAGE = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    resolution: int
    n_train: int
    sigma2: float
    rmse_bound: float
    serve: bool = False     # fit in set-up, save, reload and serve

    def config(self):
        return skigrid.GpConfig(
            kernel=skigrid.ProductKernel([LENGTHSCALE] * self.dim),
            sigma2=self.sigma2, resolution=self.resolution,
            cg=skigrid.CgConfig(rel_tolerance=CG_TOL, max_iters=CG_MAX_ITERS))


WORKLOADS = {w.name: w for w in (
    # The ROADMAP baseline row (|G| = 2561): the grid MVM dominates the fit.
    Workload("fit_d6_l4", dim=6, resolution=4, n_train=4000, sigma2=0.0025,
             rmse_bound=0.05),
    # The README quick-start setting at 10x n (|G| = 769): W and W^T applies
    # outweigh the MVM.  sigma2 = 0.01 keeps CG's peak residual ratio well
    # under its divergence guard; see NOTES.md.
    Workload("fit_d4_n20k", dim=4, resolution=4, n_train=20000, sigma2=0.01,
             rmse_bound=0.05),
    # Serving: W assembly is nearly all of every request.  sigma2 = 0.01
    # halves the set-up fit's CG iterations against 0.0025, so set-up can be
    # repeated within the run.
    Workload("predict_d6_l4", dim=6, resolution=4, n_train=1000, sigma2=0.01,
             rmse_bound=0.1, serve=True),
)}


def cos_l1(X):
    """The ``cos_l1`` target of skigrid's synthetic tasks: cos(||x||_1)."""
    return np.cos(np.abs(X).sum(axis=1))


def make_inputs(w, seed):
    """Noisy training set of workload ``w`` on [0,1]^d from ``seed``."""
    rng = np.random.default_rng([seed, w.dim, w.n_train])
    X = rng.uniform(size=(w.n_train, w.dim))
    return X, cos_l1(X) + NOISE_STD * rng.standard_normal(w.n_train)


def requests(w, seed):
    """Endless seeded stream of request inputs on [0,1]^d.

    Sizes are log-uniform in [1, MAX_REQUEST_POINTS], stratified: each
    block of REQUEST_BLOCK requests holds the midpoints of that many
    equal-probability strata in a seeded order.  Every seed then serves the
    same mix of sizes, so latency percentiles do not move with the seed.
    """
    rng = np.random.default_rng([seed, w.dim, w.n_train, 1])
    u = (np.arange(REQUEST_BLOCK) + 0.5) / REQUEST_BLOCK
    sizes = np.exp(u * np.log(MAX_REQUEST_POINTS + 1)).astype(int)
    while True:
        for size in rng.permutation(sizes):
            yield rng.uniform(size=(size, w.dim))


class Runner:
    """State of one run: inputs, the serving model, the (start, end) of
    every timed operation, and the operations attempted and failed.  With
    a tracer, any operation can run traced (wrappers on, spans recorded)
    or untraced."""

    def __init__(self, w, seed, folder, tracer=None):
        self.w = w
        self.seed = seed
        self.folder = folder
        self.tracer = tracer
        self.patch = Patch(tracer) if tracer else None
        self.attempted = 0
        self.failures = []          # failed operations and checks, with stats
        self.fits = []
        self.converged = []         # fitted models, for the residual gate
        self.model = None
        self.model_bytes = 0

    def fail(self, kind, **info):
        self.failures.append({"failure": kind, **info})

    @property
    def correct(self):
        return all(f["failure"] == "cg" for f in self.failures)

    @contextmanager
    def _op(self, name, traced):
        if not traced:
            yield
            return
        with self.patch.applied(), self.tracer.span(name):
            yield

    def setup(self, traced=False):
        """Make the inputs; on a serving workload also fit, save and reload
        the model.  Returns its (start, end)."""
        t = time.perf_counter()
        self.X, self.y = make_inputs(self.w, self.seed)
        if self.w.serve and self.fit(traced):
            self.round_trip(traced)
        return t, time.perf_counter()

    def fit(self, traced=False):
        """One fit; True when it converged."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            with self._op("fit", traced):
                model = skigrid.fit(self.w.config(), self.X, self.y)
        except skigrid.CgFailure as e:
            self.fits.append((t, time.perf_counter()))
            s = e.stats
            self.fail("cg", seconds=self.fits[-1][1] - t, iters=s.n_iters,
                      diverged=s.diverged, final_rel_resid=s.final_rel_residual,
                      peak_resid_ratio=max(s.residual_norms, default=0.0)
                      / float(np.linalg.norm(self.y)))
            return False
        self.fits.append((t, time.perf_counter()))
        self.converged.append(model)
        self.model = model
        return True

    def check_fits(self):
        """Gate every converged fit on its true residual."""
        if not self.converged:
            return
        gate = ResidualGate(self.converged[0], self.X, self.y)
        for model in self.converged:
            resid = gate(model.alpha)
            if not resid <= CG_TOL:
                self.fail("residual", true_rel_resid=resid, tolerance=CG_TOL)

    def round_trip(self, traced=False):
        """Save the model and serve from its reload, which must hold the
        same arrays."""
        self.attempted += 1
        path = os.path.join(self.folder, "model.json")
        with self._op("save_load", traced):
            self.model.save(path)
            loaded = skigrid.load_model(path)
        if not (np.array_equal(loaded.alpha, self.model.alpha)
                and np.array_equal(loaded.grid_dual, self.model.grid_dual)):
            self.fail("round_trip")
        self.model = loaded
        self.model_bytes = os.path.getsize(path)

    def request(self, Xs, traced=False):
        t = time.perf_counter()
        with self._op("predict", traced):
            mean = self.model.predict_mean(Xs)
        return mean, (t, time.perf_counter())

    def serve(self, seconds, traced=False):
        """Request phase: at least MIN_REQUESTS, and until the run's fits
        and requests have taken ``seconds`` of wall time.  A traced run
        serves each request twice, untraced and traced, alternating which
        goes first, and reports the traced one.

        Returns ((start, end) per request, point counts, (untraced, traced)
        pairs of (start, end), rmse).
        """
        budget = seconds - sum(b - a for a, b in self.fits)
        stream = requests(self.w, self.seed)
        oracle = OracleGate(self.model)
        ivs, pts, pairs, sq_err, busy = [], [], [], 0.0, 0.0
        while len(ivs) < MIN_REQUESTS or busy < budget:
            Xs = next(stream)
            self.attempted += 1
            if traced:
                order = (True, False) if len(ivs) % 2 else (False, True)
                got = {t: self.request(Xs, traced=t) for t in order}
                mean, iv = got[True]
                pairs.append((got[False][1], iv))
            else:
                mean, iv = self.request(Xs)
            if len(ivs) % ORACLE_EVERY == 0:
                err = oracle(Xs[:ORACLE_POINTS], mean[:ORACLE_POINTS])
                if not err <= ORACLE_RTOL:
                    self.fail("oracle", rel_error=err, tolerance=ORACLE_RTOL)
            sq_err += float(((mean - cos_l1(Xs)) ** 2).sum())
            ivs.append(iv)
            pts.append(len(Xs))
            busy += iv[1] - iv[0]
        rmse = (sq_err / sum(pts)) ** 0.5
        self.attempted += 1         # the held-out evaluation
        if not rmse <= self.w.rmse_bound:
            self.fail("test_rmse", rmse=rmse, bound=self.w.rmse_bound)
        return ivs, pts, pairs, rmse


def import_interval():
    """(start, end) of a fresh interpreter that imports skigrid: the part
    of set-up a process pays once, so it is repeated in new processes."""
    src = os.path.dirname(skigrid.__path__[0])
    code = f"import sys; sys.path.insert(0, {src!r}); import skigrid"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return t, time.perf_counter()


def run(w, seed, seconds, trace):
    """One run of workload ``w``.  Returns (runner, metrics, info); metrics
    is None when no fit converged, so nothing could be served."""
    # The saved model goes under the working directory, which is the source
    # checkout when run as documented: the benchmark reads and writes only
    # inside the checkout it runs from.
    with tempfile.TemporaryDirectory(prefix=".skibench-", dir=os.getcwd()) as tmp:
        if trace:
            return _run_traced(w, seed, seconds, tmp)
        return _run_untraced(w, seed, seconds, tmp)


def _run_untraced(w, seed, seconds, folder):
    clock = RefClock()
    r = Runner(w, seed, folder)
    # Before probing starts: the probe would interrupt only the waiting
    # parent, not the importing child.
    imports = [import_interval() for _ in range(SETUP_REPEATS)]
    with clock.running():
        setups = [r.setup() for _ in range(SETUP_REPEATS)]
        if not w.serve:
            r.fit()
        if r.model is None:
            return r, None, {}
        ivs, pts, _, rmse = r.serve(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    r.check_fits()

    def scaled(intervals, ref):
        return [clock.seconds(a, b, ref) for a, b in intervals]

    fit_s = scaled(r.fits, "fft")
    lat_ms = 1e3 * np.asarray(scaled(ivs, "loop"))
    metrics = {
        "fit_s": statistics.median(fit_s),
        "setup_s": statistics.median(scaled(imports, "loop"))
        + statistics.median(scaled(setups, "fft")),
        "predict_p50_ms": float(np.percentile(lat_ms, 50)),
        "predict_p95_ms": float(np.percentile(lat_ms, 95)),
        "predict_pts_per_s": 1e3 * sum(pts) / lat_ms.sum(),
        "test_rmse": rmse,
        "peak_rss_mb": peak_rss_mb,
    }
    return r, metrics, {"fit_s": fit_s, "fit_wall_s": [b - a for a, b in r.fits],
                        "probe_ms": clock.median_probe_ms(),
                        "requests": len(ivs)}


def _run_traced(w, seed, seconds, folder):
    tracer = Tracer()
    r = Runner(w, seed, folder, tracer)
    r.setup(traced=True)
    pairs = []
    if not w.serve:
        # Traced first, so that it is the cold fit, as fit_s times it.
        r.fit(traced=True)
        r.fit()
        pairs.append((r.fits[-1], r.fits[-2]))
        if r.model is not None:
            r.round_trip(traced=True)
    if r.model is None:
        return r, None, {}
    ivs, _, req_pairs, _ = r.serve(seconds, traced=True)
    r.check_fits()
    pairs += req_pairs
    untraced = sum(u[1] - u[0] for u, _ in pairs)
    traced = sum(t[1] - t[0] for _, t in pairs)
    coverage = child_coverage(tracer.spans, "fit")
    r.attempted += 1
    if not coverage >= MIN_FIT_COVERAGE:
        r.fail("fit_coverage", coverage=coverage, minimum=MIN_FIT_COVERAGE)
    metrics = layer_metrics(tracer.spans)
    metrics.update({
        "grids.points": len(r.model.grid),
        "ski.model_bytes": r.model_bytes,
        "trace.overhead_frac": (traced - untraced) / untraced,
        "trace.fit_coverage": coverage,
        "fail_frac": len(r.failures) / r.attempted,
    })
    return r, metrics, {"fit_wall_s": [b - a for a, b in r.fits],
                        "requests": len(ivs), "spans": len(tracer.spans)}
