"""Span recording around skigrid's public calls, and the layer metrics built from it.

Spans are kept in memory: name, start, end, parent span and a few counts
taken at the call boundary.  Wrappers are switched on by replacing names in
the loaded ``skigrid`` modules at run time and switched off again after
each traced operation, so nothing under ``src/`` carries instrumentation
and untraced work runs the original functions.
"""

import functools
import importlib
import itertools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder: one stack, one caller."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name):
        s = Span(next(self._ids), self._stack[-1].id if self._stack else None,
                 name, time.perf_counter())
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def wrap(self, name, fn, record=None):
        """fn under a span named ``name``; ``record(attrs, args, result)``
        stores counts taken from the call on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(s.attrs, args, out)
            return out
        return traced


def _cols(attrs, args, out):
    V = np.asarray(args[1])
    attrs["cols"] = V.size // V.shape[0]


def _nnz(attrs, args, out):
    attrs["nnz"] = out.nnz


def _cg(attrs, args, out):
    stats = out[1]
    ynorm = float(np.linalg.norm(args[1]))
    attrs["iters"] = stats.n_iters
    attrs["peak_resid_ratio"] = max(stats.residual_norms, default=0.0) / ynorm
    attrs["final_rel_resid"] = stats.final_rel_residual


# (span name, module[:class], attribute, count recorder).  A span name's
# prefix is the skigrid module that owns the layer.
TARGETS = (
    ("sgmvm.plan_build", "skigrid.sgmvm", "build_plan", None),
    ("sgmvm.mvm", "skigrid.sgmvm", "sg_mvm_batched", None),
    ("kernels.toeplitz", "skigrid.kernels:SymmetricToeplitz", "matmat", _cols),
    ("interp.assemble", "skigrid.interp", "assemble_W", _nnz),
    ("interp.w_apply", "skigrid.interp:WeightMatrix", "apply", None),
    ("interp.wt_apply", "skigrid.interp:WeightMatrix", "apply_transpose", None),
    ("ski.cg", "skigrid.ski", "cg_solve", _cg),
    ("ski.save", "skigrid.ski:GpModel", "save", None),
    ("ski.load", "skigrid.ski", "load_model", None),
)


class Patch:
    """Traced wrappers for every target, wherever a skigrid module binds it.

    Binding sites are resolved once, so switching the wrappers on and off
    around each operation costs a few attribute writes.  A target that no
    longer exists raises here, so a renamed function cannot silently drop
    out of the trace.
    """

    def __init__(self, tracer):
        self.sites = []
        modules = [m for k, m in sys.modules.items()
                   if k == "skigrid" or k.startswith("skigrid.")]
        for name, owner, attr, record in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self.sites.append((cls, attr, orig, tracer.wrap(name, orig, record)))
                continue
            orig = getattr(mod, attr)
            traced = tracer.wrap(name, orig, record)
            self.sites.extend((m, k, orig, traced) for m in modules
                              for k, v in vars(m).items() if v is orig)

    @contextmanager
    def applied(self):
        try:
            for obj, attr, _, traced in self.sites:
                setattr(obj, attr, traced)
            yield
        finally:
            for obj, attr, orig, _ in self.sites:
                setattr(obj, attr, orig)


# ---- span arithmetic -------------------------------------------------------


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _children(spans):
    out = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append((s.start, s.end))
    return out


def self_times(spans):
    """{span id: duration minus the part of it that child spans cover}."""
    children = _children(spans)
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def child_coverage(spans, name):
    """Smallest share of a ``name`` span's duration that its children cover."""
    children = _children(spans)
    return min(covered(s.start, s.end, children.get(s.id, ())) / s.duration
               for s in spans if s.name == name)


def layer_metrics(spans):
    """Per-layer totals over the recorded spans, keyed by metric name."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def busy(name):
        return sum(s.duration for s in by.get(name, ()))

    def self_busy(name):
        return sum(own[s.id] for s in by.get(name, ()))

    def count(name, key=None):
        got = by.get(name, ())
        return sum(s.attrs[key] for s in got) if key else len(got)

    cg = by.get("ski.cg", ())
    iters = count("ski.cg", "iters")
    mvm = [s.duration for s in by.get("sgmvm.mvm", ())]
    return {
        "sgmvm.plan_build_s": busy("sgmvm.plan_build"),
        "sgmvm.mvm_calls": len(mvm),
        "sgmvm.mvm_s": sum(mvm),
        "sgmvm.mvm_ms": 1e3 * statistics.median(mvm) if mvm else 0.0,
        "sgmvm.gather_scatter_s": self_busy("sgmvm.mvm"),
        "kernels.toeplitz_calls": count("kernels.toeplitz"),
        "kernels.toeplitz_cols": count("kernels.toeplitz", "cols"),
        "kernels.toeplitz_s": busy("kernels.toeplitz"),
        "interp.assemble_calls": count("interp.assemble"),
        "interp.assemble_s": busy("interp.assemble"),
        "interp.w_nnz": count("interp.assemble", "nnz"),
        "interp.w_apply_s": busy("interp.w_apply"),
        "interp.wt_apply_s": busy("interp.wt_apply"),
        "ski.cg_iters": iters,
        "ski.cg_s": busy("ski.cg"),
        "ski.cg_ms_per_iter": 1e3 * busy("ski.cg") / iters if iters else 0.0,
        "ski.cg_self_s": self_busy("ski.cg"),
        "ski.cg_peak_resid_ratio": max((s.attrs["peak_resid_ratio"] for s in cg),
                                       default=0.0),
        "ski.final_rel_resid": cg[-1].attrs["final_rel_resid"] if cg else 0.0,
        "ski.save_s": busy("ski.save"),
        "ski.load_s": busy("ski.load"),
    }
