"""Spans and counters around germsum's public entry points, installed from outside.

The library is not edited: :class:`Tracer` replaces module attributes (and
two class attributes) with wrappers, in every ``germsum`` module that binds
the same function object, so ``from .x import f`` copies are caught too.
Spans (name, start, end, parent, task id) stay in memory until the run
ends; :meth:`Tracer.layer_metrics` turns them into per-layer numbers.

The library is single-threaded and never blocks on another worker, so no
layer has a wait time; none is reported.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict


# a hook maps (args, kwargs, result) to {counter: amount} added to the span
def _terms_out(args, kwargs, out):
    return {"terms_out": len(out.terms)}


def _quot_terms(args, kwargs, out):
    return {"quot_terms": len(out.q.terms)}


def _degree(args, kwargs, out):
    return {"degree_sum": max(len(args[0]) - 1, 0)}


def _pade_order(args, kwargs, out):
    n = len(args[0])
    m = args[1] if len(args) > 1 else kwargs.get("m")
    m = (n - 1) // 2 if m is None else max(0, min(m, (n - 1) // 2))
    return {"order_requested": m, "order_used": out.order[1]}


def _expansion_terms(args, kwargs, out):
    return {"terms_out": sum(len(g.terms) for g in out.coeffs), "coeffs_out": out.depth}


# (span name, module, attribute, hook); two attributes may share a span name
SPANS = (
    ("series.mul", "germsum.series", "TruncatedSeries.__mul__", _terms_out),
    ("series.substitute", "germsum.series", "substitute", None),
    ("series.eval_at", "germsum.series", "TruncatedSeries.eval_at", None),
    ("series.json", "germsum.series", "series_to_json", None),
    ("series.json", "germsum.series", "series_from_json", None),
    ("weierstrass.wdivide", "germsum.weierstrass", "wdivide", _quot_terms),
    ("weierstrass.p_expand", "germsum.weierstrass", "p_expand", _expansion_terms),
    ("weierstrass.t_substitute", "germsum.weierstrass", "t_substitute", None),
    ("transforms.blowup", "germsum.transforms", "blowup", None),
    ("transforms.dominant_data", "germsum.transforms", "dominant_data", None),
    ("transforms.poly_roots", "germsum.transforms", "_poly_roots", _degree),
    ("gevrey.norm_sequence", "germsum.gevrey", "norm_sequence", None),
    ("gevrey.fit_gevrey", "germsum.gevrey", "fit_gevrey", None),
    ("harness.gen_example", "germsum.harness", "gen_example", None),
    ("harness.verify_ode_formal", "germsum.harness", "verify_ode_formal", None),
    ("harness.verify_pde_formal", "germsum.harness", "verify_pde_formal", None),
    ("harness.sample_p_sector", "germsum.harness", "sample_p_sector", None),
    ("borel.borel_transform", "germsum.borel", "borel_transform", None),
    ("borel.build_approximant", "germsum.borel", "build_approximant", _pade_order),
    ("borel.continue_on_ray", "germsum.borel", "continue_on_ray", None),
    ("borel.singular_directions", "germsum.borel", "singular_directions", None),
    ("borel.laplace_sum", "germsum.borel", "laplace_sum", None),
    ("borel.p_k_sum", "germsum.borel", "p_k_sum", None),
)

SCALAR_OPS = ("sadd", "smul", "sdiv", "sneg")


def _resolve(module, attr):
    obj = sys.modules[module]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class _Patches:
    """Replace a function wherever a germsum module (or class) binds it; undo on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, name, orig, wrapper):
        if isinstance(owner, type):
            self._undo.append((owner, name, orig))
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "germsum" or mod_name.startswith("germsum."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def undo(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


class Tracer:
    """In-memory span recorder; spans are only recorded inside :meth:`task`."""

    def __init__(self):
        # [name, start, end, parent index, task id, counters]
        self.spans = []
        self._stack = []
        self._task_id = None
        self.approximants = []

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._task_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer._task_id, defaultdict(int)]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, out).items():
                    span[5][key] += value
            if name == "borel.build_approximant":
                tracer.approximants.append(out)
            return out

        return wrapper

    def _count_evals(self, fn):
        tracer = self

        def call(approximant, tau):
            if tracer._stack:
                tracer.spans[tracer._stack[-1]][5]["evals"] += 1
            return fn(approximant, tau)

        return call

    def install(self):
        """Wrap every entry point in :data:`SPANS`; returns a context that undoes it."""
        patches = _Patches()
        for name, module, attr, hook in SPANS:
            owner, short, orig = _resolve(module, attr)
            patches.replace(owner, short, orig, self._wrap(name, orig, hook))
        owner, short, orig = _resolve("germsum.borel", "RationalApproximant.__call__")
        patches.replace(owner, short, orig, self._count_evals(orig))
        return patches

    def task(self, task_id, fn):
        """Run fn() as one traced task under a root span named ``task``."""
        self._task_id = task_id
        root = self._wrap("task", fn, None)
        try:
            return root()
        finally:
            self._task_id = None

    def pole_counts(self):
        """(kept, raw) poles of every approximant built in a task: Froissart filtering.

        Counted by the approximants' public methods after the run, outside
        every span and every task's timing.
        """
        kept = sum(len(appr.filtered_poles()) for appr in self.approximants)
        raw = sum(len(appr.raw_poles()) for appr in self.approximants)
        return kept, raw

    def add_span(self, name, start, end):
        """Record an externally timed span (a CLI child) under the open task."""
        if self._task_id is not None:
            self.spans.append([name, start, end, self._stack[-1], self._task_id, defaultdict(int)])

    def layer_metrics(self, scales):
        """Per-layer totals: calls, self seconds and counters, keyed by span name.

        ``scales`` maps a task id to the factor that rescales its times to
        the nominal host speed (see worker.py).
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, task_id, counters) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["wall_s"] += (end - start) * scales[task_id]
            row["self_s"] += (end - start - child_time[i]) * scales[task_id]
            for key, value in counters.items():
                row[key] += value
        return out


class ScalarOpCounter:
    """Counts sadd/smul/sdiv/sneg calls, split by exact and float operands."""

    def __init__(self):
        self.exact = 0
        self.float = 0

    def install(self):
        from germsum.scalars import is_exact
        patches = _Patches()
        counter = self

        def counted(fn):
            def op(*args):
                if all(is_exact(x) for x in args):
                    counter.exact += 1
                else:
                    counter.float += 1
                return fn(*args)
            return op

        for name in SCALAR_OPS:
            owner, short, orig = _resolve("germsum.scalars", name)
            patches.replace(owner, short, orig, counted(orig))
        return patches
