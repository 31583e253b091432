"""Span tracer that instruments the package from outside.

`Tracer.install` replaces each traced function with a wrapper in every
stickygeom module that holds it (so calls through `from .x import f` names
are caught too), and wraps two hot methods on their classes with plain call
counters.  Spans are kept in memory as [name, start, end, parent] and
written out by `write`.  A layer's self time is its span time minus the time
of the spans it called.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE_MODULES = ("spaces", "directions", "frechet", "stickiness", "_mc",
                   "asymptotics", "transport", "cli")

# (module, function, span name); several functions may share a span name
SPANS = (
    ("spaces", "cone_distance", "spaces.cone_distance"),
    ("spaces", "is_prismatic", "spaces.is_prismatic"),
    ("directions", "build_system", "directions.build_system"),
    ("directions", "min_derivative", "directions.min_derivative"),
    ("directions", "batch_min_derivative", "directions.batch_min_derivative"),
    ("frechet", "cone_mean", "frechet.cone_mean"),
    ("stickiness", "classify", "stickiness.classify"),
    ("stickiness", "perturbation_threshold", "stickiness.perturbation_threshold"),
    ("stickiness", "sample_sticking", "stickiness.sample_sticking"),
    ("asymptotics", "modulation", "asymptotics.modulation"),
    ("asymptotics", "clt_simulate", "asymptotics.clt_simulate"),
    ("_mc", "resample_counts", "mc.resample_counts"),
    ("transport", "wq_lp", "transport.wq_lp"),
    ("transport", "_exact_transport", "transport.exact_transport"),
    ("transport", "_highs_transport", "transport.highs_transport"),
    ("transport", "w1_tree", "transport.w1_tree"),
    ("transport", "f_divergence", "transport.f_divergence"),
    ("cli", "validate", "cli.validate"),
    ("cli", "run_config", "cli.run_config"),
    ("cli", "_json_text", "cli.report"),
    ("cli", "_csv_text", "cli.report"),
)

# (module, class, method, counter name): counted only, they run too often
# for a span each
COUNTED_METHODS = (
    ("spaces", "GraphDirections", "distance", "spaces.graph_distance_calls"),
    ("directions", "DirectionSystem", "derivative_at",
     "directions.derivative_at_calls"),
)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _after_build_system(counts, fn, args, kwargs, result, parent):
    counts["directions.candidates"] += len(result.candidates)
    counts["directions.pieces"] += len(result.pieces)


def _after_batch(counts, fn, args, kwargs, result, parent):
    counts["directions.batch_rows"] += len(result)
    if parent == "stickiness.perturbation_threshold":
        counts["stickiness.bisection_evals"] += 1


def _after_resample(counts, fn, args, kwargs, result, parent):
    cells = _arg(fn, args, kwargs, "n") * _arg(fn, args, kwargs, "trials")
    counts["mc.trials_x_n"] += cells
    # per chunk: one float64 uniform array and three int64 index arrays of
    # shape rows x n (searchsorted, minimum, flat offsets)
    counts["mc.bytes_computed"] += 32 * cells


def _after_wq_lp(counts, fn, args, kwargs, result, parent):
    if parent == "transport.w1_tree":
        counts["transport.w1_tree_lp_fallbacks"] += 1


AFTER = {
    "directions.build_system": _after_build_system,
    "directions.batch_min_derivative": _after_batch,
    "mc.resample_counts": _after_resample,
    "transport.wq_lp": _after_wq_lp,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- instrumentation ----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"stickygeom.{m}") for m in PACKAGE_MODULES]
        for mod_name, fn_name, span in SPANS:
            original = getattr(importlib.import_module(f"stickygeom.{mod_name}"), fn_name)
            wrapper = self._span_wrapper(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"stickygeom.{mod_name}"), cls_name)
            self._patch(cls, method, self._count_wrapper(counter, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name, fn):
        after = AFTER.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            counts[name + "_calls"] += 1
            if after is not None:
                parent = self.spans[self._stack[-1]][0] if self._stack else None
                after(counts, fn, args, kwargs, result, parent)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, name: str):
        return _Span(self, name)

    # -- results -------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to measure a stretch of work from."""
        return len(self.spans), dict(self.counts)

    def since(self, mark) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per span name, and counter increments, since `mark`."""
        first, before = mark
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _parent) in enumerate(spans):
            self_time[name] += end - start - child[k]
        counts = {k: v - before.get(k, 0) for k, v in self.counts.items()}
        return dict(self_time), counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, parent])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False
