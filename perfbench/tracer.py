"""Outside-in tracer for slicegraph's layer modules.

`Tracer` wraps, from outside the package, every public function and every
public method of every public class that a layer module exports, and
records one span per call: name `<layer>.<function>` (or
`<layer>.<Class>.<method>`), start, end, parent span, run id, and whether
the call raised. Callers bind names with `from .x import f`, so each
function is replaced under every alias in every loaded `slicegraph.*`
namespace; `uninstall` puts the originals back. Nothing under `src/`
changes.

Spans stay in memory until `take_spans`; `summarise` turns a list of
spans into per-layer and per-function metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "slicegraph"
LAYERS = ("graph", "spectral", "model", "gradients", "train", "checkpoint",
          "data", "metrics", "experiments", "cli")

# Functions whose calls and self time are reported next to the per-layer
# metrics. A function that no longer exists leaves its metrics out of the
# report instead of reporting zero.
FUNCTION_METRICS = (
    "graph.build_adjacency",
    "spectral.lambda_max",
    "spectral.cheb_basis",
    "gradients.backward",
    "train.adamw_step",
    "train.train",
    "data.read_features",
    "data.write_features",
    "data.generate_sample",
    "metrics.select_thresholds",
    "metrics.auroc",
    "metrics.evaluate",
    "experiments.predict",
)
CACHE_LOOKUP = "model.GraphOperatorCache.get"
CACHE_MISS = "model.prepare_graph"


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(index: int, name: str):
    return lambda args, kwargs: os.path.getsize(_arg(args, kwargs, index, name))


# Counters taken at a function boundary after the call returns:
# span name -> (counter name, amount from the call's arguments).
COUNTERS = {
    "checkpoint.save_checkpoint": ("checkpoint.bytes_written", _file_size(0, "path")),
    "checkpoint.load_checkpoint": ("checkpoint.bytes_read", _file_size(0, "path")),
    "data.write_features": ("data.bytes_written", _file_size(0, "path")),
    "data.read_features": ("data.bytes_read", _file_size(0, "path")),
    "experiments.predict": ("experiments.predict.samples",
                            lambda args, kwargs: len(_arg(args, kwargs, 2, "samples"))),
}


def public_names(module) -> list[str]:
    """The module's `__all__`, or its own public top-level names if it has none."""
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    return [name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__]


def traceable() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, raw attribute) for everything to wrap.

    The owner is the layer module for a function and the class for a
    method; the raw attribute is what `vars(owner)` holds, so a
    classmethod or staticmethod keeps its descriptor.
    """
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in public_names(module):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{name}", module, name, obj))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    func = getattr(raw, "__func__", raw)
                    if not attr.startswith("_") and inspect.isfunction(func):
                        targets.append((f"{layer}.{name}.{attr}", obj, attr, raw))
    return targets


class Tracer:
    """Span recorder that patches the package on `install` and restores it on
    `uninstall` (also usable as a context manager).

    Each span is a tuple (name, start, end, parent index or -1, run id,
    failed). Run ids group the spans of one timed command sequence.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            start = clock()
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, failed)
                if counter is not None and not failed:
                    counters[counter[0]] += counter[1](args, kwargs)

        return traced

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for span_name, owner, attr, raw in traceable():
            self.wrapped.add(span_name)
            if inspect.ismodule(owner):
                replacements[raw] = self._wrap(span_name, raw)
                continue
            wrapped = self._wrap(span_name, getattr(raw, "__func__", raw))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacements[value])
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take_spans(self) -> tuple[list, dict[str, int]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted((spans[c][1], spans[c][2])
                                             for c in children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarise(spans, counters: dict[str, int], wrapped) -> dict[str, float]:
    """Per-layer and per-function metrics from one list of spans.

    Layer metrics (`<layer>.self_s`, `.calls`, `.errors`) always exist.
    Function metrics exist only for functions in `wrapped`.
    """
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    by_name_errors: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        by_name_self[span[0]] += own
        by_name_calls[span[0]] += 1
        by_name_errors[span[0]] += span[5]

    out: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in by_name_calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(by_name_self[n] for n in names)
        out[f"{layer}.calls"] = sum(by_name_calls[n] for n in names)
        out[f"{layer}.errors"] = sum(by_name_errors[n] for n in names)
    for name in FUNCTION_METRICS:
        if name in wrapped:
            out[f"{name}.calls"] = by_name_calls[name]
            out[f"{name}.self_s"] = by_name_self[name]
    if CACHE_LOOKUP in wrapped and CACHE_MISS in wrapped:
        out["model.graph_cache.lookups"] = by_name_calls[CACHE_LOOKUP]
        out["model.graph_cache.misses"] = by_name_calls[CACHE_MISS]
    for span_name, (counter, _) in COUNTERS.items():
        if span_name in wrapped:
            out[counter] = counters.get(counter, 0)
    return with_hit_ratio(out)


def with_hit_ratio(metrics: dict[str, float]) -> dict[str, float]:
    """Add `model.graph_cache.hit_ratio` = 1 - graph preparations / cache lookups."""
    lookups = metrics.get("model.graph_cache.lookups")
    if lookups:
        metrics["model.graph_cache.hit_ratio"] = (
            1.0 - metrics["model.graph_cache.misses"] / lookups)
    return metrics


def combine(setup: dict[str, float], iterations: list[dict[str, float]]) -> dict[str, float]:
    """Set-up metrics plus the key-wise (low) median over timed iterations.

    Counts repeat exactly from one iteration to the next, so their median
    is the count of any one iteration.
    """
    keys = set(iterations[0]).intersection(*iterations[1:])
    keys.discard("model.graph_cache.hit_ratio")
    out = {key: setup.get(key, 0) + statistics.median_low(r[key] for r in iterations)
           for key in keys}
    return with_hit_ratio(out)
