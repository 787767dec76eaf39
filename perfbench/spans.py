"""Span tracing of algoselect from outside the library.

`Tracer.install` replaces the public functions and methods of every
algoselect module with wrappers that record one span per call: a name
(`<module>.<qualname>`), a start, an end and the enclosing span.  Spans live
in flat in-memory arrays and are written out once, when the run ends.  Hooks
attached to a few functions add counts at the same call boundaries (bytes
written, crossing points found, GD steps taken, sorter comparisons).

Nothing under `src/` changes: the wrappers are set as module and class
attributes, and every module that imported a function by name gets the
wrapper too.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

# Per-step helpers whose own cost is close to a span's (a few microseconds or
# less, called once per GD step or per vertex draw).  Wrapping them would
# mostly measure the tracer; their time stays in the caller's self time.
UNTRACED = frozenset({
    "gdtune.step_map",
    "gdtune.GdInstance.gradient",
    "gdtune.GdFamily.contains",
    "gdtune.GdFamily.D",
    "greedy.ParamGreedyFamily.contains",
    "greedy.mask_cost",
    "online.UniformUnion.sample",
})


def _count(key, value_of):
    def hook(counts, result, args, kwargs):
        counts[key] += value_of(result, args, kwargs)
    return hook


def _sort_stats(counts, result, args, kwargs):
    stats = result[1]
    counts["sorter.routing_comparisons"] += stats.routing_comparisons
    counts["sorter.insertion_comparisons"] += stats.insertion_comparisons
    counts["sorter.merge_comparisons"] += stats.merge_comparisons
    counts["sorter.fallback_sorts"] += int(stats.fallback)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


HOOKS = {
    "utils.atomic_write_text": _count(
        "utils.bytes_written", lambda r, a, k: len(_arg(a, k, 1, "text").encode("utf-8"))),
    "greedy.breakpoints": _count("greedy.breakpoint_count", lambda r, a, k: r.count),
    "greedy.grid_costs": _count("greedy.grid_rhos", lambda r, a, k: np.size(_arg(a, k, 1, "rhos"))),
    "core.FiniteFamily.cost_matrix": _count(
        "core.cost_cells", lambda r, a, k: int(np.size(r))),
    "online.transition_points": _count("online.transition_point_count", lambda r, a, k: r.size),
    "online.build_hard_instance": _count("online.hard_edges", lambda r, a, k: r.edges.shape[0]),
    "gdtune.knet": _count("gdtune.net_points", lambda r, a, k: r.size),
    "gdtune.run_gd": _count("gdtune.gd_steps", lambda r, a, k: r),
    "sorter.sort": _sort_stats,
}

# Calls whose arguments are kept for analysis after the run.
DEFERRED = frozenset({"greedy.breakpoints"})


class Tracer:
    """In-memory span store plus counters, filled by wrappers it installs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.deferred: list[tuple[tuple, dict]] = []
        self.originals: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        names, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        hook = HOOKS.get(name)
        counts = self.counts
        deferred = self.deferred if name in DEFERRED else None

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                # One span per item drawn from the generator.
                items = fn(*args, **kwargs)
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                # Recursion: one span for the outermost call.
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result, args, kwargs)
            if deferred is not None:
                deferred.append((args, kwargs))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function and method defined in `package`'s modules."""
        modules = [m for m in vars(package).values()
                   if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")]
        namespaces = [package, *modules]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    if name in UNTRACED:
                        continue
                    wrapper = self._wrap(obj, name)
                    self.originals[name] = obj
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._undo.append((ns, key, value))
                                setattr(ns, key, wrapper)
                elif inspect.isclass(obj):
                    for key, value in list(vars(obj).items()):
                        if not inspect.isfunction(value):
                            continue
                        defined_here = value.__code__.co_filename == module.__file__
                        if key.startswith("_") and not (key == "__init__" and defined_here):
                            continue
                        name = f"{layer}.{obj.__name__}.{key}"
                        if name in UNTRACED:
                            continue
                        self.originals[name] = value
                        self._undo.append((obj, key, value))
                        setattr(obj, key, self._wrap(value, name))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
        return name_id, parent, duration, duration - child

    def save(self, path: str) -> None:
        name_id, parent, _, _ = self.arrays()
        np.savez(path, names=np.asarray(self.names), name_id=name_id, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class SpanTotals:
    """Totals over the recorded spans, by span name or by layer."""

    def __init__(self, tracer: Tracer) -> None:
        name_id, _, duration, self_time = tracer.arrays()
        size = len(tracer.names)
        self._index = {name: i for i, name in enumerate(tracer.names)}
        self._calls = np.bincount(name_id, minlength=size)
        self._total = np.bincount(name_id, weights=duration, minlength=size)
        self._self = np.bincount(name_id, weights=self_time, minlength=size)
        self._names = tracer.names

    def calls(self, *names) -> float:
        return float(sum(self._calls[self._index[n]] for n in names if n in self._index))

    def total(self, *names) -> float:
        return float(sum(self._total[self._index[n]] for n in names if n in self._index))

    def self_time(self, *names) -> float:
        return float(sum(self._self[self._index[n]] for n in names if n in self._index))

    def layer_self(self, layer: str) -> float:
        return self.self_time(*(n for n in self._names if n.startswith(layer + ".")))


def breakpoint_union_sizes(tracer: Tracer) -> float:
    """Sum over recorded `breakpoints` calls of the size of the union of the
    crossing points each sample has on its own (same enumerator, one sample
    per call, coincident points merged at the enumerator's 1e-12 tolerance)."""
    enumerate_points = tracer.originals.get("greedy.breakpoints")
    total = 0
    for args, kwargs in tracer.deferred:
        family = _arg(args, kwargs, 0, "family")
        samples = _arg(args, kwargs, 1, "samples")
        points = np.unique(np.concatenate(
            [enumerate_points(family, [x]).points for x in samples] + [np.empty(0)]))
        kept = 0
        last = -np.inf
        for p in points:
            if p - last > 1e-12 * max(1.0, abs(p)):
                kept += 1
                last = p
        total += kept
    return float(total)


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, per traced round."""
    spans = SpanTotals(tracer)
    c = tracer.counts
    pooled = c["greedy.breakpoint_count"]
    union = breakpoint_union_sizes(tracer)
    per = 1.0 / rounds
    raw = {
        "cli.self_s": (spans.layer_self("cli"), "s"),
        "utils.write_s": (spans.total("utils.atomic_write_text"), "s"),
        "utils.bytes_written": (c["utils.bytes_written"], "bytes"),
        "greedy.load_s": (spans.total("greedy.load_mwis", "greedy.load_knapsack"), "s"),
        "greedy.breakpoints_s": (spans.total("greedy.breakpoints"), "s"),
        "greedy.breakpoint_count": (pooled, "count"),
        "greedy.per_sample_breakpoint_count": (union, "count"),
        "greedy.run_greedy_calls": (spans.calls("greedy.run_greedy"), "count"),
        "greedy.run_greedy_s": (spans.total("greedy.run_greedy"), "s"),
        "greedy.grid_costs_calls": (spans.calls("greedy.grid_costs"), "count"),
        "greedy.grid_rhos": (c["greedy.grid_rhos"], "count"),
        "greedy.grid_costs_s": (spans.total("greedy.grid_costs"), "s"),
        "core.cost_matrix_s": (spans.total("core.FiniteFamily.cost_matrix"), "s"),
        "core.cost_matrix_self_s": (spans.self_time("core.FiniteFamily.cost_matrix"), "s"),
        "core.cost_cells": (c["core.cost_cells"], "count"),
        "core.shatter_probe_s": (spans.total("core.shatter_probe"), "s"),
        "core.witness_vectors": (spans.calls("core.realized_labelings"), "count"),
        "epm.fit_s": (spans.total("epm.fit_linear_epm"), "s"),
        "epm.select_s": (spans.total("epm.select_per_instance"), "s"),
        "online.stream_s": (spans.total("online.smooth_stream"), "s"),
        "online.transition_points_s": (spans.total("online.transition_points"), "s"),
        "online.transition_point_count": (c["online.transition_point_count"], "count"),
        "online.hedge_sample_s": (spans.total("online.HedgeLearner.sample"), "s"),
        "online.hedge_update_s": (spans.total("online.HedgeLearner.update"), "s"),
        "online.run_smoothed_self_s": (spans.self_time("online.run_smoothed_online"), "s"),
        "online.adversary_sequence_s": (spans.total("online.adversary_sequence"), "s"),
        "online.build_hard_instance_s": (spans.total("online.build_hard_instance"), "s"),
        "online.hard_edges": (c["online.hard_edges"], "count"),
        "gdtune.knet_s": (spans.total("gdtune.knet"), "s"),
        "gdtune.net_points": (c["gdtune.net_points"], "count"),
        "gdtune.run_gd_calls": (spans.calls("gdtune.run_gd"), "count"),
        "gdtune.run_gd_s": (spans.total("gdtune.run_gd"), "s"),
        "gdtune.gd_steps": (c["gdtune.gd_steps"], "count"),
        "sorter.sort_s": (spans.total("sorter.sort"), "s"),
        "sorter.mergesort_s": (spans.total("sorter.mergesort_count"), "s"),
        "sorter.fallback_sorts": (c["sorter.fallback_sorts"], "count"),
        "sorter.routing_comparisons": (c["sorter.routing_comparisons"], "count"),
        "sorter.insertion_comparisons": (c["sorter.insertion_comparisons"], "count"),
        "sorter.merge_comparisons": (c["sorter.merge_comparisons"], "count"),
    }
    metrics = {name: (value * per, unit + "/round") for name, (value, unit) in raw.items()}
    metrics["greedy.useful_breakpoint_ratio"] = (union / pooled if pooled else 0.0, "ratio")
    return metrics


def summary_json(tracer: Tracer) -> str:
    """Per span name: calls, total and self seconds (for the sidecar file)."""
    spans = SpanTotals(tracer)
    rows = {name: {"calls": spans.calls(name), "total_s": spans.total(name),
                   "self_s": spans.self_time(name)} for name in tracer.names}
    return json.dumps({"spans": rows, "counts": dict(tracer.counts)}, indent=1, sort_keys=True)
