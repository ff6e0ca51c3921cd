"""Span tracing of liftlab's public functions, installed from outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper at every module that holds the original by name (for
example ``generator_set`` lives in ``presentation`` and is imported by name
into ``lifts``, ``verify`` and ``cli``).  Each call records a span
``(name, start, end, parent)`` in memory; self time is a span's duration
minus the durations of its direct children.  Result-derived counters
(elements, sides, ...) are taken at the same boundary.

Functions that run once per group element or per Farey candidate are left
unwrapped, because a wrapper there would cost more than the work it
measures; their time lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable

# Per-element or per-candidate helpers: millions of calls in a run.
UNWRAPPED = frozenset({"engine.mul", "engine.inv", "presentation.proj_member"})

# Functions whose distinct (family, level) arguments are counted, to show
# how many of their calls redo work already done.
DISTINCT_ARGS = frozenset({"lifts.full_image"})


def _result_counts(name: str, result) -> dict[str, int]:
    """Work counters read off one call's result."""
    if name in ("engine.subgroup_by_membership", "engine.closure"):
        return {"elements": result.order}
    if name == "engine.squares_subgroup":
        return {"adopted": len(result.generators)}
    if name == "engine.closure_contains":
        return {"early_exit": int(result[0])}
    if name == "lifts.classify_all":
        return {"counted": int(result.mode == "counted")}
    if name == "presentation.farey_symbol":
        return {"sides": len(result.labels)}
    return {}


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.distinct_args: dict[str, set] = defaultdict(set)
        self.caches: dict[str, Callable] = {}
        self._stack: list[int] = []

    def install(self, traced: list, rebind_in: list) -> None:
        """Wrap the public functions of ``traced``; rebind in ``rebind_in``."""
        originals = {}
        for module in traced:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not callable(obj) or inspect.isclass(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(name, obj))
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
        for module in rebind_in:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(module, attr, originals[id(obj)][1])

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        distinct = self.distinct_args[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts["calls"] += 1
            if name in DISTINCT_ARGS:
                distinct.add(args[:2])
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name_id, start, end, parent]
            counts.update(_result_counts(name, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per function, minus the time of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name_id, start, end, _), inner in zip(self.spans, child_time):
            out[self.names[name_id]] += end - start - inner
        return out

    def summary(self) -> dict[str, dict]:
        """Per function: calls, self_s and the result counters."""
        selfs = self.self_times()
        out = {}
        for name in self.names:
            entry = dict(self.counts.get(name, {}))
            entry.setdefault("calls", 0)
            entry["self_s"] = selfs.get(name, 0.0)
            if name in DISTINCT_ARGS:
                entry["distinct"] = len(self.distinct_args[name])
            if name in self.caches:
                info = self.caches[name].cache_info()
                entry["cache_hits"] = info.hits
                entry["cache_misses"] = info.misses
            out[name] = entry
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
