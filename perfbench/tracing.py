"""Span recorder that times calls into sgsolve's layers from outside.

Every public function listed in ``LAYERS`` is replaced, in every sgsolve
module that binds it (``ce.state_update`` and ``bounds.state_update`` are
the same function), by a wrapper that records one span: the layer name,
start and end on ``perf_counter_ns``, the enclosing span and the pass id.
Spans are kept in typed arrays while the program runs and written out once
at the end; self time is derived from them afterwards.  Counts that only a
return value knows (MECs found, whether a deflation changed a bound, path
length) are added to per-pass counters by the wrapper.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

Count = Optional[Callable[["Tracer", object], None]]


def _count_mecs(tracer: "Tracer", result) -> None:
    tracer.add("graph.mec_decompose.mecs", len(result.mecs))


def _count_changed(key: str) -> Count:
    def count(tracer: "Tracer", result) -> None:
        tracer.add(key, 1 if result[0] else 0)

    return count


def _count_path(tracer: "Tracer", result) -> None:
    path, looped = result
    tracer.add("pe.sample_path.steps", len(path))
    tracer.add("pe.sample_path.looped", 1 if looped else 0)


# (span name, module, attribute, counter from the return value).  An
# attribute may name a method as ``Class.method``.
LAYERS: tuple[tuple[str, str, str, Count], ...] = (
    ("explicit.parse", "sgsolve.explicit", "parse", None),
    ("model.build_game", "sgsolve.model", "build_game", None),
    ("model.collapse", "sgsolve.model", "collapse", None),
    ("graph.qualitative_reach", "sgsolve.graph", "qualitative_reach", None),
    ("graph.mec_decompose", "sgsolve.graph", "mec_decompose", _count_mecs),
    ("graph.scc_decompose", "sgsolve.graph", "scc_decompose", None),
    ("bounds.state_update", "sgsolve.bounds", "state_update", None),
    ("bounds.optimal_actions", "sgsolve.bounds", "optimal_actions", None),
    ("ecsolve.process", "sgsolve.ecsolve", "MecTracker.process", None),
    ("ecsolve.sec_candidates", "sgsolve.ecsolve", "sec_candidates", None),
    ("ecsolve.staying_bounds", "sgsolve.ecsolve", "staying_bounds", None),
    ("ecsolve.deflate", "sgsolve.ecsolve", "deflate", _count_changed("ecsolve.deflate.changed")),
    ("ecsolve.inflate", "sgsolve.ecsolve", "inflate", _count_changed("ecsolve.inflate.changed")),
    ("ecsolve.split_candidates", "sgsolve.ecsolve", "split_candidates", None),
    ("ce.solve", "sgsolve.ce", "solve_ce", None),
    ("pe.solve", "sgsolve.pe", "solve_pe", None),
    ("pe.sample_path", "sgsolve.pe", "sample_path", _count_path),
    # Private; may disappear when partial exploration becomes incremental.
    ("pe.refresh", "sgsolve.pe", "_refresh_components", None),
)


class Tracer:
    """Holds the spans and counters of one process and the patches that
    route sgsolve's calls through it.  ``install``/``uninstall`` switch
    tracing on and off between passes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_pass = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[self.pass_id][key] += value

    def wrap(self, name: str, fn: Callable, count: Count = None) -> Callable:
        code = len(self.names)
        self.names.append(name)
        names, parents, passes = self.span_name, self.span_parent, self.span_pass
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1])
            passes.append(self.pass_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(self, result)
            return result

        return traced

    def patch_layers(self) -> None:
        """Prepare wrappers for every layer in ``LAYERS``; a name that the
        package no longer has is recorded in ``absent``."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sgsolve" or name.startswith("sgsolve."))
        ]
        for span, module_name, attr, count in LAYERS:
            holder: object = sys.modules.get(module_name)
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(span, original, count)
            if owner_path:
                self._patches.append((holder, leaf, original, wrapped))
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original, wrapped))

    def install(self) -> None:
        for holder, attr, _, wrapped in self._patches:
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def layer_times(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per pass and span name: calls, total seconds and self seconds.
        A span's self time is its duration minus that of its direct
        children."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i in range(n):
            per_pass = out.setdefault(self.span_pass[i], {})
            entry = per_pass.setdefault(
                self.names[self.span_name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["s"] += duration[i] * 1e-9
            entry["self_s"] += (duration[i] - child[i]) * 1e-9
        return out

    def write(self, path: str) -> None:
        """All spans as gzip-compressed JSON columns; times in ns."""
        columns = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "pass": self.span_pass.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fp:
            json.dump(columns, fp)
