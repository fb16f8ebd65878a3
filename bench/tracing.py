"""Spans around the package's public functions, for the traced run.

``Tracer.install`` wraps every public function of the six modules, and the
public class- and static methods of their public classes, under every name
the function is bound to in the package: modules import each other's
functions by name, so a call from ``rows`` into ``sexagesimal`` goes through
``rows``'s own binding.  Each call records a span (name, start, end, parent
span, operation id) in memory; ``write`` saves them when the run ends, and
``metrics`` derives the per-layer figures from them.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
import types
from array import array

LAYERS = ("sexagesimal", "pairs", "rows", "hypotheses", "tablet", "cli")
# per-function inclusive times reported as <layer>.<function>.ms
TIMED_FUNCTIONS = ("hypotheses.link_to_standard", "pairs.enumerate_pairs",
                   "hypotheses.generate", "tablet.diff_against")
# per-function call counts reported as <layer>.<function>.calls
COUNTED_FUNCTIONS = ("sexagesimal.factor_2_3_5", "hypotheses.standard_table",
                     "pairs.from_T_mantissa", "pairs.regular_mantissas",
                     "hypotheses.phillips_pairs", "hypotheses.extend_phillips",
                     "rows.build_row", "tablet.tablet_data",
                     "sexagesimal.reciprocal", "sexagesimal.from_fraction")


def metric_names() -> list[str]:
    names = [f"{f}.ms" for f in TIMED_FUNCTIONS] + [f"{f}.calls" for f in COUNTED_FUNCTIONS]
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"]
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.op = -1  # the operation the next spans belong to

    def install(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(raw, (classmethod, staticmethod)):
                            wrapped = self._wrap(f"{layer}.{attr}", raw.__func__)
                            setattr(obj, attr, type(raw)(wrapped))
        for module in [package] + [getattr(package, layer) for layer in LAYERS]:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.span_start)

    def metrics(self, operations: int, op_scale: list[float]) -> dict[str, float]:
        """Per-operation figures over the spans of operations: calls,
        inclusive ms of the outermost call of each timed function, and each
        layer's self time (span time minus the time of its child spans).
        A span's time is multiplied by its operation's ``op_scale``."""
        n = len(self)
        duration = array("q", (e - s for s, e in zip(self.span_start, self.span_end)))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += duration[i]
        calls = [0] * len(self.names)
        layer_calls = dict.fromkeys(LAYERS, 0)
        layer_self = dict.fromkeys(LAYERS, 0)
        timed_ids = {self.names.index(f): f for f in TIMED_FUNCTIONS if f in self.names}
        inclusive = dict.fromkeys(TIMED_FUNCTIONS, 0)
        for i in range(n):
            if self.span_op[i] < 0:  # made by the checks, outside operations
                continue
            name_id = self.span_name[i]
            calls[name_id] += 1
            layer = self.names[name_id].split(".", 1)[0]
            layer_calls[layer] += 1
            scale = op_scale[self.span_op[i]]
            layer_self[layer] += (duration[i] - child[i]) * scale
            if name_id in timed_ids and not self._nested_in_same(i):
                inclusive[timed_ids[name_id]] += duration[i] * scale
        ms = 1e-6 / operations
        out = {f"{f}.ms": inclusive[f] * ms for f in TIMED_FUNCTIONS}
        for f in COUNTED_FUNCTIONS:
            count = calls[self.names.index(f)] if f in self.names else 0
            out[f"{f}.calls"] = count / operations
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer] / operations
            out[f"{layer}.self_ms"] = layer_self[layer] * ms
        return out

    def _nested_in_same(self, i: int) -> bool:
        name_id, p = self.span_name[i], self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == name_id:
                return True
            p = self.span_parent[p]
        return False

    def write(self, path) -> None:
        """One line per span; times in ns from the first span's start."""
        t0 = self.span_start[0] if len(self) else 0
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            out = csv.writer(f)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "op"])
            for i in range(len(self)):
                out.writerow([i, self.names[self.span_name[i]], self.span_start[i] - t0,
                              self.span_end[i] - t0, self.span_parent[i], self.span_op[i]])
