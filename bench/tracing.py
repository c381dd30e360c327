"""Spans and counts recorded around kopt_lab's public functions, from outside the program.

Inside `with recorder.op(k):` both recorders replace each traced function,
in every layer namespace that binds it, with a wrapper, and they restore
the originals when the op ends.  The benchmark's own output checks, which
call the same functions, therefore leave no spans and no counts, and the
untraced ops run the program unchanged.

`SpanTracer` keeps (op, name, start, end, parent) spans in memory; a span's
self time is its duration minus the time its child spans cover, and the
self time of an operation's root span is the part of the operation that no
traced function covers.  `CallCounter` counts calls and a few deterministic
quantities read from results; it also counts the hot geometry predicates,
which are far too frequent to time without distorting the self times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

LAYERS = ("harness", "tour", "crossing", "partition", "arborescence",
          "geometry", "lowerbound", "tsplib")
# Geometry predicates run millions of times per op: counted, never timed.
COUNTED_GEOMETRY = ("orientation", "segment_relation", "pdist", "point_in_polygon")
OP = "op"


def _layer_modules() -> dict:
    return {name: importlib.import_module(f"kopt_lab.{name}") for name in LAYERS}


def traced_functions(with_geometry: bool) -> dict:
    """{function: qualified name} for every public function of a layer module.

    Geometry contributes only its counted predicates, and only when
    `with_geometry` is set.  The one method traced is
    `LowerBoundInstance.as_instance`, which builds the large layered instances.
    """
    out = {}
    for layer, mod in _layer_modules().items():
        for attr, val in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(val) or val.__module__ != mod.__name__:
                continue
            if layer == "geometry" and not (with_geometry and attr in COUNTED_GEOMETRY):
                continue
            out[val] = f"{layer}.{attr}"
    method = _layer_modules()["lowerbound"].LowerBoundInstance.as_instance
    out[method] = "lowerbound.LowerBoundInstance.as_instance"
    return out


@contextlib.contextmanager
def _patched(wrappers: dict):
    """Bind wrappers[f] wherever a layer module (or LowerBoundInstance) binds f."""
    mods = _layer_modules()
    namespaces = list(mods.values()) + [mods["lowerbound"].LowerBoundInstance]
    saved = []
    try:
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    saved.append((ns, attr, val))
                    setattr(ns, attr, wrappers[val])
        yield
    finally:
        for ns, attr, val in reversed(saved):
            setattr(ns, attr, val)


class SpanTracer:
    def __init__(self):
        self.spans = []          # (op, name, start, end, parent span index or -1)
        self._stack = [-1]
        self._op = None
        self._wrappers = {fn: self._wrap(name, fn)
                          for fn, name in traced_functions(with_geometry=False).items()}

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (op, name, start, end, stack[-1])
        return traced

    @contextlib.contextmanager
    def op(self, k: int):
        with _patched(self._wrappers):
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            self._op = k
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._op = None
                self._stack.pop()
                self.spans[idx] = (k, OP, start, end, -1)

    def self_times(self) -> dict:
        """{name: total self seconds}; the OP entry is the uncovered remainder."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for (_, name, start, end, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def op_wall(self) -> float:
        return sum(end - start for _, name, start, end, _ in self.spans if name == OP)


def _arborescence_depth(arb) -> int:
    parent = {e.head: e.tail for e in arb.edges}
    deepest = 0
    for node in parent:
        depth = 0
        while node in parent:
            node = parent[node]
            depth += 1
        deepest = max(deepest, depth)
    return deepest


def _count_arborescence(counts, arb):
    counts["arborescence.edges"] += len(arb.edges)
    counts["arborescence.depth_max"] = max(counts["arborescence.depth_max"],
                                           _arborescence_depth(arb))


def _count_lemma_suite(counts, cert):
    verdict = cert.params.get("main_lemma")  # absent for an arborescence without edges
    if verdict in ("checked", "vacuous"):
        counts[f"arborescence.main_lemma_{verdict}"] += 1


def _count_crossings(counts, pair):
    counts["crossing.crossings"] += pair.crossings


def _count_pairs(counts, scan):
    counts["lowerbound.pairs_scanned"] += scan.pairs_scanned


# Deterministic quantities read from a traced function's result.
RESULT_COUNTS = {
    "crossing.make_crossing_free": _count_crossings,
    "arborescence.build_arborescence": _count_arborescence,
    "arborescence.verify_lemma_suite": _count_lemma_suite,
    "lowerbound.scan_2opt_optimality": _count_pairs,
}


class CallCounter:
    def __init__(self):
        self.calls = {}          # name -> calls
        self.nested = {}         # (caller name, callee name) -> calls
        self.counts = {
            "crossing.crossings": 0, "arborescence.edges": 0, "arborescence.depth_max": 0,
            "arborescence.main_lemma_checked": 0, "arborescence.main_lemma_vacuous": 0,
            "lowerbound.pairs_scanned": 0,
        }
        self._stack = [OP]
        self._wrappers = {
            fn: (self._wrap_lean if name.startswith("geometry.") else self._wrap)(name, fn)
            for fn, name in traced_functions(with_geometry=True).items()}

    def _wrap_lean(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn):
        calls, nested, stack = self.calls, self.nested, self._stack
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            key = (stack[-1], name)
            nested[key] = nested.get(key, 0) + 1
            stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return counted

    def op(self, k: int):
        return _patched(self._wrappers)
