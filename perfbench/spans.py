"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public functions of the ``ptasynth`` modules
with timing wrappers and ``uninstall`` puts the originals back; the
library itself is never edited.  A function is wrapped in every module
that imported it by name, because that module's global is what its
callers look up (``synthesis.decide`` and ``twoclock.decide`` are bound
at import time, so wrapping ``semantics.decide`` alone would miss them).

A span is one outermost call into a layer; a call into the layer the
current span already belongs to runs inside that span.  A layer's self
time is its spans' duration minus the time of the child spans they
contain.  Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter


# Counters, each a function of the wrapped call's result.

def _len(result) -> int:
    return len(result)


def _planes(result) -> int:
    return len(result[0].signs) if result else 0


def _found(result) -> int:
    return result is not None


def _states(result) -> int:
    return result.info.get("states", 0)


def _feasible(result) -> int:
    return bool(result.feasible)


# layer -> [(function, modules whose global of that name is rebound, counters)]
LAYERS = {
    "parser": [
        ("parse_model", ["parser"], {}),
        ("parse_property", ["parser"], {}),
    ],
    "transforms": [
        ("negate_property", ["transforms", "semantics"], {}),
        ("encode_run_property", ["transforms", "synthesis"], {}),
        ("invariants_to_guards", ["transforms", "synthesis"], {}),
        ("encode_property", ["transforms"], {}),
        ("to_nnf", ["transforms"], {}),
        ("to_dnf_atoms", ["transforms"], {}),
    ],
    "decomposition.linear": [
        ("decompose_linear", ["decomposition", "synthesis"],
         {"planes": _planes, "cells": _len}),
    ],
    "decomposition.cad1": [
        ("project_clock", ["decomposition", "synthesis"], {"projected": _len}),
        ("decompose_1d", ["decomposition", "synthesis"], {"cells": _len}),
    ],
    "polynomials.resultant": [
        ("sylvester_resultant_x", ["polynomials", "decomposition"], {}),
    ],
    "polynomials.roots": [
        ("isolate_real_roots", ["polynomials", "decomposition"], {}),
    ],
    "decomposition.integer_point": [
        ("integer_point", ["decomposition", "synthesis"], {"found": _found}),
    ],
    "semantics.decide": [
        ("decide", ["semantics", "synthesis", "twoclock"], {}),
    ],
    "semantics.reach_discrete": [
        ("reach_discrete", ["semantics", "twoclock"], {"states": _states}),
    ],
    "semantics.reach_dense": [
        ("reach_dense_one_clock", ["semantics"], {}),
    ],
    "feasibility": [
        ("feasible_with_reset", ["feasibility", "synthesis"], {"feasible": _feasible}),
        ("feasible_no_reset", ["feasibility"], {"feasible": _feasible}),
    ],
    "synthesis.synthesize": [("synthesize", ["synthesis"], {})],
    "synthesis.run_region": [("run_region", ["synthesis"], {})],
    "synthesis.region_query": [("region_query", ["synthesis"], {})],
    "twoclock.probe": [("periodicity_probe", ["twoclock"], {})],
    "jsonio": [
        ("region_to_json", ["jsonio"], {}),
        ("dumps", ["jsonio"], {}),
    ],
}

ITEM = "bench.item"


class Tracer:
    """Spans, self time and counters per layer, collected while installed."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []            # [layer, seconds spent in child spans]
        self._saved = []            # (module, name, original)

    # -- spans ------------------------------------------------------------------

    def span(self, layer: str, fn, *args, counters=None, **kwargs):
        """Call ``fn`` inside a span of ``layer`` and return its result."""
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame[1]
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += elapsed
        if counters:
            for name, measure in counters.items():
                self.counts[layer + "." + name] += measure(result)
        return result

    def _wrapper(self, layer, fn, counters):
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, counters=counters, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, functions in LAYERS.items():
            for name, modules, counters in functions:
                original = getattr(importlib.import_module("ptasynth." + modules[0]), name)
                wrapper = self._wrapper(layer, original, counters)
                for mod_name in modules:
                    module = importlib.import_module("ptasynth." + mod_name)
                    if getattr(module, name) is not original:
                        raise RuntimeError("ptasynth.%s.%s is not ptasynth.%s.%s"
                                           % (mod_name, name, modules[0], name))
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def snapshot_counts(self) -> dict:
        """Every count the trace took: calls per layer and boundary counters."""
        out = {layer + ".calls": n for layer, n in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))
