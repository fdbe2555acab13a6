"""The benchmark's trace mode stays installable.

``perfbench/spans.py`` wraps the library functions its ``LAYERS`` table
names, in every ``ptasynth`` module listed for them, and puts the
originals back afterwards.  A rename in the library breaks
``perfbench/run.py --trace 1``; this test, unlike ``perfbench``'s own,
runs with the library's tests.  It changes nothing under ``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def _globals(spans):
    """Every (module, name) the tracer rebinds, with its current value."""
    out = {}
    for functions in spans.LAYERS.values():
        for name, modules, _ in functions:
            for mod in modules:
                out[mod, name] = getattr(importlib.import_module("ptasynth." + mod), name)
    return out


def test_tracer_wraps_and_restores_every_layer_function():
    spans = _spans()
    before = _globals(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, wrapped in _globals(spans).items():
            assert wrapped.__wrapped__ is before[key], key
    finally:
        tracer.uninstall()
    assert _globals(spans) == before


MODEL = """
clocks: x
params: p
domain: time=%s param=%s
loc q0 init inv: x <= p^2
loc q1 inv: true
edge q0 -> q1 : x >= 2 & x <= 3*p - 1 ; a ; reset x:=1
edge q1 -> q0 : x > p ; b ;
"""


@pytest.mark.parametrize("time_domain, param_domain, search", [
    ("dense", "real", "semantics.reach_dense"),
    ("nat", "int", "semantics.reach_discrete")])
def test_one_traced_decision_per_decided_cell(time_domain, param_domain, search):
    # the benchmark counts one ``decide`` span per cell, each with one
    # search under it, however the engines share work between cells
    from ptasynth import synthesis
    from ptasynth.parser import parse_model, parse_property

    pta = parse_model(MODEL % (time_domain, param_domain))
    psi = parse_property("AG (q0 || x <= p)", pta)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        region = synthesis.synthesize(pta, psi)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot_counts()
    decided = len(region.cells)
    assert decided > 5
    assert counts["semantics.decide.calls"] == counts[search + ".calls"] == decided
    assert counts["synthesis.synthesize.calls"] == 1
