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
