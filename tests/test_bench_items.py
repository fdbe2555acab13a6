"""The benchmark's items still run and pass its correctness gate.

``perfbench/workloads.py`` builds the four corpora and imports library
names to do so, some of them private (``ClockSet``,
``_apply_guard_to_set``, ``_clockset_integerize``).  A rename in the
library breaks ``perfbench/run.py --trace 0``; this test, unlike
``perfbench``'s own, runs with the library's tests.  It changes nothing
under ``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("corpus", ["synth-dense", "synth-nat", "run-region", "analyze2-shipped"])
def test_first_item_of_each_corpus_runs_and_passes_the_gate(corpus):
    workloads = _workloads()
    item = workloads.CORPORA[corpus](1)[0]
    answer, detail = workloads.run_item(item)
    workloads.check(item, answer, detail)
