"""The benchmark's items still run and pass its correctness gate.

``perfbench/workloads.py`` builds the four corpora and imports library
names to do so, some of them private (``ClockSet``,
``_apply_guard_to_set``, ``_clockset_integerize``).  A rename in the
library breaks ``perfbench/run.py --trace 0``; this test, unlike
``perfbench``'s own, runs with the library's tests.  It also checks that
``jsonio.probe_to_json`` and the benchmark's copy of it,
``workloads.analyze2_payload``, build the same payload.  It changes
nothing under ``perfbench/``.
"""

import importlib
import sys
from dataclasses import replace
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


def test_probe_payload_matches_the_benchmark_copy():
    from importlib import resources

    from ptasynth import jsonio, parser, twoclock

    workloads = _workloads()
    base = resources.files("ptasynth").joinpath("data/twoone")
    models = sorted(f.name for f in base.iterdir() if f.name.endswith(".pta"))
    assert len(models) == 12
    reports = []
    for name in models:
        pta = parser.parse_model(base.joinpath(name).read_text())
        psi = parser.parse_property(base.joinpath(name[:-4] + ".prop").read_text(), pta)
        reports.append(twoclock.periodicity_probe(twoclock.validate_two_one(pta), psi,
                                                  workloads.PROBE_HORIZON))
    # every shipped model finds a progression; cover the other branch too
    assert all(r.found for r in reports)
    reports.append(replace(reports[0], found=None, counterexample_window=[True, False]))
    schema = jsonio.load_schema("probe")
    for report in reports:
        payload = jsonio.probe_to_json(report)
        jsonio.validate(payload, schema)
        assert payload == workloads.analyze2_payload(report)
