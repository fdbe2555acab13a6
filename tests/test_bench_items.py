"""The benchmark's items still run and pass its correctness gate.

``perfbench/workloads.py`` builds the four corpora and imports library
names to do so, some of them private (``ClockSet``,
``_apply_guard_to_set``, ``_clockset_integerize``).  A rename in the
library breaks ``perfbench/run.py --trace 0``; this test, unlike
``perfbench``'s own, runs with the library's tests.  It also checks that
``jsonio.probe_to_json`` and the benchmark's copy of it,
``workloads.analyze2_payload``, build the same payload, and runs every
``analyze2-shipped`` item, whose payload must equal the one recorded in
``perfbench/analyze2_reference.json``.  It changes nothing under
``perfbench/``.
"""

import importlib
import json
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


def test_every_analyze2_item_passes_the_gate_and_matches_the_reference():
    # the analyze2-shipped items are few and fast: all twelve run, and the
    # library's own payload builder gives the recorded verdicts and
    # progression of each
    from ptasynth import jsonio

    workloads = _workloads()
    reference = json.loads((PERFBENCH / "analyze2_reference.json").read_text())
    items = workloads.CORPORA["analyze2-shipped"](1)
    assert sorted(item.label for item in items) == sorted(reference)
    for item in items:
        answer, report = workloads.run_item(item)
        workloads.check(item, answer, report)
        assert jsonio.probe_to_json(report) == reference[item.label], item.label


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
