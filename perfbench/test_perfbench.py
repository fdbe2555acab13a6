"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``.

They check that the generated corpora survive rendering, that the trace
sees every call the items make, and that its counts repeat exactly.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from ptasynth import parser  # noqa: E402
from ptasynth.model import (  # noqa: E402
    EXISTS_EVENTUALLY,
    FORALL_ALWAYS,
    TIME_DENSE,
    TIME_NAT,
    SystemProperty,
    render_system_property,
)

SEED = 20181217


def _generated_models():
    for time_domain in (TIME_DENSE, TIME_NAT):
        for _, pta, phi in workloads.synth_models(time_domain):
            yield pta, phi
    yield from workloads.run_region_models()


def test_rendered_corpus_parses_back_equal():
    for pta, phi in _generated_models():
        parsed = parser.parse_model(pta.render())
        assert parsed == pta
        for mode in (EXISTS_EVENTUALLY, FORALL_ALWAYS):
            psi = SystemProperty(mode, phi)
            assert parser.parse_property(render_system_property(psi), parsed) == psi


def test_polynomial_models_have_the_stated_edge_counts():
    lo, hi = workloads.POLY_EDGES
    for time_domain in (TIME_DENSE, TIME_NAT):
        counts = [len(pta.edges) for cls, pta, _ in workloads.synth_models(time_domain)
                  if cls == "poly"]
        assert counts and all(lo <= n <= hi for n in counts), counts


def test_corpus_is_a_function_of_the_seed():
    for name, make in workloads.CORPORA.items():
        assert make(SEED) == make(SEED), name
        assert sorted(make(SEED), key=repr) == sorted(make(SEED + 1), key=repr), name
        assert make(SEED) != make(SEED + 1), name


def _sample(corpus, n):
    step = max(1, len(corpus) // n)
    return corpus[::step][:n]


def _small_corpus():
    """A few items of every workload, the shipped models excepted: those
    alone take seconds."""
    items = []
    for name in ("synth-dense", "synth-nat", "run-region"):
        items += _sample(workloads.CORPORA[name](SEED), 8)
    items += [i for i in workloads.CORPORA["analyze2-shipped"](SEED)
              if i.label == "m01_upward_gate"]
    return items


@pytest.fixture(scope="module")
def small_corpus():
    return _small_corpus()


def _traced_pass(corpus):
    tracer = spans.Tracer()
    tracer.install()
    try:
        results = [tracer.span(spans.ITEM, workloads.run_item, item) for item in corpus]
    finally:
        tracer.uninstall()
    return tracer, results


def test_trace_counts_repeat_exactly():
    first, _ = _traced_pass(_small_corpus())
    second, _ = _traced_pass(_small_corpus())
    assert first.snapshot_counts() == second.snapshot_counts()
    for name in ("decomposition.linear.cells", "decomposition.cad1.cells",
                 "semantics.reach_discrete.states", "feasibility.calls",
                 "decomposition.integer_point.calls"):
        assert first.snapshot_counts().get(name, 0) > 0, name


def test_trace_sees_every_call(small_corpus):
    tracer, results = _traced_pass(small_corpus)
    counts = tracer.snapshot_counts()
    expected = {}
    for item, (answer, detail) in zip(small_corpus, results):
        for layer, n in workloads.expected_calls(item, answer, detail).items():
            expected[layer] = expected.get(layer, 0) + n
    for layer, n in expected.items():
        assert counts.get(layer + ".calls", 0) == n, layer


def test_synth_cells_are_the_decomposition_cells():
    corpus = _sample(workloads.CORPORA["synth-dense"](SEED), 6)
    tracer, results = _traced_pass(corpus)
    counts = tracer.snapshot_counts()
    cells = sum(len(region.cells) for _, region in results)
    assert counts.get("decomposition.linear.cells", 0) + \
        counts.get("decomposition.cad1.cells", 0) == cells


def test_uninstall_restores_the_library():
    from ptasynth import semantics, synthesis, twoclock

    before = (semantics.decide, synthesis.decide, twoclock.decide, synthesis.synthesize)
    tracer = spans.Tracer()
    tracer.install()
    assert synthesis.decide is not before[1] and twoclock.decide is not before[2]
    tracer.uninstall()
    assert (semantics.decide, synthesis.decide, twoclock.decide,
            synthesis.synthesize) == before


def test_benchmark_json_names_every_metric(small_corpus):
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.CORPORA) \
        == sorted(run.WORKLOADS)
    corpus = small_corpus[:3]
    e2e, _, _, _, wrong = run.end_to_end(workloads, corpus, 0)
    assert not wrong
    assert set(e2e) | {"setup_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}
    layers, _, _, _, wrong = run.per_layer(workloads, corpus, 0)
    assert not wrong
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"]


def test_a_failing_item_is_counted_and_named(small_corpus):
    import run

    bad = workloads.Item("synth", "broken", "clocks: x\nloc q0 init inv: y <= 1\n", "EF q0")
    metrics, info, attempted, failed, wrong = run.end_to_end(workloads, [bad] + small_corpus[:1], 0)
    assert (attempted, len(failed), wrong) == (6, 3, [])
    assert failed[0].startswith("broken: ParseError")
    assert metrics["completed_frac"]["value"] == 0.5


def test_analyze2_gate_compares_with_the_reference(small_corpus):
    """A wrong verdict that the progression does not cover passes the
    self-consistency checks; the recorded reference catches it."""
    import dataclasses

    item = next(i for i in small_corpus if i.kind == "analyze2")
    answer, report = workloads.run_item(item)
    workloads.check(item, answer, report)
    flipped = list(report.verdicts)
    flipped[0] = not flipped[0]
    assert flipped[0] and report.s1 > 0
    with pytest.raises(workloads.GateError, match="reference"):
        workloads.check(item, answer, dataclasses.replace(report, verdicts=flipped))


def test_setups_between_passes_leave_the_answers_alone():
    """A set-up between passes re-imports the library; the passes must go
    on with the first import's classes (algebraic samples of polynomial
    items fail when two imports mix)."""
    import run

    corpus = [i for i in workloads.CORPORA["synth-dense"](SEED) if "poly" in i.label][:4]
    times = []
    _, _, _, failed, wrong = run.end_to_end(
        workloads, corpus, 0, lambda: times.append(run.time_setup("synth-dense", SEED)))
    assert (failed, wrong) == ([], [])
    assert len(times) == run.MIN_PASSES and all(t > 0 for t in times)


def test_usual_is_the_90th_percentile_by_nearest_rank():
    import run

    assert run.usual([3.0]) == 3.0
    assert run.usual([4.0, 1.0, 3.0, 2.0]) == 4.0
    assert run.usual([float(x) for x in range(20, 0, -1)]) == 18.0


def test_short_analyze2_items_repeat_within_a_pass(small_corpus):
    import run

    item = next(i for i in small_corpus if i.kind == "analyze2")
    _, info, attempted, failed, wrong = run.end_to_end(workloads, [item], 0)
    assert (failed, wrong) == ([], [])
    assert info["fewest_timings"] == attempted > run.MIN_PASSES
