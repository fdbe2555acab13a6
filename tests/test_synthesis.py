import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ptasynth.decomposition import (
    canonical_planes,
    decompose_1d,
    decompose_linear,
    integer_point,
    project_clock,
    random_point_in_cell1d,
)
from ptasynth.feasibility import compile_run, feasible_with_reset, run_comparisons
from ptasynth.harness import (
    int_grid,
    rand_pta_one_clock,
    rand_state_property,
    suite_synthesis_oracle,
)
from ptasynth.jsonio import dumps, region_to_json, scalar_to_json
from ptasynth.model import (
    PropConst,
    PropLoc,
    SystemProperty,
    SyntacticRun,
    UnsupportedError,
)
from ptasynth import decomposition, synthesis
from ptasynth.parser import parse_expression, parse_model, parse_property
from ptasynth.polynomials import AlgebraicNumber
from ptasynth.semantics import compile_check, decide
from ptasynth.synthesis import (
    FeasibleRegion,
    _atom_pool,
    _comparisons,
    _decide_cells,
    _reset_constants,
    enumerate_runs,
    region_query,
    run_region,
    synthesize,
)
from ptasynth.transforms import encode_run_property, invariants_to_guards


def g(p):
    return {"p": Fraction(p)}


@pytest.mark.parametrize("time_domain", ["dense", "nat"])
def test_cad1_projection_equals_linear_planes(time_domain):
    # both decompositions read one list of comparisons; for one linear
    # parameter, the primitive polynomials cad1 splits at and the canonical
    # hyperplanes of the linear path are the same, so the two
    # normalisations agree (nat-time shift of strict bounds included)
    rng = random.Random(7)
    for _ in range(25):
        pta = rand_pta_one_clock(rng, 1, time_domain, "int" if time_domain == "nat" else "real")
        psi = SystemProperty("EF", rand_state_property(rng, pta))
        exprs = _comparisons(_atom_pool(pta, psi), _reset_constants(pta), time_domain == "nat")
        projected = {(f[1], f[0])
                     for f in project_clock([(e.univariate(pta.params[0]),) for e in exprs])}
        assert projected == set(canonical_planes(exprs, pta.params))


def test_synthesize_gate_region(gate, gate_ef):
    region = synthesize(gate, gate_ef, time_domain="dense", param_domain="real")
    # feasible exactly on {2} union (2, inf)
    assert region_query(region, g(2)) is True
    assert region_query(region, g(Fraction(199, 100))) is False
    assert region_query(region, g(3)) is True
    assert region_query(region, g(0)) is False
    assert not region.is_empty()


def test_synthesize_duality(gate):
    ef = parse_property("EF q1", gate)
    ag = parse_property("AG (!q1)", gate)
    r1 = synthesize(gate, ef, time_domain="dense")
    r2 = synthesize(gate, ag, time_domain="dense")
    for value in (Fraction(-1), Fraction(0), Fraction(2), Fraction(5, 2), Fraction(9)):
        assert region_query(r2, {"p": value}) == (not region_query(r1, {"p": value}))


def test_synthesize_parameter_free_reachability():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= 1 ; a ;
""")
    psi = parse_property("EF q1", pta)
    region = synthesize(pta, psi, time_domain="dense")
    assert all(cv.verdict for cv in region.cells)


def test_synthesize_polynomial_region(square_gate):
    psi = parse_property("EF q1", square_gate)
    region = synthesize(square_gate, psi, time_domain="dense")
    assert region.method == "cad1"
    # feasible iff p^2 >= 2
    assert region_query(region, g(2)) is True
    assert region_query(region, g(-2)) is True
    assert region_query(region, g(1)) is False
    assert region_query(region, g(Fraction(3, 2))) is True
    # the two irrational point cells decide positively (closed bound)
    point_cells = [cv for cv in region.cells if cv.cell.kind == "point"
                   and not isinstance(cv.cell.sample, Fraction)]
    assert len(point_cells) == 2
    assert all(cv.verdict for cv in point_cells)


def test_synthesize_rejects_two_parametric_clocks():
    pta = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
edge q0 -> q0 : x <= p & y <= p ; a ;
""")
    psi = parse_property("EF q0", pta)
    with pytest.raises(UnsupportedError) as err:
        synthesize(pta, psi)
    assert "two-clock" in str(err.value)


def test_synthesize_rejects_concrete_sidecar_clock():
    pta = parse_model("""
clocks: x, z
params: p
loc q0 init inv: true
edge q0 -> q0 : x <= p & z <= 3 ; a ;
""")
    psi = parse_property("EF q0", pta)
    with pytest.raises(UnsupportedError):
        synthesize(pta, psi)


def test_synthesize_polynomial_needs_single_param():
    pta = parse_model("""
clocks: x
params: p, q
loc q0 init inv: true
edge q0 -> q0 : x <= p*q ; a ;
""")
    psi = parse_property("EF q0", pta)
    with pytest.raises(UnsupportedError) as err:
        synthesize(pta, psi)
    assert str(err.value) == "polynomial expressions are supported with exactly one parameter"
    with pytest.raises(UnsupportedError) as err:
        run_region(pta, SyntacticRun(pta, (0,)), psi.phi)
    assert str(err.value) == "polynomial expressions are supported with exactly one parameter"


def test_run_region_validates_the_thresholds_it_does_not_compare():
    # x >= p*q is a lower bound with no upper bound after it: run_region
    # compares it with nothing, and still refuses it
    pta = parse_model("""
clocks: x
params: p, q
loc q0 init inv: true
edge q0 -> q0 : x >= p*q ; a ;
""")
    with pytest.raises(UnsupportedError) as err:
        run_region(pta, SyntacticRun(pta, (0,)), parse_property("EF q0", pta).phi)
    assert str(err.value) == "polynomial expressions are supported with exactly one parameter"


@pytest.mark.parametrize("guard, synth_message", [
    ("x - y <= p", "model has 2 parametric clocks; the synthesis pipeline handles one "
                   "(see the two-clock analysis for the two-clock, one-parameter case)"),
    ("x - y <= 3", "synthesis supports a single constrained clock")])
def test_difference_atoms_are_refused_before_any_comparison(guard, synth_message):
    # synthesize refuses a guard on two clocks by its clocks, run_region
    # when it splits the guard; neither lists comparisons first
    pta = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : %s ; a ;
""" % guard)
    psi = parse_property("EF q1", pta)
    with pytest.raises(UnsupportedError) as err:
        synthesize(pta, psi)
    assert str(err.value) == synth_message
    with pytest.raises(UnsupportedError) as err:
        run_region(pta, SyntacticRun(pta, (0,)), psi.phi)
    assert str(err.value) == "two-clock atom %s in a one-clock guard" % guard.replace(" - ", "-")


def test_nat_time_with_real_parameters_is_refused_first():
    # two parameters and a nonlinear lower bound that no comparison of
    # run_region reads: both entry points still refuse the domains first
    pta = parse_model("""
clocks: x
params: p, q
domain: time=nat param=real
loc q0 init inv: true
edge q0 -> q0 : x >= p*q ; a ;
""")
    psi = parse_property("EF q0", pta)
    for refused in (lambda: synthesize(pta, psi),
                    lambda: run_region(pta, SyntacticRun(pta, (0,)), psi.phi)):
        with pytest.raises(UnsupportedError) as err:
            refused()
        assert str(err.value) == (
            "synthesis in nat time needs int or nat parameters: nat-time verdicts "
            "are not constant on the cells of real parameters")


RESET_RUN = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: true
edge q0 -> q1 : x > p + 1 & x <= 3*p ; a ; reset x:=1
edge q1 -> q2 : x < p + 5 ; b ;
"""


@pytest.mark.parametrize("time_domain, expected", [
    ("dense", ["3*p", "2*p - 1", "p + 5", "p + 4"]),
    ("nat", ["3*p", "2*p - 2", "p + 4", "p + 3"])])
def test_run_comparisons_are_uppers_against_zero_lowers_and_segment_starts(
        time_domain, expected):
    # step 1's upper bound 3p against 0 and against its lower bound p + 1;
    # step 2's upper bound p + 5 against 0 and against the reset value 1
    # that starts its segment.  No lower bound against 0, the reset value
    # or another bound, and no upper bound against another upper bound.
    # In nat time x > p + 1 is x >= p + 2 and x < p + 5 is x <= p + 4
    pta = parse_model(RESET_RUN)
    [branch] = [invariants_to_guards(er)
                for er in encode_run_property(SyntacticRun(pta, (0, 1)), PropConst(True))]
    got = run_comparisons(compile_run(branch, time_domain))
    assert got == {parse_expression(text, {"p"}) for text in expected}


NAT_TIME_REAL_PARAM = """
clocks: x
params: p
domain: time=nat param=real
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= p & x <= p ; a ;
"""


def test_synthesis_rejects_nat_time_with_real_parameters():
    # x = p with x a natural number holds exactly at natural p, which no
    # cell of the real line keeps constant: p = 1 is sat, p = 3/2 unsat
    pta = parse_model(NAT_TIME_REAL_PARAM)
    psi = parse_property("EF q1", pta)
    with pytest.raises(UnsupportedError) as err:
        synthesize(pta, psi)
    assert "nat time needs int or nat parameters" in str(err.value)
    with pytest.raises(UnsupportedError):
        run_region(pta, SyntacticRun(pta, (0,)), psi.phi)
    # single valuations stay exact
    program = compile_check(pta, psi)
    assert decide(program, g(1)).satisfied
    assert not decide(program, g(Fraction(3, 2))).satisfied
    # int parameters, dense time and parameter-free models still synthesize
    assert synthesize(pta, psi, param_domain="int").method == "cad1"
    assert synthesize(pta, psi, time_domain="dense").method == "cad1"
    free = parse_model(NAT_TIME_REAL_PARAM.replace("params: p\n", "")
                       .replace("x >= p & x <= p", "x >= 2 & x <= 2"))
    assert not synthesize(free, parse_property("EF q1", free)).is_empty()


def test_parameter_count_picks_the_decomposition(gate, square_gate, two_param):
    for pta, method in ((gate, "cad1"), (square_gate, "cad1"), (two_param, "linear")):
        psi = parse_property("EF %s" % pta.locations[-1], pta)
        assert synthesize(pta, psi).method == method
        assert run_region(pta, SyntacticRun(pta, (0,)), psi.phi).method == method


def linear_reference(pta, psi):
    """The region one parameter got over the hyperplane arrangement before
    the parameter count alone picked the decomposition."""
    domain, pdomain = pta.time_domain, pta.param_domain
    exprs = _comparisons(_atom_pool(pta, psi), _reset_constants(pta), domain == "nat")
    cells = decompose_linear(exprs, pta.params)
    program = compile_check(pta, psi, domain)
    verdicts = _decide_cells(cells, pta.params,
                             lambda gamma: decide(program, gamma).satisfied,
                             domain, pdomain, integer_point)
    return FeasibleRegion(pta.params, "linear", verdicts, psi, domain, pdomain)


@pytest.mark.parametrize("time_domain, param_domain", [
    ("dense", "real"), ("dense", "int"), ("nat", "int"), ("nat", "nat")])
def test_one_parameter_cad1_equals_linear_reference(time_domain, param_domain):
    rng = random.Random(17)
    grid = int_grid(1, 0 if param_domain == "nat" else -5, 20)
    for _ in range(12):
        pta = rand_pta_one_clock(rng, 1, time_domain, param_domain)
        for mode in ("EF", "AG"):
            psi = SystemProperty(mode, rand_state_property(rng, pta))
            region, reference = synthesize(pta, psi), linear_reference(pta, psi)
            assert region.method == "cad1"
            assert len(region.cells) == len(reference.cells)
            for cv in reference.cells:
                gamma = dict(zip(pta.params, cv.cell.sample))
                assert region_query(region, gamma) == cv.verdict, gamma
            for gamma in grid:
                assert region_query(region, gamma) == region_query(reference, gamma), gamma


def test_enumerate_runs_examples(gate):
    runs = enumerate_runs(gate, 1)
    assert [r.edge_indices for r in runs] == [(), (0,)]

    loop = parse_model("""
clocks: x
params: p
loc q0 init inv: true
edge q0 -> q0 : true ; a ;
""")
    assert len(enumerate_runs(loop, 3)) == 4

    twin = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : true ; a ;
edge q0 -> q1 : true ; b ;
""")
    assert len(enumerate_runs(twin, 1)) == 3


def test_run_region_examples(gate):
    tau = SyntacticRun(gate, (0,))
    region = run_region(gate, tau, PropConst(True), time_domain="dense")
    # realizable exactly on [2, inf)
    assert region_query(region, g(2)) is True
    assert region_query(region, g(3)) is True
    assert region_query(region, g(1)) is False

    eps = SyntacticRun(gate, ())
    region_eps = run_region(gate, eps, PropLoc("q0"), time_domain="dense")
    for v in (-3, 0, 5):
        assert region_query(region_eps, g(v)) is True

    chain = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: true
edge q0 -> q1 : x >= 3 ; a ;
edge q1 -> q2 : x <= p ; b ;
""")
    tau2 = SyntacticRun(chain, (0, 1))
    region2 = run_region(chain, tau2, PropConst(True), time_domain="dense")
    assert region_query(region2, g(2)) is False
    assert region_query(region2, g(3)) is True
    assert region_query(region2, g(10)) is True


def test_run_region_union_under_approximates_on_acyclic_model(two_param):
    # acyclic model, location property: once every path is enumerated the
    # union of run regions equals the synthesized region
    psi = SystemProperty("EF", PropLoc("q2"))
    region = synthesize(two_param, psi, time_domain="dense")
    runs = enumerate_runs(two_param, 2)
    run_regions = [run_region(two_param, tau, psi.phi, time_domain="dense")
                   for tau in runs]
    for point in int_grid(2, -3, 8):
        gamma = {"p1": point["p1"], "p2": point["p2"]}
        whole = region_query(region, gamma)
        union = any(region_query(rr, gamma) for rr in run_regions)
        assert union == whole, gamma


def test_cell_verdict_stability_dense():
    # random rational points inside each cell decide like the cell's sample
    rng = random.Random(31)
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: x <= p
loc q1 inv: true
edge q0 -> q1 : x >= 2 & x <= p ; a ; reset x:=1
edge q1 -> q1 : x >= 3 ; b ;
""")
    psi = parse_property("EF (q1 && x <= p)", pta)
    region = synthesize(pta, psi, time_domain="dense")
    program = compile_check(pta, psi, "dense")
    for cv in region.cells:
        for _ in range(20):
            gamma = {"p": random_point_in_cell1d(cv.cell, rng)}
            assert decide(program, gamma).satisfied == cv.verdict


def test_synthesis_oracle_suite_reduced():
    report = suite_synthesis_oracle(8, 30)
    assert report.ok(), report.render()


def test_synthesize_nat_time_polynomial_shifts_strict_bounds():
    # 2p > x > p has an integer solution iff p >= 2; the projection must
    # compare the strict bounds in their nat-time form x >= p + 1, x <= 2p - 1
    pta = parse_model("""
clocks: x
params: p
domain: time=nat param=int
loc q0 init inv: true
loc q1 inv: x <= p^2 + 50
edge q0 -> q1 : x > p & x < 2*p ; a ;
""")
    psi = parse_property("EF q1", pta)
    region = synthesize(pta, psi)
    assert region.method == "cad1"
    program = compile_check(pta, psi)
    for p in range(-5, 21):
        assert region_query(region, g(p)) == decide(program, g(p)).satisfied, p
    assert region_query(region, g(2)) is True


def test_run_region_nat_time_one_param_shifts_strict_bounds():
    pta = parse_model("""
clocks: x
params: p1
domain: time=nat param=int
loc q0 init inv: true
loc q1 inv: x < -2*p1 - 4
loc q2 inv: true
edge q0 -> q2 : -x < -p1 - 1 ; a0 ;
edge q1 -> q1 : -x <= -p1 + 1 ; a1 ;
edge q2 -> q2 : -x <= -2*p1 + 2 ; a2 ; reset x:=1
""")
    psi = parse_property("EF (q1 || x < 2*p1 + 1)", pta)
    region = run_region(pta, SyntacticRun(pta, (0,)), psi.phi)
    assert region.method == "cad1"
    # at p1 = 2 the run reaches q2 with x = 4 < 2*p1 + 1
    assert region_query(region, {"p1": Fraction(2)}) is True


ROOTS_DENSE = """
clocks: x
params: p1
loc q0 init inv: true
loc q1 inv: true
edge q1 -> q1 : -x <= -p1^3 + 3*p1^2 + p1 - 2 & x < p1^2 - 1 ; a0 ; reset x:=1
edge q0 -> q0 : x <= p1^2 - p1 + 1 & -x <= -p1 ; a1 ;
"""

ROOTS_NAT = """
clocks: x
params: p1
domain: time=nat param=int
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: x < -2*p1 - 4
edge q2 -> q2 : x < -p1^2 + 2*p1 - 1 ; a0 ; reset x:=0
edge q1 -> q1 : -x <= -p1 ; a1 ; reset x:=1
edge q2 -> q1 : x <= p1^2 + 3*p1 + 2 & -x <= p1^2 + 3*p1 ; a2 ;
edge q0 -> q2 : x <= p1 ; a3 ;
"""


@pytest.mark.parametrize("text, prop", [(ROOTS_DENSE, "EF (-x <= 3 && (q0 && q1))"),
                                        (ROOTS_NAT, "EF q1")], ids=["dense", "nat"])
def test_region_json_endpoints_are_the_isolated_intervals(text, prop):
    # deciding a cell, and finding its integer point, compare at its roots;
    # the printed endpoints must still be the intervals decompose_1d isolated
    pta = parse_model(text)
    psi = parse_property(prop, pta)
    region = synthesize(pta, psi)
    assert region.method == "cad1"
    got = [c["endpoints"] for c in region_to_json(region)["cells"]]
    nat = pta.time_domain == "nat"
    exprs = _comparisons(_atom_pool(pta, psi), _reset_constants(pta), nat)
    fresh = decompose_1d(project_clock([(e.univariate("p1"),) for e in exprs]))
    assert got == [[scalar_to_json(c.lo), scalar_to_json(c.hi)] for c in fresh]
    assert any(isinstance(end, dict) for pair in got for end in pair)


LINEAR2 = """
clocks: x
params: p1, p2
domain: time=nat param=int
loc q0 init inv: true
loc q1 inv: x <= p2
loc q2 inv: true
edge q0 -> q1 : x > p1 ; a ; reset x:=0
edge q1 -> q2 : x >= 1 & x <= p2 - p1 ; b ;
"""


@pytest.mark.parametrize("text, prop, golden", [
    (ROOTS_DENSE, "EF (-x <= 3 && (q0 && q1))", "region_roots_dense.json"),
    (ROOTS_NAT, "EF q1", "region_roots_nat.json"),
    (LINEAR2, "EF q2", "region_linear2.json")], ids=["dense", "nat", "linear2"])
def test_region_json_is_pinned(text, prop, golden):
    # the exact region JSON, every isolating interval of every root
    # included: a change in how roots are isolated or refined shows here
    pta = parse_model(text)
    region = synthesize(pta, parse_property(prop, pta))
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    assert dumps(region_to_json(region)) == expected


RUN_ROOTS = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: x <= p^2
loc q2 inv: true
edge q0 -> q1 : x > 1 & x <= p^2 ; a ; reset x:=1
edge q1 -> q2 : x >= 3 & x <= 2*p^2 - 3 & x <= 6 - p^2 ; b ;
"""


@pytest.mark.parametrize("time_domain, param_domain", [("dense", "real"), ("nat", "int")])
def test_run_region_json_at_irrational_point_cells_is_pinned(time_domain, param_domain):
    # the run reaches q2 only at p = -sqrt(3) and p = sqrt(3), where the
    # bounds 3, 2*p^2 - 3 and 6 - p^2 meet: the feasibility check decides
    # those point cells at exact algebraic values
    pta = parse_model(RUN_ROOTS)
    tau = SyntacticRun(pta, (0, 1))
    region = run_region(pta, tau, parse_property("EF q2", pta).phi, time_domain, param_domain)
    hits = [cv.cell for cv in region.cells if cv.verdict]
    assert len(hits) == 2
    assert all(c.kind == "point" and c.lo.poly == (-3, 0, 1) for c in hits)
    golden = Path(__file__).parent / "golden" / ("run_region_roots_%s.json" % time_domain)
    assert dumps(region_to_json(region)) == golden.read_text()


def full_pool_run_region(pta, tau, phi, time_domain=None, param_domain=None):
    """``run_region`` decomposed over every pair of its branches' thresholds
    and reset values, as before it compared only what its compiled check
    reads: the reference."""
    domain = time_domain or pta.time_domain
    pdomain = param_domain or pta.param_domain
    branches = [invariants_to_guards(er) for er in encode_run_property(tau, phi)]
    atoms, resets = [], _reset_constants(pta)
    for br in branches:
        atoms.extend(br.initial_condition.conjuncts)
        for st in br.steps:
            atoms.extend(st.guard.conjuncts)
            resets.extend(st.updates.values())
    programs = [compile_run(br, domain) for br in branches]

    def decide_at(gamma):
        return any(feasible_with_reset(program, gamma, witness=False).feasible
                   for program in programs)

    exprs = _comparisons(atoms, resets, domain == "nat")
    return synthesis._region(pta.params, exprs, decide_at, None, domain, pdomain)


@pytest.mark.parametrize("time_domain, param_domain, golden", [
    ("dense", "real", "run_region_roots_dense.json"),
    ("nat", "int", "run_region_full_pool_nat.json")], ids=["dense", "nat"])
def test_full_pool_reference_is_the_every_pair_pipeline(time_domain, param_domain, golden):
    # the reference reproduces, byte for byte, the regions run_region gave
    # when it compared every pair (dense time gives the same bytes now too)
    pta = parse_model(RUN_ROOTS)
    tau = SyntacticRun(pta, (0, 1))
    region = full_pool_run_region(pta, tau, parse_property("EF q2", pta).phi,
                                  time_domain, param_domain)
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    assert dumps(region_to_json(region)) == expected


@pytest.mark.parametrize("time_domain, param_domain", [("dense", "real"), ("nat", "int")])
def test_the_pipeline_computes_no_resultant(time_domain, param_domain, monkeypatch):
    # every comparison is already a clock-free threshold difference, so
    # neither synthesize nor run_region projects a clock out; catches a
    # pool that goes back to resultants of x - a and x - b
    resultant = decomposition.sylvester_resultant_x
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return resultant(f, g)

    monkeypatch.setattr(decomposition, "sylvester_resultant_x", counted)
    project_clock([((0, -1), (1,)), ((-3,), (1,))])
    assert len(calls) == 3                 # the counter sees the projection
    calls.clear()
    pta = parse_model(ROOTS_NAT)
    region = synthesize(pta, parse_property("EF q1", pta), time_domain, param_domain)
    assert region.method == "cad1" and len(region.cells) > 1
    pta = parse_model(RUN_ROOTS)
    region = run_region(pta, SyntacticRun(pta, (0, 1)), parse_property("EF q2", pta).phi,
                        time_domain, param_domain)
    assert region.method == "cad1" and len(region.cells) > 1
    assert calls == []


@pytest.mark.parametrize("time_domain, param_domain, n_params", [
    ("dense", "real", 1), ("nat", "int", 1), ("nat", "nat", 1),
    ("dense", "real", 2), ("nat", "int", 2), ("nat", "nat", 2)])
def test_run_region_agrees_with_the_full_pool_reference(time_domain, param_domain, n_params):
    # fewer comparisons, same region: every integer point of a box (and
    # random rationals in dense time) falls in cells of the same verdict,
    # with at most as many cells as the reference
    rng = random.Random(2020 + 10 * n_params + len(time_domain + param_domain))
    lo = 0 if param_domain == "nat" else (-12 if n_params == 1 else -6)
    hi = 40 if n_params == 1 else 12
    box = int_grid(n_params, lo, hi - 1)
    fewer = 0
    for _ in range(25):
        pta = rand_pta_one_clock(rng, n_params, time_domain, param_domain)
        phi = rand_state_property(rng, pta)
        for tau in enumerate_runs(pta, 3):
            region = run_region(pta, tau, phi)
            reference = full_pool_run_region(pta, tau, phi)
            assert len(region.cells) <= len(reference.cells)
            fewer += len(region.cells) < len(reference.cells)
            points = list(box)
            if time_domain == "dense":
                points += [{p: Fraction(rng.randint(-240, 800), rng.randint(1, 20))
                            for p in pta.params} for _ in range(30)]
            for gamma in points:
                assert region_query(region, gamma) == region_query(reference, gamma), \
                    (pta.render(), tau.edge_indices, gamma)
    assert fewer


def test_run_region_leaves_out_what_the_check_never_reads():
    # the lower bounds p and 2*p - 3 are compared with the upper bound 6
    # only: not with each other (root 3), with 0 (roots 0 and 3/2) or with
    # the reset value 4, which starts an empty last segment (roots 4 and
    # 7/2); so 2 roots, 9/2 and 6, where the reference has 7
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: true
edge q0 -> q1 : x >= p & x >= 2*p - 3 ; a ;
edge q1 -> q2 : x <= 6 ; b ; reset x:=4
""")
    tau = SyntacticRun(pta, (0, 1))
    phi = parse_property("EF q2", pta).phi
    region = run_region(pta, tau, phi, "dense", "real")
    assert len(region.cells) == 5
    assert [c.cell.lo for c in region.cells[1::2]] == [Fraction(9, 2), 6]
    assert len(full_pool_run_region(pta, tau, phi, "dense", "real").cells) == 15
    assert [cv.verdict for cv in region.cells] == [True, True, False, False, False]


def scan_verdict(region, point):
    """The verdict of the cell that contains the point, by scanning every cell."""
    hits = [cv.verdict for cv in region.cells if cv.cell.contains(point)]
    assert len(hits) == 1
    return hits[0]


@pytest.mark.parametrize("text, n_roots", [
    ("edge q0 -> q1 : x >= p^2 - 1 & x <= 3*p - 3 ; a ;", 3),
    ("edge q0 -> q1 : x >= 2 & x <= p^2 ; a ;\nedge q1 -> q1 : x < p^2 - p - 1 ; b ;", 8),
    ("edge q0 -> q1 : x <= p^2 + 1 ; a ;", 0),
], ids=["rational-roots", "irrational-roots", "no-roots"])
def test_region_query_cad1_bisects_the_roots(text, n_roots):
    # queries at every rational root, at a point between each pair of
    # neighbouring roots and beyond both ends (the interval samples), far
    # out, and between sqrt(2) and its neighbours
    pta = parse_model("clocks: x\nparams: p\nloc q0 init inv: true\nloc q1 inv: true\n" + text)
    for prop in ("EF q1", "AG q0"):
        region = synthesize(pta, parse_property(prop, pta))
        assert region.method == "cad1" and len(region.cells) == 2 * n_roots + 1
        queries = {Fraction(-100), Fraction(100), Fraction(7, 5), Fraction(3, 2)}
        queries.update(cv.cell.sample for cv in region.cells
                       if isinstance(cv.cell.sample, Fraction))
        for value in queries:
            assert region_query(region, g(value)) == scan_verdict(region, value), value


def test_region_query_linear_matches_cell_scan():
    rng = random.Random(5)
    points = [(Fraction(a, 2), Fraction(b, 3)) for a in range(-7, 16, 3) for b in range(-8, 25, 5)]
    checked = 0
    for _ in range(12):
        pta = rand_pta_one_clock(rng, 2, "dense", "real", n_locs=3, n_edges=4)
        psi = SystemProperty("EF", rand_state_property(rng, pta))
        region = synthesize(pta, psi)
        assert region.method == "linear"
        for point in points:
            gamma = dict(zip(region.params, point))
            assert region_query(region, gamma) == scan_verdict(region, point), point
            checked += 1
    assert checked == 12 * len(points)


def test_region_query_equals_cell_lookup_on_synth_pools(synth_pools):
    # random integer (some as ints) and rational points, and for 1D
    # regions the integers and rationals next to every root; catches a root
    # key off by one, an integer root keyed as a non-integer one and a
    # plane sign taken at a wrongly scaled point
    rng = random.Random(13)
    queried = 0
    for _, _, pta, phi in synth_pools:
        region = synthesize(pta, SystemProperty("EF", phi))
        points = [tuple(rng.randint(-8, 24) if rng.random() < 0.5 else
                        Fraction(rng.randint(-80, 240), rng.randint(1, 12)) for _ in pta.params)
                  for _ in range(6)]
        if region.method == "cad1":
            for cv in region.cells[1::2]:
                root = cv.cell.lo
                near = root if isinstance(root, Fraction) else (root.lo + root.hi) / 2
                floor = math.floor(near)
                points += [(floor,), (Fraction(floor + 1),), (near,), (near + Fraction(1, 7),)]
        for point in points:
            gamma = dict(zip(region.params, point))
            want = scan_verdict(region, Fraction(point[0]) if region.method == "cad1" else
                                tuple(map(Fraction, point)))
            assert region_query(region, gamma) == want, (pta.render(), point)
            queried += 1
    assert queried >= 1000


TIE_MODEL = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= p^2 & x <= 2 & x >= 2 ; a ;
"""


def test_point_cell_where_two_thresholds_tie():
    # only x = 2 passes the guard, and only when p^2 <= 2: at p = -sqrt(2)
    # the thresholds p^2 and 2 tie, so the point cell is sat while its left
    # neighbour is not.  Catches a point cell decided on its neighbour's
    # ranks without merging the tie
    pta = parse_model(TIE_MODEL)
    for prop, inside in (("EF q1", True), ("AG q0", False)):
        region = synthesize(pta, parse_property(prop, pta))
        verdicts = [(cv.cell.kind, cv.verdict) for cv in region.cells]
        assert verdicts == [("interval", not inside), ("point", inside), ("interval", inside),
                            ("point", inside), ("interval", inside), ("point", inside),
                            ("interval", not inside)], prop
        root = region.cells[1].cell.sample
        assert isinstance(root, AlgebraicNumber) and root.poly == (-2, 0, 1) and root < 0
        program = compile_check(pta, parse_property(prop, pta))
        for cv in region.cells:
            bare = cv.cell.sample
            if isinstance(bare, AlgebraicNumber):
                bare = AlgebraicNumber(bare.poly, bare.lo, bare.hi)
            assert decide(program, {"p": bare}).satisfied == cv.verdict
