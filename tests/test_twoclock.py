from fractions import Fraction

import pytest

from ptasynth.harness import shipped_two_one_models, suite_periodicity, suite_twoclock_finders
from ptasynth.model import ConcreteRun, SyntacticRun, SystemProperty, PropLoc
from ptasynth.parser import parse_model
from ptasynth.semantics import compile_check, reach_discrete
from ptasynth.twoclock import (
    TwoOneError,
    find_oneP3_indices,
    find_oneP6_index,
    find_pigeonhole_pair,
    no_reset_threshold_check,
    periodicity_probe,
    pigeonhole_hypotheses_report,
    validate_two_one,
)

TWO_ONE = """
clocks: x, y
params: p
domain: time=nat param=nat
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: true
edge q0 -> q0 : true ; loop ; reset y:=0
edge q0 -> q1 : x <= p ; go ;
edge q1 -> q2 : -y <= 0 & y <= p ; fin ;
"""


@pytest.fixture
def two_one():
    return validate_two_one(parse_model(TWO_ONE))


def test_validate_accepts_difference_atom():
    pta = parse_model("""
clocks: x, y
params: p
domain: param=nat
loc q0 init inv: true
edge q0 -> q0 : x - y < p & x <= p & y <= p ; a ;
""")
    out = validate_two_one(pta)
    assert (out.clock_x, out.clock_y, out.param) == ("x", "y", "p")


def test_validate_rejects_coefficient_two():
    pta = parse_model("""
clocks: x, y
params: p
domain: param=nat
loc q0 init inv: true
edge q0 -> q0 : x <= 2*p & y <= p ; a ;
""")
    with pytest.raises(TwoOneError) as err:
        validate_two_one(pta)
    assert "exactly" in str(err.value)


def test_validate_rejects_third_parametric_clock():
    pta = parse_model("""
clocks: x, y, z
params: p
domain: param=nat
loc q0 init inv: true
edge q0 -> q0 : x <= p & y <= p & z <= p ; a ;
""")
    with pytest.raises(TwoOneError) as err:
        validate_two_one(pta)
    assert "two parametric clocks" in str(err.value)


def test_validate_rejects_equality_derived_atoms():
    pta = parse_model("""
clocks: x, y
params: p
domain: param=nat
loc q0 init inv: true
edge q0 -> q0 : x = p & y <= p ; a ;
""")
    with pytest.raises(TwoOneError) as err:
        validate_two_one(pta)
    assert "equality" in str(err.value)


def test_validate_allows_concrete_sidecar_clock():
    pta = parse_model("""
clocks: x, y, z
params: p
domain: param=nat
loc q0 init inv: z <= 3
edge q0 -> q0 : x <= p & y <= p & z >= 1 ; a ;
""")
    validate_two_one(pta)


def test_drift_finder_crossing_scan(two_one):
    # post-step x values 0, 5, 20, 40, 110: the scan finds 5 < 17 <= 20 and
    # 40 < 51 <= 110 (the last wait is long enough that the final lead
    # meets the 4*S0 hypothesis, which the finder checks first)
    gamma = {"p": Fraction(120)}
    run = ConcreteRun(((Fraction(5), 0), (Fraction(15), 0), (Fraction(20), 0),
                       (Fraction(70), 0), (Fraction(0), 1), (Fraction(0), 2)))
    s0 = 17
    w = find_oneP3_indices(two_one, run, gamma, s0)
    assert w is not None
    assert w.indices == (1, 3)
    assert w.all_clauses_hold()


def test_drift_finder_hypothesis_unmet(two_one):
    gamma = {"p": Fraction(9)}
    run = ConcreteRun(((Fraction(3), 0), (Fraction(0), 1), (Fraction(0), 2)))
    assert find_oneP3_indices(two_one, run, gamma, 17) is None


def test_joint_growth_finder(two_one):
    gamma = {"p": Fraction(80)}
    run = ConcreteRun(((Fraction(80), 1), (Fraction(0), 2)))
    s0, s1 = 17, 68
    w = find_oneP6_index(two_one, run, gamma, s0)
    assert w is not None and w.all_clauses_hold()


def test_pigeonhole_examples(two_one):
    gamma = {"p": Fraction(50)}
    loop_run = ConcreteRun(((Fraction(2), 0), (Fraction(3), 0), (Fraction(1), 0)))
    assert find_pigeonhole_pair(two_one, loop_run, gamma) == (1, 2)
    reset_free = ConcreteRun(((Fraction(2), 1), (Fraction(1), 2)))
    assert find_pigeonhole_pair(two_one, reset_free, gamma) is None


def test_pigeonhole_hypotheses_report(two_one):
    report = pigeonhole_hypotheses_report(
        two_one, ConcreteRun(((Fraction(2), 0), (Fraction(3), 0))), 50)
    assert report["gamma"] == 50
    assert len(report["steps"]) == 2
    assert isinstance(report["run_realizable_at_gamma_plus_one"], bool)


def test_no_reset_threshold_check_constant(two_one):
    tau = SyntacticRun(two_one.pta, (1, 2))  # go then fin, no resets
    report = no_reset_threshold_check(two_one, tau)
    assert report.premise_ok
    assert report.all_equal
    assert set(report.verdicts.values()) == {True}
    assert "capped" in report.clamp_note


def test_no_reset_threshold_check_premise_scan():
    pta = parse_model("""
clocks: x, y
params: p
domain: param=nat
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x - y > p & x <= p & y <= p ; a ;
""")
    two_one = validate_two_one(pta)
    report = no_reset_threshold_check(two_one, SyntacticRun(pta, (0,)))
    assert not report.premise_ok


def test_no_reset_threshold_check_rejects_resets(two_one):
    with pytest.raises(ValueError):
        no_reset_threshold_check(two_one, SyntacticRun(two_one.pta, (0,)))


def test_periodicity_blocked_gate():
    models = {name: (pta, psi) for name, pta, psi in shipped_two_one_models()}
    pta, psi = models["m02_blocked_gate"]
    rep = periodicity_probe(validate_two_one(pta), psi)
    assert rep.tail_constant_false
    assert rep.found == (rep.s1, 1)


def test_periodicity_constant_true():
    models = {name: (pta, psi) for name, pta, psi in shipped_two_one_models()}
    pta, psi = models["m01_upward_gate"]
    rep = periodicity_probe(validate_two_one(pta), psi)
    assert rep.found == (rep.s1, 1)
    assert not rep.tail_constant_false


def test_periodicity_even_pacer_has_period_two():
    models = {name: (pta, psi) for name, pta, psi in shipped_two_one_models()}
    pta, psi = models["m03_even_pacer"]
    rep = periodicity_probe(validate_two_one(pta), psi)
    assert rep.found is not None
    assert rep.found[1] == 2


def test_periodicity_determinism(two_one):
    psi = SystemProperty("EF", PropLoc("q2"))
    a = periodicity_probe(two_one, psi, 3)
    b = periodicity_probe(two_one, psi, 3)
    assert a.render() == b.render()
    assert a.horizon >= a.s1 + a.s0


def test_finder_suites_reduced():
    for report in suite_twoclock_finders(12, 80):
        assert report.ok(), report.render()


def test_periodicity_suite_all_models():
    report = suite_periodicity()
    assert report.cases >= 10
    assert report.ok(), report.render()


# Per shipped model: S0, S1, the probe's verdicts at p = 0..S1+3*S0, and the
# states the nat search finds over that sweep, summed (43,517 in all).
SHIPPED_SWEEPS = {
    "m01_upward_gate": (5, 20, "001111111111111111111111111111111111", 141),
    "m02_blocked_gate": (7, 28, "0" * 50, 197),
    "m03_even_pacer": (9, 36, "10" * 32, 4226),
    "m04_triple_pacer": (13, 52, "100" * 30 + "10", 7349),
    "m05_safety_window": (3, 12, "1" + "0" * 21, 65),
    "m06_drift_collector": (9, 36, "1" * 64, 8129),
    "m07_bounded_lead": (13, 52, "00" + "1" * 90, 826),
    "m08_two_phase": (9, 36, "000" + "1" * 61, 757),
    "m09_concrete_sidecar": (7, 28, "0" + "1" * 49, 149),
    "m10_alternating_safety": (9, 36, "01" * 32, 4226),
    "m11_late_window": (5, 20, "1" * 36, 702),
    "m12_reset_ladder": (13, 52, "1" * 92, 16750),
}


def test_shipped_sweeps_find_the_recorded_states():
    # the verdicts and the number of states each search finds are pinned;
    # catches a search that drops or adds a state (a pruning or successor
    # change) even where every verdict stays the same
    models = shipped_two_one_models()
    assert sorted(name for name, _, _ in models) == sorted(SHIPPED_SWEEPS)
    for name, pta, psi in models:
        s0, s1, verdicts, states = SHIPPED_SWEEPS[name]
        report = periodicity_probe(validate_two_one(pta), psi)
        assert (report.s0, report.s1) == (s0, s1), name
        assert "".join("1" if v else "0" for v in report.verdicts) == verdicts, name
        program = compile_check(pta, psi, "nat").reach
        found = sum(reach_discrete(program, {pta.params[0]: v}).info["states"]
                    for v in range(s1 + 3 * s0 + 1))
        assert found == states, name
    assert sum(states for *_, states in SHIPPED_SWEEPS.values()) == 43517
