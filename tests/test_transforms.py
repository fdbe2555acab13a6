from ptasynth.constraints import AtomicConstraint
from ptasynth.expressions import Expression
from ptasynth.harness import (
    suite_invariant_folding,
    suite_negation,
    suite_property_encoding,
)
from ptasynth.model import (
    PropAnd,
    PropAtom,
    PropConst,
    PropLoc,
    PropNot,
    PropOr,
    SyntacticRun,
)
from ptasynth.parser import parse_model
from ptasynth.transforms import (
    classify_lu,
    encode_property,
    encode_run_property,
    invariants_to_guards,
    negate_property,
)


def test_encode_property_resolves_locations():
    assert encode_property(PropLoc("q1"), "q1") == PropConst(True)
    phi = PropAnd(PropLoc("q1"), PropAtom(AtomicConstraint("x", None, False,
                                                           Expression.param("p"))))
    out = encode_property(phi, "q2")
    assert out.left == PropConst(False)
    assert out.right == phi.right
    assert encode_property(PropNot(PropLoc("q1")), "q1") == PropNot(PropConst(True))


def test_encode_run_property_dnf_split(gate):
    run = SyntacticRun(gate, (0,))
    # final location matches: single branch, empty extra guard
    out = encode_run_property(run, PropLoc("q1"))
    assert len(out) == 1 and out[0].extra_final.is_true()
    # final location mismatch: no branches
    assert encode_run_property(run, PropLoc("q0")) == []
    # disjunction splits into one branch per disjunct
    phi = PropOr(PropAtom(AtomicConstraint("x", None, False, Expression.param("p"))),
                 PropAtom(AtomicConstraint(None, "x", False, Expression.constant(-3))))
    out = encode_run_property(run, phi)
    assert len(out) == 2
    assert [a.render() for a in out[0].extra_final] == ["x <= p"]
    assert [a.render() for a in out[1].extra_final] == ["-x <= -3"]


def test_invariants_to_guards_substitution():
    pta = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
loc q1 inv: y <= 3
edge q0 -> q1 : x <= p ; a ; reset y:=0
""")
    grun = invariants_to_guards(SyntacticRun(pta, (0,)))
    rendered = [a.render() for a in grun.steps[0].guard]
    # the reset makes the target invariant atom clock-free (0 <= 3)
    assert "x <= p" in rendered
    assert "0 <= 3" in rendered
    assert grun.initial_condition.is_true()


def test_invariants_to_guards_source_invariant():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: x <= p
loc q1 inv: true
edge q0 -> q1 : x >= 1 ; a ;
""")
    grun = invariants_to_guards(SyntacticRun(pta, (0,)))
    rendered = [a.render() for a in grun.steps[0].guard]
    assert "-x <= -1" in rendered and "x <= p" in rendered
    # initial condition is the invariant at the all-zero valuation
    assert [a.render() for a in grun.initial_condition] == ["0 <= p"]


def test_invariants_to_guards_partial_substitution():
    pta = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
loc q1 inv: x - y <= p
edge q0 -> q1 : true ; a ; reset x:=2
""")
    grun = invariants_to_guards(SyntacticRun(pta, (0,)))
    rendered = [a.render() for a in grun.steps[0].guard]
    assert "-y <= p - 2" in rendered


def test_negate_property_examples():
    atom = AtomicConstraint("x", None, False, Expression.param("p"))  # x <= p
    neg = negate_property(PropAtom(atom))
    assert neg.atom.render() == "-x < -p"
    both = negate_property(PropAnd(PropAtom(atom), PropLoc("q1")))
    assert isinstance(both, PropOr)
    assert negate_property(PropNot(PropAtom(atom))) == PropAtom(atom)


def test_negation_suite():
    report = suite_negation(5, 150)
    assert report.ok(), report.render()


def test_classify_lu_examples():
    pta = parse_model("""
clocks: x, y
params: p1, p2
loc q0 init inv: true
edge q0 -> q0 : x <= p1 + 3 & y >= p2 ; a ;
""")
    out = classify_lu(pta)
    assert out["upper"] == {"p1"}
    assert out["lower"] == {"p2"}
    assert out["is_lu"]

    mixed = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
edge q0 -> q0 : x <= p & y >= p ; a ;
""")
    out = classify_lu(mixed)
    assert out["both"] == {"p"}
    assert not out["is_lu"]

    free = parse_model("""
clocks: x
params: p
loc q0 init inv: true
edge q0 -> q0 : x <= 3 ; a ;
""")
    assert classify_lu(free)["is_lu"]


def test_classify_lu_order_invariance():
    text = """
clocks: x, y
params: p1, p2
loc q0 init inv: true
edge q0 -> q0 : %s ; a ;
edge q0 -> q0 : %s ; b ;
"""
    a = parse_model(text % ("x <= p1 & y >= p2", "x - y <= p1"))
    b = parse_model(text % ("x - y <= p1", "y >= p2 & x <= p1"))
    assert classify_lu(a) == classify_lu(b)


def test_property_encoding_equivalence_suite():
    report = suite_property_encoding(4, 120)
    assert report.ok(), report.render()


def test_invariant_folding_equivalence_suite():
    report = suite_invariant_folding(3, 150)
    assert report.ok(), report.render()
