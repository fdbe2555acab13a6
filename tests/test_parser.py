import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ptasynth.constraints import AtomicConstraint
from ptasynth.expressions import Expression
from ptasynth.harness import rand_pta_one_clock
from ptasynth.model import ModelError, PropAnd, PropAtom, PropLoc, PropNot
from ptasynth.parser import (
    ParseError,
    parse_constraint,
    parse_expression,
    parse_model,
    parse_property,
)


def test_gate_normalization(gate):
    assert len(gate.locations) == 2
    assert len(gate.edges) == 1
    atoms = gate.edges[0].guard.conjuncts
    assert atoms[0] == AtomicConstraint(None, "x", False, Expression.constant(-2))
    assert atoms[1] == AtomicConstraint("x", None, False, Expression.param("p"))


def test_equality_splits_into_two_atoms():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: true
edge q0 -> q0 : x = 3 ; a ;
""")
    atoms = pta.edges[0].guard.conjuncts
    assert len(atoms) == 2
    assert atoms[0].pos == "x" and atoms[0].rhs == Expression.constant(3)
    assert atoms[1].neg == "x" and atoms[1].rhs == Expression.constant(-3)
    assert all(a.from_equality for a in atoms)


def test_undeclared_target_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_model("""
clocks: x
params: p
loc q0 init inv: true
edge q0 -> q2 : true ; a ;
""")
    assert "q2" in str(err.value)


def test_undeclared_clock_in_guard():
    with pytest.raises(ParseError) as err:
        parse_model("""
clocks: x
params: p
loc q0 init inv: true
edge q0 -> q0 : y <= p ; a ;
""")
    assert "y" in str(err.value)


def test_malformed_update():
    with pytest.raises(ParseError) as err:
        parse_model("""
clocks: x
params: p
loc q0 init inv: true
edge q0 -> q0 : true ; a ; reset x:=p
""")
    assert "update" in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_model("clocks: x\nparams: p\nloc q0 init inv: true\nedge q0 -> q0 : x <<= 2 ; a ;\n")
    assert err.value.line == 4


def test_domain_line():
    pta = parse_model("""
clocks: x
params: p
domain: time=nat param=int
loc q0 init inv: true
""")
    assert pta.time_domain == "nat"
    assert pta.param_domain == "int"


def test_property_examples(gate):
    psi = parse_property("EF (q1 && x <= p)", gate)
    assert psi.mode == "EF"
    assert isinstance(psi.phi, PropAnd)
    assert isinstance(psi.phi.left, PropLoc) and psi.phi.left.name == "q1"
    assert isinstance(psi.phi.right, PropAtom)

    psi2 = parse_property("AG (!q1)", gate)
    assert psi2.mode == "AG"
    assert isinstance(psi2.phi, PropNot)


def test_difference_atom_property():
    pta = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
""")
    psi = parse_property("EF (x - y < p)", pta)
    atom = psi.phi.atom
    assert atom.pos == "x" and atom.neg == "y" and atom.strict


def test_property_undeclared_location(gate):
    with pytest.raises(ParseError):
        parse_property("EF q9", gate)


def test_polynomial_expression_surface():
    pta = parse_model("""
clocks: x
params: p, q
loc q0 init inv: true
edge q0 -> q0 : x <= p^2 - 1 & x <= p*q ; a ;
""")
    first, second = pta.edges[0].guard.conjuncts
    assert not first.rhs.is_linear()
    assert not second.rhs.is_linear()
    assert first.rhs.evaluate({"p": Fraction(3), "q": Fraction(0)}) == 8


def test_render_parse_round_trip_on_random_models():
    rng = random.Random(7)
    for _ in range(60):
        pta = rand_pta_one_clock(rng, rng.choice([1, 2]),
                                 rng.choice(["nat", "dense"]),
                                 rng.choice(["real", "int", "nat"]))
        again = parse_model(pta.render())
        assert again == pta


def test_normalization_soundness_random_triples():
    # normalized atoms keep the truth value of the source relation
    rng = random.Random(11)
    rels = ["<", "<=", ">", ">=", "="]
    for _ in range(1000):
        rel = rng.choice(rels)
        lhs_kind = rng.choice(["x", "-x", "x-y"])
        c = rng.randint(-6, 6)
        k = rng.randint(-3, 3)
        text = "%s %s %s" % (lhs_kind, rel, ("%dp + %d" % (k, c)).replace("-", "- ", 0))
        sc = parse_constraint("%s %s %d*p + %d" % (lhs_kind, rel, k, c),
                              {"x", "y"}, {"p"})
        omega = {"x": Fraction(rng.randint(0, 12), rng.choice([1, 2])),
                 "y": Fraction(rng.randint(0, 12), rng.choice([1, 2]))}
        gamma = {"p": Fraction(rng.randint(-5, 5))}
        value = k * gamma["p"] + c
        lhs = {"x": omega["x"], "-x": -omega["x"], "x-y": omega["x"] - omega["y"]}[lhs_kind]
        direct = {"<": lhs < value, "<=": lhs <= value, ">": lhs > value,
                  ">=": lhs >= value, "=": lhs == value}[rel]
        assert sc.holds(omega, gamma) == direct


@pytest.mark.parametrize("text, expected", [
    ("p^0", Expression.constant(1)),
    ("3*p^0*q", Expression.param("q", 3)),
    ("p^0*p^2 - p^0", Expression.polynomial({(("p", 2),): 1, (): -1})),
    ("q^0 + p", Expression.linear(1, {"p": 1})),
], ids=["alone", "product", "beside-power", "sum"])
def test_zero_exponent_is_one(text, expected):
    assert parse_expression(text, {"p", "q"}) == expected


@pytest.mark.parametrize("text, column", [("p^-1", 1), ("3 + p^-1", 5), ("2*q*p^-2", 5)])
def test_negative_exponent_is_not_an_integer_exponent(text, column):
    # the tokenizer reads an exponent as a run of digits, so "-" after
    # "^" is no exponent; the error points at the parameter
    with pytest.raises(ParseError) as err:
        parse_expression(text, {"p", "q"})
    assert str(err.value) == "expected integer exponent after '^'"
    assert err.value.column == column


_DECLS = "clocks: x\nparams: p\nloc q0 init inv: true\nloc q1 inv: true\n"


@pytest.mark.parametrize("last_line, message", [
    ("edge q0 -> q1 : x >= 2 & y <= p ; a ;", "undeclared clock 'y' at line 5, column 26"),
    ("edge q0 -> q1 : x >= 2 & x <= p + $ ; a ;",
     "unexpected character '$' in expression at line 5, column 35"),
    ("edge q0 -> q1 : x >= 2 &  x <= q ; a ;", "undeclared parameter 'q' at line 5, column 32"),
    ("  loc q2 inv: x <= 2 & y <= 1", "undeclared clock 'y' at line 5, column 24"),
    ("edge q0 -> q9 : true ; a ;", "undeclared location 'q9' at line 5, column 12"),
    ("edge q0 -> q1 : true ; a ; reset y:=0",
     "reset of undeclared clock 'y' at line 5, column 34"),
    ("edge q0 -> q1 : x <= 1 && x >= 0 ; a ;", "empty conjunct at line 5, column 24"),
    ("edge q0 -> q1 : x <= 1 ; a ;  # x <= $", None),
    ("edge q0 -> q1 : x <= *p ; a ;", "expected a term at line 5, column 22"),
])
def test_model_errors_point_at_their_token_in_the_line(last_line, message):
    # columns count from the start of the line, not from the guard text
    # or a conjunct's leading blank
    if message is None:
        parse_model(_DECLS + last_line)
        return
    with pytest.raises(ParseError) as err:
        parse_model(_DECLS + last_line)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("EF (x <= p && q1) || x - y < 2", "undeclared clock 'y' at line 1, column 26"),
    ("EF q1 && x <= 2 q", "undeclared parameter 'q' at line 1, column 17"),
    ("  AG !(q1 || q7)", "undeclared location 'q7' at line 1, column 14"),
    ("EF q1 &&", "expected an atom or location name at line 1, column 9"),
    ("EF (q1", "missing ')' at line 1, column 7"),
])
def test_property_errors_count_columns_from_the_start_of_the_text(text, message):
    with pytest.raises(ParseError) as err:
        parse_property(text, parse_model(_DECLS))
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("EF q1 &&\n  q9", "undeclared location 'q9' at line 2, column 3"),
    ("AG (q1 ||\n\n   x <= 2 &&\n y > 1)", "undeclared clock 'y' at line 4, column 2"),
    ("EF (q1\n  && q0", "missing ')' at line 2, column 8"),
])
def test_property_errors_give_the_line_and_column_of_their_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_property(text, parse_model(_DECLS))
    assert str(err.value) == message


@pytest.mark.parametrize("text, column", [("*p", 1), ("3 + *p", 5), ("-*p", 2)])
def test_a_term_does_not_open_with_star(text, column):
    with pytest.raises(ParseError) as err:
        parse_expression(text, {"p"}, line=1)
    assert str(err.value) == "expected a term at line 1, column %d" % column


@pytest.mark.parametrize("decls, message", [
    ("clocks: x, x\nparams: p\n", "duplicate name 'x' at line 1, column 12"),
    ("clocks: x\nparams: p,  p\n", "duplicate name 'p' at line 2, column 13"),
    ("clocks: x\nparams: p, x\n", "duplicate name 'x' at line 2, column 12"),
    ("params: x\nclocks: y\nclocks: x\n", "duplicate name 'x' at line 3, column 9"),
], ids=["clocks", "params", "clock-then-param", "param-then-clock"])
def test_a_name_is_declared_once(decls, message):
    with pytest.raises(ParseError) as err:
        parse_model(decls + "loc q0 init inv: true\n")
    assert str(err.value) == message


@pytest.mark.parametrize("clocks, params, name", [
    (("x", "x"), ("p",), "x"), (("x",), ("p", "p"), "p"), (("x",), ("p", "x"), "x")])
def test_validate_refuses_a_name_declared_twice(gate, clocks, params, name):
    # models built in code, not parsed
    with pytest.raises(ModelError) as err:
        replace(gate, clocks=clocks, params=params).validate()
    assert str(err.value) == "duplicate name %r" % name
