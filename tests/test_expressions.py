import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ptasynth.expressions import Expression, ExpressionError
from ptasynth.parser import parse_expression
from ptasynth.polynomials import poly_eval
from ptasynth.scalars import INF


def test_linear_evaluation():
    e = Expression.linear(-5, {"p": 2})
    assert e.evaluate({"p": Fraction(3)}) == 1


def test_infinity_evaluates_to_inf():
    assert Expression.infinity().evaluate({}) is INF


def test_polynomial_evaluation():
    e = Expression.polynomial({((("p", 1)), ("q", 1)): 0})
    e = Expression.polynomial({(("p", 1), ("q", 1)): 1, (): 1})
    assert e.evaluate({"p": Fraction(2), "q": Fraction(3)}) == 7


def test_missing_parameter_raises():
    e = Expression.linear(0, {"p": 1})
    with pytest.raises(ExpressionError):
        e.evaluate({})


def test_con_and_cf():
    e = Expression.linear(3, {"p": 2, "q": -1})
    assert e.con() == 3
    assert e.cf("p") == 2
    assert e.cf("q") == -1
    assert e.cf("r") == 0


def test_degree_one_polynomials_collapse_to_linear():
    e = Expression.polynomial({(("p", 1),): 2, (): 3})
    assert e.is_linear()
    assert e.con() == 3 and e.cf("p") == 2


def test_genuinely_nonlinear_stays_polynomial():
    e = Expression.polynomial({(("p", 2),): 1, (): -1})
    assert not e.is_linear()
    with pytest.raises(ExpressionError):
        e.con()


coeffs = st.dictionaries(st.sampled_from(["p", "q"]), st.integers(-9, 9), max_size=2)


@given(coeffs, st.integers(-9, 9), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_linear_superposition(cs, const, a1, a2, b1, b2):
    # e[g1+g2] + con(e) == e[g1] + e[g2] for linear e, in exact arithmetic
    e = Expression.linear(const, cs)
    g1 = {"p": Fraction(a1, 7), "q": Fraction(b1, 5)}
    g2 = {"p": Fraction(a2, 7), "q": Fraction(b2, 5)}
    gsum = {k: g1[k] + g2[k] for k in g1}
    assert e.evaluate(gsum) + e.con() == e.evaluate(g1) + e.evaluate(g2)


def test_negated_round_trip():
    e = Expression.linear(3, {"p": -2})
    assert e.negated().negated() == e
    q = Expression.polynomial({(("p", 2),): 3})
    assert q.negated().negated() == q


def test_render_shapes():
    assert Expression.linear(3, {"p": 2}).render() == "2*p + 3"
    assert Expression.linear(-1, {"p": 1}).render() == "p - 1"
    assert Expression.linear(0, {}).render() == "0"
    assert Expression.polynomial({(("p", 2),): 1, (): -1}).render() == "p^2 - 1"


# -- one monomial map ----------------------------------------------------------

PARAMS = ("p", "q")


def _random_terms(rng, max_degree=3):
    """A monomial map over p, q of total degree at most ``max_degree``, with
    a constant term in most draws and zero coefficients left in."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        dp = rng.randint(0, max_degree)
        dq = rng.randint(0, max_degree - dp)
        mono = tuple((name, d) for name, d in zip(PARAMS, (dp, dq)) if d)
        terms[mono] = rng.randint(-4, 4)
    if rng.random() < 0.7:
        terms[()] = rng.randint(-5, 5)
    return terms


def _random_point(rng):
    return {name: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for name in PARAMS}


def _cases(n=300, seed=1907, **kw):
    rng = random.Random(seed)
    return [(rng, _random_terms(rng, **kw)) for _ in range(n)]


def test_render_parses_back_to_an_equal_expression():
    for _, terms in _cases():
        e = Expression.polynomial(terms)
        back = parse_expression(e.render(), PARAMS)
        assert back == e and hash(back) == hash(e), e.render()


def test_linear_is_the_degree_property():
    for _, terms in _cases():
        e = Expression.polynomial(terms)
        degrees = [sum(d for _, d in m) for m, c in terms.items() if c]
        assert e.is_linear() == all(d <= 1 for d in degrees)


def test_linear_and_polynomial_constructors_agree():
    for _, terms in _cases(max_degree=1):
        coeffs = {m[0][0]: c for m, c in terms.items() if m}
        lin = Expression.linear(terms.get((), 0), coeffs)
        poly = Expression.polynomial(terms)
        assert lin == poly and hash(lin) == hash(poly)
        assert lin.con() == terms.get((), 0)
        assert all(lin.cf(name) == coeffs.get(name, 0) for name in PARAMS)


def test_univariate_agrees_with_evaluate():
    for rng, terms in _cases():
        e = Expression.polynomial({m: c for m, c in terms.items()
                                   if all(name == "p" for name, _ in m)})
        f = e.univariate("p")
        for _ in range(4):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert poly_eval(f, x) == e.evaluate({"p": x})
    with pytest.raises(ExpressionError):
        Expression.polynomial({(("p", 1), ("q", 1)): 1}).univariate("p")
    with pytest.raises(ExpressionError):
        Expression.infinity().univariate("p")
    assert Expression.constant(4).univariate(None) == (4,)


def test_arithmetic_agrees_with_evaluation():
    for rng, terms in _cases():
        e = Expression.polynomial(terms)
        other = Expression.polynomial(_random_terms(rng))
        delta = rng.randint(-6, 6)
        for _ in range(3):
            gamma = _random_point(rng)
            value = e.evaluate(gamma)
            assert e.negated().evaluate(gamma) == -value
            assert e.plus_const(delta).evaluate(gamma) == value + delta
            assert e.minus(other).evaluate(gamma) == value - other.evaluate(gamma)
        assert e.minus(e) == Expression.constant(0)


def test_zero_exponent_factors_parse_to_the_reduced_expression():
    for rng, terms in _cases():
        pieces = []
        for mono, c in terms.items():
            factors = ["%s^%d" % (name, d) for name, d in mono]
            for _ in range(rng.randint(1, 2)):
                factors.insert(rng.randint(0, len(factors)), "%s^0" % rng.choice(PARAMS))
            pieces.append("%+d*%s" % (c, "*".join(factors)))
        text = " ".join(pieces) or "p^0 - 1"
        assert parse_expression(text, PARAMS) == Expression.polynomial(terms), text
