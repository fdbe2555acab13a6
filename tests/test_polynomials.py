import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from ptasynth.polynomials import (
    AlgValue,
    AlgebraicNumber,
    ExactValue,
    PolynomialError,
    bivar_derivative_x,
    cauchy_root_bound,
    interval_eval,
    isolate_real_roots,
    poly_add,
    poly_derivative,
    poly_divexact,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_primitive,
    poly_scale,
    poly_sign_at,
    poly_trim,
    rational_roots,
    square_free_part,
    sturm_chain,
    sturm_root_count,
    sylvester_resultant_x,
)
from ptasynth.scalars import INF, NEG_INF


def test_isolate_rational_roots():
    roots = isolate_real_roots((-4, 0, 1))  # t^2 - 4
    assert [r.to_fraction() for r in roots] == [-2, 2]


def test_isolate_no_real_roots():
    assert isolate_real_roots((1, 0, 1)) == []


def test_isolate_irrational_roots_with_sturm_count():
    f = (-2, 0, 1)  # t^2 - 2
    roots = isolate_real_roots(f)
    assert len(roots) == 2
    chain = sturm_chain(f)
    # the isolating intervals each contain exactly one root of f
    for r in roots:
        assert not r.is_rational()
        assert sturm_root_count(chain, r.lo, r.hi) == 1
    assert roots[0].compare_scalar(roots[1]) < 0
    assert roots[1].compare_scalar(1) > 0 and roots[1].compare_scalar(2) < 0


def test_isolate_zero_polynomial_errors():
    with pytest.raises(PolynomialError):
        isolate_real_roots(())


def test_isolate_mixed_rational_and_irrational():
    # (t - 1/2)(t^2 - 2) scaled: (2t - 1)(t^2 - 2)
    f = poly_mul((-1, 2), (-2, 0, 1))
    roots = isolate_real_roots(f)
    assert len(roots) == 3
    values = [r.compare_scalar(Fraction(1, 2)) for r in roots]
    assert values == [-1, 0, 1]


def test_repeated_roots_collapse():
    f = poly_mul((-1, 1), (-1, 1))  # (t-1)^2
    roots = isolate_real_roots(f)
    assert [r.to_fraction() for r in roots] == [1]


def test_rational_root_candidates():
    assert rational_roots((-6, 11, -6, 1)) == [1, 2, 3]
    assert rational_roots((0, 1)) == [0]


def test_gcd_and_square_free():
    f = poly_mul((-1, 1), (1, 1))
    g = poly_mul((-1, 1), (2, 1))
    assert poly_gcd(f, g) == (-1, 1)
    assert square_free_part(poly_mul(f, f)) in ((-1, 0, 1), (1, 0, -1))


def test_divexact_raises_on_remainder():
    with pytest.raises(PolynomialError):
        poly_divexact((1, 1), (2,))


def test_algebraic_sign_of():
    root2 = isolate_real_roots((-2, 0, 1))[1]
    assert root2.sign_of((-2, 0, 1)) == 0          # defining polynomial vanishes
    assert root2.sign_of((0, 1)) == 1              # t > 0
    assert root2.sign_of((-3, 0, 1)) == -1         # t^2 - 3 < 0 at sqrt(2)
    assert root2.sign_of((-1, 0, 1)) == 1          # t^2 - 1 > 0


@pytest.mark.parametrize("f", [(-2, 0, 1), (1, -3, 0, 1)], ids=["t^2-2", "t^3-3t+1"])
def test_sign_of_is_zero_exactly_at_shared_roots(f):
    # f is irreducible, so g vanishes at a root of f iff f divides g; the
    # near-multiples of f have enclosures straddling 0 over the isolating
    # interval, so they exercise the gcd test and refinement
    multiples = [f, poly_mul(f, (1, 1)), poly_mul(f, (-5, 0, 3))]
    others = [poly_add(f, (1,)), poly_add(poly_scale(f, 1000), (1,)),
              poly_add(poly_scale(f, 1000), (-1,)), poly_mul(f, f)[:-1],
              (0, 1), (-1, 1), (1, 1), (-3, 0, 1), (0, 0, 0, 1)]
    for root in isolate_real_roots(f):
        assert not root.is_rational()
        fine = AlgebraicNumber(root.poly, root.lo, root.hi)
        fine.refine_below(Fraction(1, 2 ** 80))
        for g in multiples:
            assert AlgebraicNumber(root.poly, root.lo, root.hi).sign_of(g) == 0
        for g in others:
            lo_v, hi_v = interval_eval(g, fine.lo, fine.hi)
            assert lo_v > 0 or hi_v < 0
            expected = 1 if lo_v > 0 else -1
            assert AlgebraicNumber(root.poly, root.lo, root.hi).sign_of(g) == expected, g


def test_algebraic_floor_ceil():
    root2 = isolate_real_roots((-2, 0, 1))[1]
    assert math.floor(root2) == 1
    assert math.ceil(root2) == 2
    neg = isolate_real_roots((-2, 0, 1))[0]
    assert math.floor(neg) == -2
    assert math.ceil(neg) == -1


def test_alg_value_exact_integer():
    root2 = isolate_real_roots((-2, 0, 1))[1]
    squared = AlgValue(root2, (0, 0, 1))           # value sqrt(2)^2 = 2 exactly
    assert squared.compare_scalar(2) == 0
    assert math.floor(squared) == 2
    shifted = AlgValue(root2, (1, 1))              # sqrt(2) + 1
    assert shifted.compare_scalar(2) == 1
    assert math.floor(shifted) == 2


def test_alg_value_comparisons_share_root():
    root2 = isolate_real_roots((-2, 0, 1))[1]
    a = AlgValue(root2, (0, 1))     # sqrt2
    b = AlgValue(root2, (0, 0, 1))  # 2
    assert a.compare_scalar(b) == -1
    assert (-a).compare_scalar(0) == -1


def test_resultants_of_linear_pairs():
    # resultant of (x - a(p)) and (x - b(p)) is a(p) - b(p) up to sign
    f = ((0, -1), (1,))   # x - p
    g = ((-3,), (1,))     # x - 3
    res = sylvester_resultant_x(f, g)
    assert res in ((-3, 1), (3, -1))


def test_resultant_detects_common_root_condition():
    # x^2 - p and x - 1 share a root iff p = 1
    f = ((0, -1), (), (1,))
    g = ((-1,), (1,))
    res = sylvester_resultant_x(f, g)
    assert poly_eval(res, Fraction(1)) == 0
    assert poly_eval(res, Fraction(2)) != 0


def test_resultant_with_derivative_tracks_double_roots():
    f = ((0, -1), (), (1,))  # x^2 - p
    res = sylvester_resultant_x(f, bivar_derivative_x(f))
    assert poly_eval(res, Fraction(0)) == 0
    assert poly_eval(res, Fraction(4)) != 0


def test_degree_one_closed_forms_match_the_generic_path():
    # isolate_real_roots answers degree 1 in closed form; the generic path
    # gives the same roots (through f * (t^2 + 1), which has f's real roots)
    rng = random.Random(1809)
    for _ in range(400):
        content = rng.choice((1, 3, -1, -12))
        f = poly_scale((rng.randint(-40, 40), rng.choice((1, 2, 5, -3, -7))), content)
        roots = isolate_real_roots(f)
        generic = isolate_real_roots(poly_mul(f, (1, 0, 1)))
        assert [(r.poly, r.lo, r.hi) for r in roots] == \
            [(r.poly, r.lo, r.hi) for r in generic], f


def test_interval_eval_encloses():
    g = (-2, 0, 1)
    lo, hi = interval_eval(g, Fraction(1), Fraction(2))
    assert lo <= poly_eval(g, Fraction(3, 2)) <= hi


def test_cauchy_bound_contains_roots():
    f = (-6, 11, -6, 1)
    bound = cauchy_root_bound(f)
    assert all(abs(r) <= bound for r in rational_roots(f))


# -- the integer kernels against rational reference implementations -------------

def ref_sign(f, x):
    v = Fraction(0)
    for c in reversed(f):
        v = v * x + c
    return (v > 0) - (v < 0)


def ref_interval_eval(g, lo, hi):
    a, b = Fraction(0), Fraction(0)
    for c in reversed(g):
        candidates = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(candidates) + c, max(candidates) + c
    return a, b


def ref_rem(f, g):
    f = list(f)
    while len(f) >= len(g):
        q = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= q * c
        while f and f[-1] == 0:
            f.pop()
    return tuple(f)


def ref_gcd(f, g):
    a, b = tuple(map(Fraction, f)), tuple(map(Fraction, g))
    while b:
        a, b = b, ref_rem(a, b)
    denom = math.lcm(*(c.denominator for c in a))
    return poly_primitive(tuple(int(c * denom) for c in a))


def ref_sturm_chain(f):
    chain = [tuple(map(Fraction, f)), tuple(map(Fraction, poly_derivative(f)))]
    while chain[-1]:
        chain.append(tuple(-c for c in ref_rem(chain[-2], chain[-1])))
    chain.pop()
    return chain


def rand_poly(rng, max_degree=6, bound=9):
    return poly_trim([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree) + 1)])


def rand_rational(rng):
    # denominators that are not powers of two as well as dyadic ones
    return Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 5, 7, 8, 12, 64, 99]))


def test_poly_sign_at_matches_rational_horner():
    rng = random.Random(11)
    for _ in range(600):
        f, x = rand_poly(rng), rand_rational(rng)
        assert poly_sign_at(f, x) == ref_sign(f, x), (f, x)
    for f in [(), (5,), (-3,), (0, 1), (-1, 2)]:
        for x in [Fraction(0), Fraction(1, 2), Fraction(-7, 3), 4]:
            assert poly_sign_at(f, x) == ref_sign(f, Fraction(x))


def test_interval_eval_equals_rational_interval_horner():
    rng = random.Random(12)
    cases = [((), Fraction(1), Fraction(2)), ((7,), Fraction(-1, 3), Fraction(2, 5)),
             ((-4,), Fraction(0), Fraction(0)), ((1, -2, 3), Fraction(5, 7), Fraction(5, 7))]
    for _ in range(600):
        a, b = sorted([rand_rational(rng), rand_rational(rng)])
        if rng.random() < 0.1:
            b = a                                   # degenerate interval
        cases.append((rand_poly(rng), a, b))
    for g, lo, hi in cases:
        got = interval_eval(g, lo, hi)
        assert got == ref_interval_eval(g, lo, hi), (g, lo, hi)
        assert all(isinstance(v, Fraction) for v in got)


def test_poly_gcd_matches_rational_euclid():
    rng = random.Random(13)
    for _ in range(300):
        common = rand_poly(rng, max_degree=3, bound=5)
        f = poly_mul(rand_poly(rng, 3, 5), common)
        g = poly_mul(rand_poly(rng, 3, 5), common)
        got = poly_gcd(f, g)
        assert got == ref_gcd(f, g), (f, g)
        if got and len(common) >= 2:
            poly_divexact(got, poly_primitive(common))   # the common factor divides the gcd
    assert poly_gcd(poly_mul((-2, 0, 1), (-1, 1)), poly_mul((-2, 0, 1), (3, 1))) == (-2, 0, 1)
    assert poly_gcd((), ()) == ()
    assert poly_gcd((), (4, -6)) == (-2, 3)
    assert poly_gcd((6,), (4, 2)) == (1,)


def test_sturm_chain_has_the_rational_chain_signs():
    rng = random.Random(14)
    for _ in range(200):
        f = rand_poly(rng)
        if len(f) < 2:
            continue
        f = square_free_part(f)
        chain, ref = sturm_chain(f), ref_sturm_chain(f)
        assert len(chain) == len(ref)
        for _ in range(5):
            x = rand_rational(rng)
            assert [poly_sign_at(p, x) for p in chain] == [ref_sign(p, x) for p in ref]
        bound = Fraction(cauchy_root_bound(f))
        assert sturm_root_count(chain, -bound, bound) == len(isolate_real_roots(f)), f


def test_compare_equal_roots_of_different_polynomials():
    # sqrt(2) as a root of (t^2-2)(t-1) and of (t^2-2)(t+3), with
    # overlapping isolating intervals: only the shared factor decides
    f = poly_mul((-2, 0, 1), (-1, 1))
    g = poly_mul((-2, 0, 1), (3, 1))
    a = AlgebraicNumber(f, Fraction(5, 4), Fraction(3, 2))
    b = AlgebraicNumber(g, Fraction(4, 3), Fraction(2))
    assert a.compare_scalar(b) == 0
    assert b.compare_scalar(a) == 0
    minus = AlgebraicNumber(g, Fraction(-2), Fraction(-4, 3))
    assert a.compare_scalar(minus) == 1 and minus.compare_scalar(a) == -1
    root3 = AlgebraicNumber((-3, 0, 1), Fraction(1), Fraction(2))
    assert a.compare_scalar(root3) == -1 and root3.compare_scalar(b) == 1


# -- Python's operators on exact values -----------------------------------------

def _exact_pool():
    """Ints, Fractions, rational and irrational roots, values over one root
    and the two sentinels."""
    root2 = isolate_real_roots((-2, 0, 1))[1]
    cubic = isolate_real_roots((1, -3, 0, 1))      # t^3 - 3t + 1, three roots
    numbers = [-2, 0, 1, 2, Fraction(-3, 2), Fraction(1, 2), Fraction(7, 5),
               AlgebraicNumber.from_rational(Fraction(1, 2)),
               AlgebraicNumber.from_rational(2),
               root2, -root2, *cubic]
    over_root2 = [AlgValue(root2, (0, 1)), AlgValue(root2, (0, 0, 1)),
                  AlgValue(root2, (1, 1)), AlgValue(root2, (0, -1))]
    return numbers, over_root2, [INF, NEG_INF]


def _reference(a, b) -> int:
    """Three-way reference order: identity, then the sentinels, then
    ``compare_scalar`` (which may raise), then ints and Fractions natively."""
    if a is b:
        return 0
    if a is INF or b is NEG_INF:
        return 1
    if a is NEG_INF or b is INF:
        return -1
    if isinstance(a, ExactValue):
        return a.compare_scalar(b)
    if isinstance(b, ExactValue):
        return -b.compare_scalar(a)
    return (a > b) - (a < b)


_OPERATORS = [(operator.eq, lambda c: c == 0), (operator.ne, lambda c: c != 0),
              (operator.lt, lambda c: c < 0), (operator.le, lambda c: c <= 0),
              (operator.gt, lambda c: c > 0), (operator.ge, lambda c: c >= 0)]


def test_operators_agree_with_compare_scalar():
    numbers, over_root2, sentinels = _exact_pool()
    values = numbers + over_root2 + sentinels
    checked = 0
    for a in values:
        for b in values:
            try:
                want = _reference(a, b)
            except PolynomialError:
                # a value over a root against a raw root: incomparable
                for op, _ in _OPERATORS:
                    with pytest.raises(PolynomialError):
                        op(a, b)
                continue
            for op, test in _OPERATORS:
                assert op(a, b) is test(want), (op.__name__, a, b)
            checked += 1
    assert checked > len(values) ** 2 // 2


def test_sorted_follows_compare_scalar():
    numbers, over_root2, sentinels = _exact_pool()
    rng = random.Random(7)
    for values in (numbers + sentinels,
                   over_root2 + [0, Fraction(3, 2), 2, Fraction(-1, 3)] + sentinels):
        for _ in range(5):
            rng.shuffle(values)
            got = sorted(values)
            assert got == sorted(values, key=functools.cmp_to_key(_reference))
            assert all(_reference(a, b) <= 0 for a, b in zip(got, got[1:]))
    # min and max work the same way: -1.88 < -sqrt(2) and 1.53 > sqrt(2)
    root2 = isolate_real_roots((-2, 0, 1))[1]
    cubic = isolate_real_roots((1, -3, 0, 1))
    irrational = [root2, -root2, *cubic]
    assert min(irrational) is cubic[0] and max(irrational) is cubic[2]
    assert max(irrational + [INF]) is INF and min([NEG_INF] + irrational) is NEG_INF


def test_floor_ceil_bracket_the_value():
    numbers, over_root2, _ = _exact_pool()
    for v in numbers + over_root2:
        lo, hi = math.floor(v), math.ceil(v)
        assert lo <= v < lo + 1 and hi - 1 < v <= hi, v
        assert (lo == hi) is (v == lo)


def test_exact_values_are_unhashable():
    root2 = isolate_real_roots((-2, 0, 1))[1]
    for v in (root2, AlgebraicNumber.from_rational(3), AlgValue(root2, (0, 1))):
        with pytest.raises(TypeError):
            hash(v)
