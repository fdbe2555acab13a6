from fractions import Fraction

import pytest

from ptasynth.polynomials import (
    AlgValue,
    AlgebraicNumber,
    PolynomialError,
    bivar_derivative_x,
    cauchy_root_bound,
    interval_eval,
    isolate_real_roots,
    poly_add,
    poly_divexact,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_scale,
    rational_roots,
    square_free_part,
    sturm_chain,
    sturm_root_count,
    sylvester_resultant_x,
)


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
    assert root2.floor_value() == 1
    assert root2.ceil_value() == 2
    neg = isolate_real_roots((-2, 0, 1))[0]
    assert neg.floor_value() == -2
    assert neg.ceil_value() == -1


def test_alg_value_exact_integer():
    root2 = isolate_real_roots((-2, 0, 1))[1]
    squared = AlgValue(root2, (0, 0, 1))           # value sqrt(2)^2 = 2 exactly
    assert squared.compare_scalar(2) == 0
    assert squared.floor_value() == 2
    shifted = AlgValue(root2, (1, 1))              # sqrt(2) + 1
    assert shifted.compare_scalar(2) == 1
    assert shifted.floor_value() == 2


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


def test_interval_eval_encloses():
    g = (-2, 0, 1)
    lo, hi = interval_eval(g, Fraction(1), Fraction(2))
    assert lo <= poly_eval(g, Fraction(3, 2)) <= hi


def test_cauchy_bound_contains_roots():
    f = (-6, 11, -6, 1)
    bound = cauchy_root_bound(f)
    assert all(abs(r) <= bound for r in rational_roots(f))
