import random
from fractions import Fraction

import pytest

from ptasynth.decomposition import (
    cell1d_integer_point,
    decompose_1d,
    decompose_linear,
    integer_point,
    project_clock,
    random_point_in_cell1d,
    random_point_in_linear_cell,
    satisfies_system,
    signs_at,
    slack_form,
)
from ptasynth.expressions import Expression
from ptasynth.harness import suite_decomposition_props
from ptasynth.model import UnsupportedError
from ptasynth.polynomials import isolate_real_roots
from ptasynth.scalars import INF, NEG_INF


def lin(const=0, **coeffs):
    return Expression.linear(const, coeffs)


def test_decompose_1d_two_roots():
    cells = decompose_1d([(-2, 1), (-5, 1)])  # p-2, p-5
    kinds = [(c.kind, c.sample) for c in cells]
    assert kinds == [
        ("interval", Fraction(1)), ("point", Fraction(2)),
        ("interval", Fraction(7, 2)), ("point", Fraction(5)),
        ("interval", Fraction(6)),
    ]


def test_decompose_1d_empty():
    cells = decompose_1d([])
    assert len(cells) == 1
    assert cells[0].lo is NEG_INF and cells[0].hi is INF and cells[0].sample == 0


def test_decompose_1d_sign_on_middle_cell():
    f = (-2, 0, 1)  # p^2 - 2
    cells = decompose_1d([f])
    assert len(cells) == 5
    assert signs_at([f], cells[2].sample)[f] == -1


def test_project_clock_examples():
    # x - 2p: constant leading coefficient, nothing to project
    assert project_clock([((0, -2), (1,))]) == []
    # p*x - 1: the leading coefficient p is the critical polynomial
    assert project_clock([((-1,), (0, 1))]) == [(0, 1)]
    # x^2 - p: the derivative resultant pins p = 0
    out = project_clock([((0, -1), (), (1,))])
    assert out == [(0, 1)]


def test_project_clock_passes_clock_free_polys():
    out = project_clock([((1, 1),)])  # p + 1, no clock
    assert out == [(1, 1)]


def test_decompose_linear_one_param():
    cells = decompose_linear([lin(-2, p=1)], ("p",))
    assert [c.signs for c in cells] == [(-1,), (0,), (1,)]
    assert cells[1].sample == (Fraction(2),)
    assert all(c.contains(c.sample) for c in cells)


def test_decompose_linear_single_hyperplane_2d():
    cells = decompose_linear([lin(p1=1, p2=-1)], ("p1", "p2"))
    assert [c.signs for c in cells] == [(-1,), (0,), (1,)]
    assert all(c.contains(c.sample) for c in cells)


def test_decompose_linear_three_lines_census():
    exprs = [lin(p1=1), lin(p2=1), lin(-2, p1=1, p2=1)]
    cells = decompose_linear(exprs, ("p1", "p2"))
    assert len(cells) == 19
    assert len({c.signs for c in cells}) == 19
    assert all(c.contains(c.sample) for c in cells)


def test_decompose_linear_dimension_cap():
    with pytest.raises(UnsupportedError):
        decompose_linear([lin(a=1)], ("a", "b", "c", "d"))


def test_slack_form_examples():
    system, slacks = slack_form([(lin(-5, p1=2, p2=3), ">=")])
    assert slacks == ["s1"]
    expr, rel = system[0]
    assert rel == "="
    assert expr.cf("p1") == 2 and expr.cf("p2") == 3 and expr.cf("s1") == -1
    assert expr.con() == -5

    system, slacks = slack_form([(lin(-4, p1=1), "=")])
    assert slacks == [] and system[0][0] == lin(-4, p1=1)

    system, slacks = slack_form([(lin(-2, p1=1), ">")])
    expr, rel = system[0]
    assert rel == "=" and expr.con() == -3 and expr.cf(slacks[0]) == -1


def test_slack_round_trip_manual():
    system = [(lin(-5, p1=2, p2=3), ">=")]
    rewritten, slacks = slack_form(system)
    gamma = {"p1": Fraction(1), "p2": Fraction(1)}
    assert satisfies_system(system, gamma)
    slack_value = Fraction(0)
    expr = rewritten[0][0]
    residue = expr.evaluate({**gamma, slacks[0]: slack_value})
    assert residue == 0  # 2 + 3 - 5, slack 0


def test_integer_point_examples():
    cells = decompose_linear([lin(-2, p=1)], ("p",))
    above = next(c for c in cells if c.signs == (1,))
    assert integer_point(above, (0, 10)) == (3,)
    at = next(c for c in cells if c.signs == (0,))
    assert integer_point(at, (0, 10)) == (2,)

    plane = decompose_linear([lin(-5, p1=2, p2=3), lin(p1=1), lin(p2=1)], ("p1", "p2"))
    on_line = next(c for c in plane
                   if c.contains((Fraction(1), Fraction(1))) and 0 in c.signs)
    assert integer_point(on_line, (0, 5)) == (1, 1)

    half = decompose_linear([lin(-1, p=2)], ("p",))  # 2p - 1 = 0 at p = 1/2
    point_cell = next(c for c in half if c.signs == (0,))
    assert integer_point(point_cell, (0, 10)) is None


def test_cell1d_integer_point():
    cells = decompose_1d([(-2, 0, 1)])  # roots at +-sqrt(2)
    middle = cells[2]
    assert cell1d_integer_point(middle) == -1
    assert cell1d_integer_point(middle, minimum=0) == 0
    irrational_point = cells[1]
    assert cell1d_integer_point(irrational_point) is None


def test_signs_at_examples():
    f = (-4, 0, 1)  # p^2 - 4
    assert signs_at([f], Fraction(0))[f] == -1
    assert signs_at([f], Fraction(2))[f] == 0
    root2 = isolate_real_roots((-2, 0, 1))[1]
    g = (-2, 0, 1)
    assert signs_at([g], root2)[g] == 0


def test_random_interior_points_stay_inside():
    rng = random.Random(5)
    exprs = [lin(p1=1), lin(-1, p1=1, p2=1), lin(2, p2=-1)]
    for cell in decompose_linear(exprs, ("p1", "p2")):
        for _ in range(25):
            assert cell.contains(random_point_in_linear_cell(cell, rng))
    for cell in decompose_1d([(-2, 0, 1), (0, 1)]):
        if cell.kind == "point" and not isinstance(cell.sample, Fraction):
            continue
        for _ in range(25):
            value = random_point_in_cell1d(cell, rng)
            assert cell.contains(value)


def test_decomposition_property_suite():
    report = suite_decomposition_props(9, 14)
    assert report.ok(), report.render()
