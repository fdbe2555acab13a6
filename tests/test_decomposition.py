import itertools
import math
import random
from fractions import Fraction

import pytest

from ptasynth.decomposition import (
    LinearCellSampler,
    _enumerate_boxed,
    _enumerate_fm,
    _fm_bounds,
    _fm_draw,
    _fm_prepare,
    _pick_interior,
    _plane_value,
    _row,
    canonical_planes,
    cell1d_integer_point,
    decompose_1d,
    decompose_linear,
    integer_point,
    project_clock,
    random_point_in_cell1d,
    signs_at_1d,
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
    assert signs_at_1d([f], cells[2].sample)[f] == -1


def test_decompose_1d_records_the_polynomials_vanishing_at_each_root():
    # p^2 - 2, (p^2 - 2)(p - 1) and (p - 1)(p + 3) share the roots
    # +-sqrt(2) and 1, one irrational and one rational duplicate; catches
    # provenance kept only for the polynomial that found a root first
    square, cubic, quadratic = (-2, 0, 1), (2, -2, -1, 1), (-3, 2, 1)
    cells = decompose_1d([square, cubic, quadratic])
    points = [(c.sample, c.vanishing) for c in cells if c.kind == "point"]
    assert [v for _, v in points] == [
        {quadratic}, {square, cubic}, {cubic, quadratic}, {square, cubic}]
    assert points[0][0] == -3 and points[2][0] == 1
    assert all(not c.vanishing for c in cells if c.kind == "interval")


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
    assert signs_at_1d([f], Fraction(0))[f] == -1
    assert signs_at_1d([f], Fraction(2))[f] == 0
    root2 = isolate_real_roots((-2, 0, 1))[1]
    g = (-2, 0, 1)
    assert signs_at_1d([g], root2)[g] == 0


def test_random_interior_points_stay_inside():
    rng = random.Random(5)
    exprs = [lin(p1=1), lin(-1, p1=1, p2=1), lin(2, p2=-1)]
    for cell in decompose_linear(exprs, ("p1", "p2")):
        for _ in range(25):
            assert cell.contains(LinearCellSampler(cell).draw(rng))
    for cell in decompose_1d([(-2, 0, 1), (0, 1)]):
        if cell.kind == "point" and not isinstance(cell.sample, Fraction):
            continue
        for _ in range(25):
            value = random_point_in_cell1d(cell, rng)
            assert cell.contains(value)


def test_decomposition_property_suite():
    report = suite_decomposition_props(9, 14)
    assert report.ok(), report.render()


def random_arrangement(rng, m, n_planes):
    params = ("a", "b", "c")[:m]
    exprs = [lin(rng.randint(-3, 3), **{p: rng.randint(-2, 2) for p in params})
             for _ in range(n_planes)]
    return exprs, params


def sign(v):
    return (v > 0) - (v < 0)


def test_fm_enumeration_matches_polytope_splitting():
    rng = random.Random(7)
    for case in range(40):
        m = 1 + case % 2
        exprs, params = random_arrangement(rng, m, rng.randint(1, 5))
        planes = canonical_planes(exprs, params)
        fm = _enumerate_fm(planes, m)
        assert {signs for signs, _ in fm} == {signs for signs, _ in _enumerate_boxed(planes, m)}
        for signs, sample in fm:
            assert tuple(sign(_plane_value(vec, sample)) for vec in planes) == signs


def test_fm_bounds_strictness_and_fixed_values():
    for F in (int, Fraction):                          # int rows, as the core keeps them
        rows = [((F(1), F(0)), ">="), ((F(1), F(0)), ">"), ((F(-1), F(2)), ">=")]
        assert _fm_bounds(rows, 0, {}) == (0, True, 2, False)
        assert _fm_bounds(rows + [((F(-1), F(0)), ">=")], 0, {}) is None
        assert _fm_bounds(rows[:1] + [((F(-1), F(0)), ">=")], 0, {}) == (0, False, 0, False)
        without = [((F(0), F(1), F(-1)), ">")]         # b - 1 > 0, no a
        assert _fm_bounds(without, 0, {1: 1}) is None
        assert _fm_bounds(without, 0, {1: 2}) == (None, False, None, False)


def test_decompose_linear_three_params():
    axes = [lin(a=1), lin(b=1), lin(c=1)]
    params = ("a", "b", "c")
    assert len(decompose_linear(axes, params)) == 27

    cells = decompose_linear(axes + [lin(-1, a=1, b=1, c=1)], params)
    assert all(c.contains(c.sample) for c in cells)
    grid = [Fraction(n, 2) for n in range(-2, 3)]
    for point in itertools.product(grid, repeat=3):
        assert sum(c.contains(point) for c in cells) == 1, point


def brute_integer_point(cell, box):
    for point in itertools.product(range(box[0], box[1] + 1), repeat=len(cell.params)):
        if cell.contains([Fraction(v) for v in point]):
            return point
    return None


def test_integer_point_is_least_box_point():
    rng = random.Random(11)
    cases = []
    for case in range(12):
        m = 1 + case % 3
        exprs, params = random_arrangement(rng, m, rng.randint(1, 4 if m < 3 else 3))
        cases.append((exprs, params, (-3, 3)))
    # non-unit coefficients, boxes with negative ends, and lines such as
    # 3p - 301 = 0 that cross the box between two integers
    cases += [([lin(-301, p=3)], ("p",), (95, 105)),
              ([lin(-301, a=3), lin(-1, a=3, b=-2)], ("a", "b"), (95, 105)),
              ([lin(-1, a=3, b=-2), lin(4, a=2, b=5)], ("a", "b"), (-7, -1))]
    wide = random.Random(12)
    for case in range(9):
        m = 1 + case % 3
        params = ("a", "b", "c")[:m]
        exprs = [lin(wide.randint(-9, 9), **{p: wide.choice((-3, -2, 0, 2, 3, 5)) for p in params})
                 for _ in range(2 if m == 3 else 3)]
        cases.append((exprs, params, (wide.randint(-6, -2), wide.randint(-1, 3))))
    seen_equality = seen_empty = 0
    for exprs, params, box in cases:
        for cell in decompose_linear(exprs, params):
            expected = brute_integer_point(cell, box)
            assert integer_point(cell, box) == expected, (exprs, cell.signs, box)
            seen_equality += 0 in cell.signs
            seen_empty += expected is None
    assert seen_equality and seen_empty
    on_line = next(c for c in decompose_linear([lin(-301, p=3)], ("p",)) if c.signs == (0,))
    assert integer_point(on_line, (95, 105)) is None


def test_linear_cells_compute_in_fractions():
    # rows are primitive int vectors through the elimination, and int / int
    # is a float in Python: samples, random draws and the bounds at every
    # level must still be Fractions, the bound of an int row with no fixed
    # value included
    half = _fm_bounds([((2, -1), ">")], 0, {})             # 2a - 1 > 0
    assert half == (Fraction(1, 2), True, None, False) and type(half[0]) is Fraction
    rng = random.Random(13)
    bounds = []

    def record(*args):
        bounds.extend(b for b in (args[0], args[2]) if b is not None)
        return _pick_interior(*args)

    def primitive_int(row):
        return all(type(c) is int for c in row) and math.gcd(*row) in (0, 1)

    for case in range(18):
        m = 2 + case % 2
        exprs, params = random_arrangement(rng, m, rng.randint(2, 4))
        exprs.append(lin(-1, a=2, b=3))
        for cell in decompose_linear(exprs, params):
            assert all(type(c) is int for vec in cell.planes for c in vec)
            rows = list(map(_row, cell.planes, cell.signs))
            assert all(primitive_int(row) for row, _ in rows)
            prepared = _fm_prepare(rows, m)
            solved, levels = prepared
            assert all(primitive_int(row) for _, row in solved)
            assert all(primitive_int(row) for _, level in levels for row, _ in level)
            assert all(type(x) is Fraction for x in cell.sample)
            assert all(type(x) is Fraction for x in LinearCellSampler(cell).draw(rng))
            assert all(type(x) is Fraction for x in _fm_draw(prepared, m, record))
    assert bounds and all(type(b) is Fraction for b in bounds)
    assert any(b.denominator > 1 for b in bounds)


# -- the Fraction reference: the polytope splitter and the Fourier-Motzkin
# elimination computed in Fractions, which the int linear layer must match
# cell for cell

def ref_row(vec, sign):
    if sign < 0:
        return tuple(Fraction(-c) for c in vec), ">"
    return tuple(map(Fraction, vec)), ">" if sign else "="


def ref_substitute(vec, var, solution):
    coeff = vec[var]
    out = list(vec)
    out[var] = Fraction(0)
    if coeff:
        for i in range(len(vec)):
            if i != var:
                out[i] += coeff * solution[i]
    return tuple(out)


def ref_fm_eliminate(work, var):
    lowers = [(v, r) for v, r in work if v[var] > 0]
    uppers = [(v, r) for v, r in work if v[var] < 0]
    out = [(v, r) for v, r in work if v[var] == 0]
    for lv, lr in lowers:
        scale_l = tuple(c / lv[var] for c in lv)
        for uv, ur in uppers:
            scale_u = tuple(c / -uv[var] for c in uv)
            out.append((tuple(sl + su for sl, su in zip(scale_l, scale_u)),
                        ">=" if (lr == ">=" and ur == ">=") else ">"))
    return out


def ref_fm_levels(work, nvars):
    levels = []
    for var in range(nvars - 1, -1, -1):
        if any(v[var] != 0 for v, _ in work):
            levels.append((var, work))
            if var:
                work = ref_fm_eliminate(work, var)
    return levels


def ref_fm_bounds(rows, var, values):
    lo, lo_strict, hi, hi_strict = None, False, None, False
    for vec, rel in rows:
        coeff = vec[var]
        rest = vec[-1] + sum(vec[i] * x for i, x in values.items())
        if coeff == 0:
            if rest < 0 or (rest == 0 and rel == ">"):
                return None
            continue
        bound = -rest / coeff
        if coeff > 0:
            if lo is None or bound > lo or (bound == lo and rel == ">"):
                lo, lo_strict = bound, rel == ">"
        elif hi is None or bound < hi or (bound == hi and rel == ">"):
            hi, hi_strict = bound, rel == ">"
    if lo is not None and hi is not None and (
            lo > hi or (lo == hi and (lo_strict or hi_strict))):
        return None
    return lo, lo_strict, hi, hi_strict


def ref_fm_sample(constraints, nvars):
    """The midpoint sample of a system, or None when it is infeasible."""
    solved, work = [], list(constraints)
    while any(rel == "=" for _, rel in work):
        idx, vec = next((i, v) for i, (v, rel) in enumerate(work) if rel == "=")
        work.pop(idx)
        pivot = next((i for i in range(nvars) if vec[i] != 0), None)
        if pivot is None:
            if vec[-1] != 0:
                return None
            continue
        solution = tuple(-c / vec[pivot] if i != pivot else Fraction(0)
                         for i, c in enumerate(vec))
        work = [(ref_substitute(v, pivot, solution), r) for v, r in work]
        solved.append((pivot, solution))
    levels = ref_fm_levels(work, nvars)
    var, rows = levels[-1] if levels else (0, work)
    if ref_fm_bounds(rows, var, {}) is None:
        return None
    values = {}
    for var, rows in reversed(levels):
        values[var] = _pick_interior(*ref_fm_bounds(rows, var, values))
    for var, solution in reversed(solved):
        values[var] = solution[-1] + sum(solution[i] * x for i, x in values.items())
    return tuple(values.get(i, Fraction(0)) for i in range(nvars))


def ref_enumerate_fm(planes, m):
    out = []

    def descend(idx, system, signs, sample):
        if idx == len(planes):
            out.append((tuple(signs), sample))
            return
        vec = planes[idx]
        sample_sign = sign(_plane_value(vec, sample))
        for s in (-1, 0, 1):
            extended = system + [ref_row(vec, s)]
            drawn = sample if s == sample_sign else ref_fm_sample(extended, m)
            if drawn is not None:
                descend(idx + 1, extended, signs + [s], drawn)

    descend(0, [], [], tuple(Fraction(0) for _ in range(m)))
    return out


def ref_dedupe_ring(points):
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def ref_area_positive(ring):
    if len(ring) < 3:
        return False
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
               in zip(ring, ring[1:] + ring[:1])) != 0


def ref_split(vertices, vec):
    values = [_plane_value(vec, v) for v in vertices]
    if len(vertices) == 1:
        s = sign(values[0])
        return tuple(vertices if s == want else None for want in (-1, 0, 1))
    if len(vertices) == 2:
        (a, b), (va, vb) = vertices, values
        if va * vb > 0:
            return (vertices if va < 0 else None, None, vertices if va > 0 else None)
        if va == 0 and vb == 0:
            return (None, vertices, None)
        if va == 0 or vb == 0:
            side = vb if va == 0 else va
            return (vertices if side < 0 else None, None, vertices if side > 0 else None)
        t = va / (va - vb)
        cut = tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))
        return ([a, cut] if va < 0 else [cut, b], [cut], [cut, b] if vb > 0 else [a, cut])
    neg, pos, zero = [], [], []
    for a, b, va, vb in zip(vertices, vertices[1:] + vertices[:1],
                            values, values[1:] + values[:1]):
        if va <= 0:
            neg.append(a)
        if va >= 0:
            pos.append(a)
        if va == 0:
            zero.append(a)
        if va * vb < 0:
            t = va / (va - vb)
            cut = tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))
            neg.append(cut)
            pos.append(cut)
            zero.append(cut)
    neg, pos, zero = map(ref_dedupe_ring, (neg, pos, zero))
    return (neg if ref_area_positive(neg) else None, zero if len(zero) == 2 else None,
            pos if ref_area_positive(pos) else None)


def ref_enumerate_boxed(planes, m):
    if m == 0:
        return [((), ())]
    worst = max([Fraction(1)] + [Fraction(sum(map(abs, vec))) for vec in planes])
    r = (worst * worst + 1) * 4
    box = [(-r,), (r,)] if m == 1 else [(-r, -r), (r, -r), (r, r), (-r, r)]
    regions = [((), box)]
    for vec in planes:
        regions = [(signs + (s,), part) for signs, verts in regions
                   for s, part in zip((-1, 0, 1), ref_split(verts, vec)) if part is not None]
    return [(signs, tuple(sum(v[d] for v in verts) / len(verts) for d in range(m)))
            for signs, verts in regions]


def ref_decompose_linear(exprs, params):
    planes = canonical_planes(exprs, params)
    enumerate_cells = ref_enumerate_boxed if len(params) <= 2 else ref_enumerate_fm
    return planes, sorted(enumerate_cells(planes, len(params)), key=lambda cell: cell[0])


def test_decompose_linear_matches_fraction_reference():
    rng = random.Random(23)
    for case in range(60):
        m = 1 + case % 3
        params = ("a", "b", "c")[:m]
        exprs = [lin(rng.randint(-6, 6), **{p: rng.randint(-4, 4) for p in params})
                 for _ in range(rng.randint(1, 5 if m < 3 else 3))]
        planes, want = ref_decompose_linear(exprs, params)
        cells = decompose_linear(exprs, params)
        assert all(cell.planes == planes for cell in cells)
        assert [(cell.signs, cell.sample) for cell in cells] == want, exprs
        assert all(type(x) is Fraction for cell in cells for x in cell.sample)
