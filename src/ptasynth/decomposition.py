"""Sign-invariant decomposition of the parameter space with exact samples.

Two decompositions are provided.  For one parameter, linear or
polynomial, the real line splits at the roots of the given polynomials
into point and interval cells.  ``project_clock`` makes those
polynomials: it projects the clock variable out (coefficients, a
resultant against the clock derivative, pairwise resultants) and passes
clock-free inputs through.  The synthesis pipeline passes it clock-free
threshold differences only; the general projection serves the tests and
``selftest``.  For two or three parameters with linear expressions, the
realizable sign vectors over the hyperplanes are enumerated: at two by
splitting exact polytopes, at three by a depth-first search with
Fourier-Motzkin feasibility pruning.  Strictness never goes through a
numeric epsilon.

A linear cell is its sign vector over the arrangement's canonical integer
plane vectors, one tuple that every cell of the arrangement shares.
``_row`` turns one plane and sign into the int row of one Fourier-Motzkin
core (``_fm_levels``, ``_fm_eliminate``, ``_fm_bounds``), which projects
every linear system here: the cell samples, ``LinearCellSampler`` and the
least integer point of a cell.  Rows stay primitive int vectors through
the elimination; only bounds and samples are ``Fraction``s.

Every cell carries an exact sample point: rational in open cells,
algebraic only at irrational 1D point cells.  A 1D point cell also
carries the polynomials that vanish at its root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .expressions import Expression
from .model import UnsupportedError
from .polynomials import (
    AlgebraicNumber,
    BivarPoly,
    IntPoly,
    bivar_derivative_x,
    bivar_degree_x,
    bivar_trim,
    isolate_real_roots,
    poly_degree,
    poly_is_zero,
    poly_primitive,
    poly_sign_at,
    poly_trim,
    sylvester_resultant_x,
)
from .scalars import INF, NEG_INF

REL_GT = ">"
REL_GE = ">="
REL_EQ = "="

Vector = Tuple[int, ...]                 # coefficients then constant


@dataclass
class Cell1D:
    """A point or open interval on the parameter line.

    A point cell's ``vanishing`` is its root's provenance: the polynomials
    given to :func:`decompose_1d` that vanish at it (empty on an interval).
    """

    kind: str                      # "point" | "interval"
    lo: object                     # Fraction | AlgebraicNumber | NEG_INF
    hi: object                     # Fraction | AlgebraicNumber | INF
    sample: object                 # Fraction | AlgebraicNumber
    vanishing: FrozenSet[IntPoly] = frozenset()

    def contains(self, value) -> bool:
        if self.kind == "point":
            return value == self.lo
        return self.lo < value < self.hi


@dataclass
class LinearCell:
    """A realizable sign vector over a hyperplane arrangement."""

    planes: Tuple[Vector, ...]       # the arrangement's canonical planes, shared
    signs: Tuple[int, ...]
    sample: Tuple[Fraction, ...]
    params: Tuple[str, ...]

    @property
    def constraints(self) -> Tuple[Tuple[Expression, str], ...]:
        """The cell as ``(expr, rel)`` pairs meaning ``expr rel 0``."""
        return tuple(plane_constraint(vec, s, self.params)
                     for vec, s in zip(self.planes, self.signs))

    def contains(self, point: Sequence[Fraction]) -> bool:
        return all(_sign(_plane_value(vec, point)) == s
                   for vec, s in zip(self.planes, self.signs))


# -- projection ----------------------------------------------------------------

def project_clock(polys: Sequence[BivarPoly]) -> List[IntPoly]:
    """Project the clock out of Z[p][x] polynomials.

    Output: for each input, every x-coefficient (the reducta leading
    coefficients) and the resultant with its own x-derivative; plus the
    resultant of every two inputs with the clock.  Clock-free inputs pass
    through.  Constants are dropped and the result is primitive,
    sign-normalized, deduplicated, and sorted.

    The synthesis pipeline passes only clock-free threshold differences,
    so it computes no resultant here; the general projection serves the
    tests and ``selftest``.
    """
    out = set()

    def keep(p: IntPoly):
        p = poly_primitive(poly_trim(p))
        if poly_degree(p) >= 1:
            out.add(p)

    withx = []
    for f in polys:
        f = bivar_trim(f)
        if bivar_degree_x(f) <= 0:
            if f:
                keep(f[0])
            continue
        withx.append(f)
        # leading coefficients of the reducta chain, truncated at the first
        # one that is a nonzero constant (that reductum never degenerates)
        for coeff in reversed(f):
            if poly_degree(coeff) == 0 and not poly_is_zero(coeff):
                break
            keep(coeff)
        keep(sylvester_resultant_x(f, bivar_derivative_x(f)))
    for f, g in combinations(withx, 2):
        keep(sylvester_resultant_x(f, g))
    return sorted(out)


# -- one-dimensional decomposition ---------------------------------------------

def decompose_1d(polys: Sequence[IntPoly]) -> List[Cell1D]:
    """Split the line at all real roots of the given polynomials.

    Cells come back ordered: interval, point, interval, ..., point,
    interval.  Interval samples are rational; point samples are the roots
    themselves (rational when possible).  Each point cell records the
    polynomials that vanish at its root: every polynomial that has the root
    among its isolated roots, found by the deduplication at no extra cost.
    """
    # A rational root never equals an irrational one, and comparing the two
    # refines neither: rational roots are deduplicated by value, and each
    # irrational one is compared with the earlier irrational ones only, in
    # the order they were found, so the intervals refine as in a pairwise
    # comparison with every earlier root.
    roots: List[Tuple[AlgebraicNumber, List[IntPoly]]] = []
    rational: Dict[Fraction, List[IntPoly]] = {}
    irrational: List[Tuple[AlgebraicNumber, List[IntPoly]]] = []
    for f in polys:
        if poly_is_zero(f) or poly_degree(f) < 1:
            continue
        for r in isolate_real_roots(f):
            if r.is_rational():
                zeros = rational.get(r.lo)
                if zeros is None:
                    zeros = rational[r.lo] = []
                    roots.append((r, zeros))
            else:
                zeros = next((z for seen, z in irrational if r == seen), None)
                if zeros is None:
                    zeros = []
                    irrational.append((r, zeros))
                    roots.append((r, zeros))
            zeros.append(f)
    # a rational root sorts by its Fraction, which against an irrational
    # root makes the same comparison without the AlgebraicNumber overhead
    roots.sort(key=lambda root: root[0].lo if root[0].is_rational() else root[0])
    if not roots:
        return [Cell1D("interval", NEG_INF, INF, Fraction(0))]

    values = [r.lo if r.is_rational() else r for r, _ in roots]
    cells: List[Cell1D] = [Cell1D("interval", NEG_INF, values[0],
                                  Fraction(math.floor(roots[0][0]) - 1))]
    for i, (r, zeros) in enumerate(roots):
        cells.append(Cell1D("point", values[i], values[i], values[i], frozenset(zeros)))
        if i + 1 < len(roots):
            cells.append(Cell1D("interval", values[i], values[i + 1],
                                _between(r, roots[i + 1][0])))
    cells.append(Cell1D("interval", values[-1], INF, Fraction(math.ceil(roots[-1][0]) + 1)))
    return cells


def _between(a: AlgebraicNumber, b: AlgebraicNumber) -> Fraction:
    """A rational strictly between two distinct ordered roots."""
    while not a.hi < b.lo:
        if a.is_rational() and b.is_rational():
            return (a.lo + b.lo) / 2
        a.refine()
        b.refine()
    return (a.hi + b.lo) / 2


# -- exact linear systems (Fourier-Motzkin) -------------------------------------

def expr_to_vector(e: Expression, params: Sequence[str]) -> Vector:
    if not e.is_linear():
        raise UnsupportedError(
            "polynomial expressions are supported with exactly one parameter")
    terms = e.terms
    return tuple(terms.get(((p, 1),), 0) for p in params) + (terms.get((), 0),)


def vector_to_expr(vec: Vector, params: Sequence[str]) -> Expression:
    coeffs = {p: int(vec[i]) for i, p in enumerate(params)}
    return Expression.linear(int(vec[-1]), coeffs)


def plane_constraint(vec: Vector, sign: int, params: Sequence[str]) -> Tuple[Expression, str]:
    """Plane ``vec`` having ``sign`` as an ``(expr, rel)`` pair meaning
    ``expr rel 0``."""
    row, rel = _row(vec, sign)
    return vector_to_expr(row, params), rel


def _canonical_hyperplane(vec: Vector) -> Optional[Vector]:
    """Primitive, sign-normalized form; None for the zero functional."""
    lead = next((c for c in vec[:-1] if c != 0), 0)
    if lead == 0:
        return None
    g = math.gcd(*vec) * (1 if lead > 0 else -1)
    return tuple(c // g for c in vec)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _row(vec: Vector, sign: int) -> Tuple[Vector, str]:
    """The Fourier-Motzkin row saying plane ``vec`` has ``sign``:
    ``vec = 0``, ``vec > 0`` or ``-vec > 0``."""
    if sign < 0:
        return tuple(-c for c in vec), REL_GT
    return vec, REL_GT if sign else REL_EQ


def _primitive(vec: Vector) -> Vector:
    """An int vector divided by the gcd of its entries; a positive
    multiple, so a row keeps its relation (the zero vector as it is)."""
    g = math.gcd(*vec)
    return tuple(c // g for c in vec) if g > 1 else vec


def _substitute(vec: Vector, var: int, eq: Vector) -> Vector:
    """Eliminate variable ``var`` from ``vec`` by the equality ``eq = 0``:
    a positive multiple of ``vec`` plus a multiple of ``eq``."""
    coeff = vec[var]
    if not coeff:
        return vec
    pivot = eq[var]
    factor = coeff if pivot > 0 else -coeff
    return _primitive(tuple(abs(pivot) * c - factor * e for c, e in zip(vec, eq)))


def _fm_prepare(constraints, nvars):
    """Project a system down to its lowest variable; None when infeasible.

    ``constraints`` are (vector, rel) with rel in {>, >=, =} meaning
    vec . (vars, 1) rel 0.  Equalities are eliminated by pivoting, the
    rest by ``_fm_levels``; the levels are kept so samples can be drawn
    repeatedly.
    """
    solved: List[Tuple[int, Vector]] = []
    work = [(tuple(v), rel) for v, rel in constraints]

    changed = True
    while changed:
        changed = False
        for idx, (vec, rel) in enumerate(work):
            if rel != REL_EQ:
                continue
            pivot = next((i for i in range(nvars) if vec[i] != 0), None)
            if pivot is None:
                if vec[-1] != 0:
                    return None
                work.pop(idx)
            else:
                work.pop(idx)
                work = [(_substitute(v, pivot, vec), r) for v, r in work]
                solved.append((pivot, vec))
            changed = True
            break

    levels = _fm_levels(work, nvars)
    var, rows = levels[-1] if levels else (0, work)
    if _fm_bounds(rows, var, {}) is None:
        return None
    return solved, levels


def _fm_levels(work, nvars):
    """Fourier-Motzkin elimination of ``>``/``>=`` rows, highest variable
    first: ``(var, rows)`` for every variable still mentioned once the
    higher ones are gone.  The lowest variable is never eliminated, so
    feasibility is ``_fm_bounds`` of the last level."""
    levels = []
    for var in range(nvars - 1, -1, -1):
        if any(v[var] != 0 for v, _ in work):
            levels.append((var, work))
            if var:
                work = _fm_eliminate(work, var)
    return levels


def _fm_eliminate(work, var):
    """The rows without ``var`` plus every lower bound combined with every
    upper bound, cross-multiplied and primitive; strict when either side
    is."""
    lowers = [(v, r) for v, r in work if v[var] > 0]
    uppers = [(v, r) for v, r in work if v[var] < 0]
    out = [(v, r) for v, r in work if v[var] == 0]
    for lv, lr in lowers:
        a = lv[var]
        for uv, ur in uppers:
            b = -uv[var]
            out.append((_primitive(tuple(b * cl + a * cu for cl, cu in zip(lv, uv))),
                        REL_GE if (lr == REL_GE and ur == REL_GE) else REL_GT))
    return out


def _fm_bounds(rows, var, values):
    """Exact ``Fraction`` bounds ``(lo, lo_strict, hi, hi_strict)`` on
    ``var`` with the variables in ``values`` fixed (None for a missing
    side); None when a row without ``var`` fails or the interval is
    empty."""
    lo, lo_strict = None, False
    hi, hi_strict = None, False
    for vec, rel in rows:
        coeff = vec[var]
        rest = vec[-1] + sum(vec[i] * x for i, x in values.items())
        if coeff == 0:
            if rest < 0 or (rest == 0 and rel == REL_GT):
                return None
            continue
        bound = Fraction(-rest, coeff)
        if coeff > 0:
            if lo is None or bound > lo or (bound == lo and rel == REL_GT):
                lo, lo_strict = bound, rel == REL_GT
        else:
            if hi is None or bound < hi or (bound == hi and rel == REL_GT):
                hi, hi_strict = bound, rel == REL_GT
    if lo is not None and hi is not None and (
            lo > hi or (lo == hi and (lo_strict or hi_strict))):
        return None
    return lo, lo_strict, hi, hi_strict


def _fm_draw(prepared, nvars, choose=None):
    """One sample from a prepared elimination (midpoints by default)."""
    solved, levels = prepared
    picker = choose or _pick_interior
    values: Dict[int, Fraction] = {}
    for var, rows in reversed(levels):
        values[var] = picker(*_fm_bounds(rows, var, values))
    for var, eq in reversed(solved):
        values[var] = Fraction(-(eq[-1] + sum(eq[i] * x for i, x in values.items())),
                               eq[var])
    return tuple(values.get(i, Fraction(0)) for i in range(nvars))


def _pick_interior(lo, lo_strict, hi, hi_strict) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_strict else hi
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo == hi:
        return lo
    return (lo + hi) / 2


class LinearCellSampler:
    """Draw many random interior points of one cell without re-eliminating."""

    def __init__(self, cell: LinearCell):
        self.cell = cell
        self.prepared = _fm_prepare(list(map(_row, cell.planes, cell.signs)),
                                    len(cell.params))
        assert self.prepared is not None

    def draw(self, rng) -> Tuple[Fraction, ...]:
        def choose(lo, lo_strict, hi, hi_strict):
            t = Fraction(rng.randrange(1, 16), 16)
            if lo is None and hi is None:
                return Fraction(rng.randrange(-8, 9))
            if lo is None:
                return hi - (t if hi_strict else t * rng.randrange(0, 2))
            if hi is None:
                return lo + (t if lo_strict else t * rng.randrange(0, 2)) + rng.randrange(0, 8)
            if lo == hi:
                return lo
            return lo + (hi - lo) * t

        return _fm_draw(self.prepared, len(self.cell.params), choose)


def random_point_in_cell1d(cell: Cell1D, rng) -> Fraction:
    """A random exact rational inside a 1D cell (the point itself for
    rational sections; irrational sections have no rational members)."""
    if cell.kind == "point":
        if isinstance(cell.lo, Fraction):
            return cell.lo
        raise ValueError("irrational point cell has no rational members")
    width = Fraction(1, 64)
    while True:
        lo, hi = cell.lo, cell.hi
        if isinstance(lo, AlgebraicNumber):
            lo.refine_below(width)
            lo = lo.hi
        if isinstance(hi, AlgebraicNumber):
            hi.refine_below(width)
            hi = hi.lo
        if lo is NEG_INF or hi is INF or lo < hi:
            break
        width /= 4
    t = Fraction(rng.randrange(1, 64), 64)
    if lo is NEG_INF and hi is INF:
        return Fraction(rng.randrange(-40, 41))
    if lo is NEG_INF:
        return hi - t - rng.randrange(0, 20)
    if hi is INF:
        return lo + t + rng.randrange(0, 20)
    return lo + (hi - lo) * t


def canonical_planes(exprs: Sequence[Expression],
                     params: Sequence[str]) -> Tuple[Vector, ...]:
    """The sorted canonical hyperplane vectors a decomposition will use;
    cell sign vectors align with this order."""
    canon = set()
    for e in exprs:
        vec = _canonical_hyperplane(expr_to_vector(e, tuple(params)))
        if vec is not None:
            canon.add(vec)
    return tuple(sorted(canon))


def decompose_linear(exprs: Sequence[Expression], params: Sequence[str]) -> List[LinearCell]:
    """Enumerate realizable sign vectors over the hyperplanes ``expr = 0``.

    Cells are emitted in lexicographic sign-vector order (-1 < 0 < +1)
    over the sorted canonical hyperplanes; each gets an exact interior
    rational sample (relative-interior on equality faces).

    Up to two parameters, cells are carried as exact convex polytopes
    clipped inside a bounding box that provably contains a point of every
    cell, so no elimination runs in the enumeration loop; their vertices
    are homogeneous int tuples, and only the samples are ``Fraction``s.
    Three parameters fall back to a depth-first search with
    Fourier-Motzkin pruning over int rows.
    """
    params = tuple(params)
    m = len(params)
    if m > 3:
        raise UnsupportedError("linear decomposition supports up to 3 parameters")
    planes = canonical_planes(exprs, params)
    enumerate_cells = _enumerate_boxed if m <= 2 else _enumerate_fm
    cells = [LinearCell(planes, tuple(signs), tuple(sample), params)
             for signs, sample in enumerate_cells(planes, m)]
    cells.sort(key=lambda c: c.signs)
    return cells


def _enumerate_fm(planes, m):
    out = []

    def descend(idx, system, signs, sample):
        if idx == len(planes):
            out.append((tuple(signs), sample))
            return
        vec = planes[idx]
        sample_sign = _sign(_plane_value(vec, sample))
        for sign in (-1, 0, 1):
            extended = system + [_row(vec, sign)]
            if sign == sample_sign:
                descend(idx + 1, extended, signs + [sign], sample)
                continue
            prepared = _fm_prepare(extended, m)
            if prepared is not None:
                descend(idx + 1, extended, signs + [sign], _fm_draw(prepared, m))

    descend(0, [], [], tuple(Fraction(0) for _ in range(m)))
    return out


# -- exact polytope splitting for one and two parameters -------------------------

def _plane_value(vec, point):
    return vec[-1] + sum(c * x for c, x in zip(vec, point))


def _box_radius(planes, m) -> int:
    """A radius such that every cell of the arrangement meets the open box.

    All vertices of the arrangement have coordinates bounded via Cramer's
    rule by (sum of |entries|)^2; doubling that and adding slack keeps a
    point of every unbounded cell strictly inside as well.  The box's
    corners are the splitter's first homogeneous int vertices.
    """
    worst = max((sum(map(abs, vec)) for vec in planes), default=1)
    return (worst * worst + 1) * 4


def _cut(a, b, va, vb):
    """The point between homogeneous vertices ``a`` and ``b`` where a plane
    with the values ``va`` and ``vb`` of opposite signs there vanishes:
    ``vb*a - va*b``, signed so that its ``w`` is positive, made primitive."""
    if va > 0:
        a, b, va, vb = b, a, vb, va
    return _primitive(tuple(vb * x - va * y for x, y in zip(a, b)))


def _split_polytope(vertices, vec):
    """Split a convex polytope (point/segment/CCW polygon) by a hyperplane
    into its negative, zero, and positive parts.

    A vertex is a primitive homogeneous int tuple ``(x_1, ..., x_m, w)``
    with ``w > 0`` for the point ``x / w``, so the plane's side is an int
    dot product and equal points are equal tuples.  Parts are closures; a
    part counts as present only when its relative interior meets the open
    side, which for the zero part means it must have the parent's
    dimension minus one (a mere touch at the boundary belongs to
    neighbouring sign vectors, not to this cell).
    """
    values = [sum(map(mul, vec, v)) for v in vertices]
    if len(vertices) == 1:
        s = (values[0] > 0) - (values[0] < 0)
        return (
            vertices if s < 0 else None,
            vertices if s == 0 else None,
            vertices if s > 0 else None,
        )
    if len(vertices) == 2:
        (a, b), (va, vb) = vertices, values
        if va > 0 and vb > 0 or va < 0 and vb < 0:
            return (vertices if va < 0 else None, None, vertices if va > 0 else None)
        if va == 0 and vb == 0:
            return (None, vertices, None)
        if va == 0 or vb == 0:
            # touches an endpoint: the zero point is on the segment's
            # boundary, hence not in the open cell
            side = vb if va == 0 else va
            return (vertices if side < 0 else None, None, vertices if side > 0 else None)
        cut = _cut(a, b, va, vb)
        lo_part = [a, cut] if va < 0 else [cut, b]
        hi_part = [cut, b] if vb > 0 else [a, cut]
        return (lo_part, [cut], hi_part)

    neg, pos, zero_pts = [], [], []
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        va, vb = values[i], values[(i + 1) % n]
        if va <= 0:
            neg.append(a)
        if va >= 0:
            pos.append(a)
        if va == 0:
            zero_pts.append(a)
        if (va < 0 < vb) or (vb < 0 < va):
            cut = _cut(a, b, va, vb)
            neg.append(cut)
            pos.append(cut)
            zero_pts.append(cut)
    neg = _dedupe_ring(neg)
    pos = _dedupe_ring(pos)
    zero_pts = _dedupe_ring(zero_pts)
    return (
        neg if _ring_area_positive(neg) else None,
        zero_pts if len(zero_pts) == 2 else None,
        pos if _ring_area_positive(pos) else None,
    )


def _dedupe_ring(points):
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _ring_area_positive(ring) -> bool:
    """Whether a convex ring of homogeneous points encloses an area: some
    point lies off the line through the first two (an int orientation
    determinant)."""
    if len(ring) < 3:
        return False
    (x0, y0, w0), (x1, y1, w1) = ring[0], ring[1]
    a, b, c = y0 * w1 - w0 * y1, w0 * x1 - x0 * w1, x0 * y1 - y0 * x1
    return any(a * x + b * y + c * w for x, y, w in ring[2:])


def _polytope_sample(vertices):
    """The mean of the vertices, in ``Fraction`` coordinates."""
    denom = math.lcm(*(v[-1] for v in vertices))
    scales = [denom // v[-1] for v in vertices]
    total = denom * len(vertices)
    return tuple(Fraction(sum(v[d] * k for v, k in zip(vertices, scales)), total)
                 for d in range(len(vertices[0]) - 1))


def _enumerate_boxed(planes, m):
    if m == 0:
        return [((), ())]
    radius = _box_radius(planes, m)
    if m == 1:
        box = [(-radius, 1), (radius, 1)]
    else:
        box = [(-radius, -radius, 1), (radius, -radius, 1), (radius, radius, 1),
               (-radius, radius, 1)]
    regions = [((), box)]
    for vec in planes:
        nxt = []
        for signs, verts in regions:
            lo, zero, hi = _split_polytope(verts, vec)
            if lo is not None:
                nxt.append((signs + (-1,), lo))
            if zero is not None:
                nxt.append((signs + (0,), zero))
            if hi is not None:
                nxt.append((signs + (1,), hi))
        regions = nxt
    return [(signs, _polytope_sample(verts)) for signs, verts in regions]


# -- integer points ---------------------------------------------------------------

def integer_point(cell: LinearCell, box) -> Optional[Tuple[int, ...]]:
    """Lexicographically least integer point of the cell inside a box.

    ``box`` is an inclusive integer (lo, hi) range for every parameter.
    The cell and the box are projected once by ``_fm_levels``; the search
    then scans each variable ascending over its integer range given the
    values fixed before it, read from the int rows by floor division.
    """
    m = len(cell.params)
    rows = []
    for row, rel in map(_row, cell.planes, cell.signs):
        if rel == REL_EQ:
            rows.append((row, REL_GE))
            rows.append((tuple(-c for c in row), REL_GE))
        else:
            rows.append((row, rel))
    for i in range(m):
        unit = tuple(int(j == i) for j in range(m))
        rows.append((unit + (-box[0],), REL_GE))
        rows.append((tuple(-c for c in unit) + (box[1],), REL_GE))
    levels = dict(_fm_levels(rows, m))

    def search(prefix):
        depth = len(prefix)
        if depth == m:
            return tuple(prefix)
        first, last = box
        for vec, rel in levels[depth]:
            coeff = vec[depth]
            rest = vec[-1] + sum(map(mul, vec, prefix))
            # coeff * v + rest > 0 (or >= 0)
            if coeff > 0:
                first = max(first, -rest // coeff + 1 if rel == REL_GT else -(rest // coeff))
            elif coeff < 0:
                last = min(last, -(rest // coeff) - 1 if rel == REL_GT else rest // -coeff)
            elif rest < 0 or (rest == 0 and rel == REL_GT):
                return None
        for v in range(first, last + 1):
            found = search(prefix + [v])
            if found is not None:
                return found
        return None

    return search([])


def cell1d_integer_point(cell: Cell1D, minimum: Optional[int] = None) -> Optional[int]:
    """Least integer in a 1D cell (at least ``minimum`` when given), if any."""
    if cell.kind == "point":
        v = cell.lo
        if not isinstance(v, Fraction) or v.denominator != 1:
            return None
        n = int(v)
        return n if (minimum is None or n >= minimum) else None
    if cell.lo is NEG_INF:
        lo = minimum
    else:
        lo = math.floor(cell.lo) + 1
        if minimum is not None:
            lo = max(lo, minimum)
    if cell.hi is INF:
        return lo if lo is not None else 0
    hi = math.ceil(cell.hi) - 1
    if lo is None:
        return hi
    return lo if lo <= hi else None


# -- sign assignments -----------------------------------------------------------

def signs_at_1d(polys: Sequence[IntPoly], sample) -> Dict[IntPoly, int]:
    """Exact sign of each polynomial at a rational or algebraic sample."""
    out: Dict[IntPoly, int] = {}
    for f in polys:
        if isinstance(sample, AlgebraicNumber):
            out[f] = sample.sign_of(f)
        else:
            out[f] = poly_sign_at(f, Fraction(sample))
    return out
