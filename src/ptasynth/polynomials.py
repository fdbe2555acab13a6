"""Exact univariate/bivariate polynomial arithmetic and real algebraic numbers.

Univariate polynomials over the integers are coefficient tuples, lowest
degree first, with no trailing zeros; () is the zero polynomial.  Real
roots are isolated by rational-root extraction plus Sturm bisection, and
irrational roots are carried around as :class:`AlgebraicNumber` values
(square-free defining polynomial plus a shrinking isolating interval)
that support exact comparison and sign evaluation.  They and the values
:class:`AlgValue` derives from them share the base class
:class:`ExactValue`, which gives them Python's comparison operators and
``math.floor``/``math.ceil``: they sort, take ``min``/``max`` and mix
with ints, ``Fraction``s and the infinity sentinels of
:mod:`ptasynth.scalars` like any other number.  An :class:`AnchoredRoot`
is a root that also carries what a one-parameter decomposition knows
about it, so that values at it can be compared without refinement.

All arithmetic inside is on Python ints.  A sign at a rational n/d is the
sign of the homogenised value d^deg f(n/d); an interval enclosure runs
Horner's scheme on the interval ends scaled to a common denominator;
Sturm chains and gcds are primitive pseudo-remainder sequences whose
multipliers are positive, so every chain has the signs of the rational
one.  Fractions appear only at the interfaces: isolating-interval ends,
the enclosures :func:`interval_eval` returns and :func:`poly_eval`.

Bivariate work is limited to what projection needs: polynomials in
Z[p][x] as tuples of p-polynomials indexed by the x-degree, with
resultants computed from the Sylvester matrix by fraction-free
elimination.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Tuple

IntPoly = Tuple[int, ...]


class PolynomialError(ValueError):
    pass


# -- basic integer-polynomial arithmetic --------------------------------------

def poly_trim(coeffs) -> IntPoly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(f: IntPoly) -> int:
    return len(f) - 1


def poly_is_zero(f: IntPoly) -> bool:
    return not f


def poly_add(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f), len(g))
    return poly_trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                      for i in range(n)])


def poly_neg(f: IntPoly) -> IntPoly:
    return tuple(-c for c in f)


def poly_sub(f: IntPoly, g: IntPoly) -> IntPoly:
    return poly_add(f, poly_neg(g))


def poly_mul(f: IntPoly, g: IntPoly) -> IntPoly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


def poly_scale(f: IntPoly, k: int) -> IntPoly:
    if k == 0:
        return ()
    return tuple(c * k for c in f)


def poly_derivative(f: IntPoly) -> IntPoly:
    return poly_trim([i * f[i] for i in range(1, len(f))])


def poly_eval(f: IntPoly, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(f):
        total = total * x + c
    return total


def poly_sign_at(f: IntPoly, x) -> int:
    """Sign of f at a rational x (a Fraction or an int)."""
    return _sign_at(f, x.numerator, x.denominator)


def _sign_at(f: IntPoly, n: int, d: int) -> int:
    """Sign of f(n/d) for d > 0: the sign of sum c_i n^i d^(deg-i)."""
    acc = 0
    scale = 1
    for c in reversed(f):
        acc = acc * n + c * scale
        scale *= d
    return (acc > 0) - (acc < 0)


def poly_content(f: IntPoly) -> int:
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
    return g or 1


def _content_free(f: IntPoly) -> IntPoly:
    """f divided by its (positive) content; the signs of f are kept."""
    g = poly_content(f)
    return f if g == 1 else tuple(c // g for c in f)


def poly_primitive(f: IntPoly) -> IntPoly:
    out = _content_free(f)
    return poly_neg(out) if out and out[-1] < 0 else out


def poly_divexact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact division f / g in Z[t]; raises if the division has a remainder."""
    if poly_is_zero(g):
        raise PolynomialError("division by zero polynomial")
    rem = list(f)
    out = [0] * max(len(f) - len(g) + 1, 0)
    while len(poly_trim(rem)) >= len(g):
        rem = list(poly_trim(rem))
        shift = len(rem) - len(g)
        q, r = divmod(rem[-1], g[-1])
        if r:
            raise PolynomialError("inexact polynomial division")
        out[shift] = q
        for i, c in enumerate(g):
            rem[shift + i] -= q * c
        rem = list(poly_trim(rem))
        if not rem:
            break
    if poly_trim(rem):
        raise PolynomialError("inexact polynomial division")
    return poly_trim(out)


def _prem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Remainder of |lead(g)|^k * f by g in Z[t], for some k >= 0.

    The multiplier is positive, so the result is a positive multiple of
    the remainder of f by g over the rationals.
    """
    m = len(g) - 1
    lead = abs(g[-1])
    flip = -1 if g[-1] < 0 else 1
    r = list(f)
    for top in range(len(r) - 1, m - 1, -1):
        q = r[top] * flip
        if not q:
            continue
        shift = top - m
        for i in range(top):
            r[i] *= lead
        for i in range(m):
            r[shift + i] -= q * g[i]
        r[top] = 0
    return poly_trim(r)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] via a primitive pseudo-remainder sequence."""
    a, b = _content_free(f), _content_free(g)
    while b:
        a, b = b, _content_free(_prem(a, b))
    return poly_primitive(a)


def square_free_part(f: IntPoly) -> IntPoly:
    if poly_degree(f) < 1:
        return poly_primitive(f)
    return poly_primitive(poly_divexact(poly_primitive(f),
                                        poly_gcd(f, poly_derivative(f))))


# -- Sturm sequences and root isolation ---------------------------------------

def sturm_chain(f: IntPoly) -> List[IntPoly]:
    """Sturm chain of a square-free polynomial, in Z[t].

    Each member is a positive multiple of the member of the rational
    chain f, f', -rem(f, f'), ..., so both have the same signs everywhere.
    """
    chain = [f, _content_free(poly_derivative(f))]
    while chain[-1]:
        chain.append(poly_neg(_content_free(_prem(chain[-2], chain[-1]))))
    chain.pop()
    return chain


def _sign_variations_at(chain, x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    signs = []
    for poly in chain:
        s = _sign_at(poly, n, d)
        if s:
            signs.append(s)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def sturm_root_count(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _sign_variations_at(chain, a) - _sign_variations_at(chain, b)


def cauchy_root_bound(f: IntPoly) -> int:
    if poly_degree(f) < 1:
        return 1
    lead = abs(f[-1])
    worst = max(abs(c) for c in f[:-1]) if len(f) > 1 else 0
    return 1 + -(-worst // lead)


def rational_roots(f: IntPoly) -> List[Fraction]:
    """All rational roots of f (with the candidates test), sorted."""
    f = poly_primitive(f)
    roots = set()
    while f and f[0] == 0:
        roots.add(Fraction(0))
        f = tuple(f[1:])
    if poly_degree(f) >= 1:
        lead, const = abs(f[-1]), abs(f[0])
        for num in _divisors(const):
            for den in _divisors(lead):
                for n in (num, -num):
                    if _sign_at(f, n, den) == 0:
                        roots.add(Fraction(n, den))
    return sorted(roots)


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _order(op):
    """The rich comparison ``op(self, other)`` read off ``compare_scalar``."""
    def compare(self, other):
        if other is self:
            return op(0, 0)
        if isinstance(other, (int, Fraction, ExactValue)):
            return op(self.compare_scalar(other), 0)
        return NotImplemented
    return compare


class ExactValue:
    """Order and rounding for exact values that define ``compare_scalar``
    (-1, 0 or +1 against an int, a ``Fraction`` or another exact value),
    ``__floor__`` and ``__neg__``.

    Any other operand gets ``NotImplemented``, so the infinity sentinels
    answer through their own reflected operators.
    """

    __slots__ = ()
    # compared by value and refined in place: never a dict key
    __hash__ = None

    __eq__ = _order(operator.eq)
    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __ceil__(self) -> int:
        return -math.floor(-self)


class AlgebraicNumber(ExactValue):
    """A real root of a square-free integer polynomial, isolated in an interval.

    Rational values use a degenerate interval lo == hi.  Irrational values
    keep lo < root < hi with poly(lo) and poly(hi) nonzero of opposite
    signs; refinement bisects while preserving that invariant.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    @staticmethod
    def from_rational(value) -> "AlgebraicNumber":
        value = Fraction(value)
        return AlgebraicNumber((-value.numerator, value.denominator), value, value)

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise PolynomialError("not a rational value")
        return self.lo

    def refine(self):
        if self.is_rational():
            return
        mid = (self.lo + self.hi) / 2
        v = poly_sign_at(self.poly, mid)
        if v == 0:
            self.lo = self.hi = mid
            return
        if (poly_sign_at(self.poly, self.lo) > 0) != (v > 0):
            self.hi = mid
        else:
            self.lo = mid

    def refine_below(self, width: Fraction):
        while not self.is_rational() and self.hi - self.lo > width:
            self.refine()

    # exact comparisons ----------------------------------------------------

    def compare_scalar(self, other) -> int:
        if isinstance(other, AlgebraicNumber):
            return self._compare_algebraic(other)
        if isinstance(other, ExactValue):
            return -other.compare_scalar(self)
        q = Fraction(other)
        if self.is_rational():
            return (self.lo > q) - (self.lo < q)
        if q <= self.lo:
            return 1
        if q >= self.hi:
            return -1
        v = poly_sign_at(self.poly, q)
        if v == 0:
            return 0
        return -1 if (poly_sign_at(self.poly, self.lo) > 0) != (v > 0) else 1

    def _compare_algebraic(self, other: "AlgebraicNumber") -> int:
        """Refine both until the intervals are disjoint or share a common
        root; the gcd and its chain are taken once the intervals overlap."""
        if self.is_rational():
            return -other.compare_scalar(self.lo)
        if other.is_rational():
            return self.compare_scalar(other.lo)
        common_chain = None
        shared_checked = False
        while True:
            if self.hi <= other.lo:
                return -1
            if self.lo >= other.hi:
                return 1
            if not shared_checked:
                shared_checked = True
                common = poly_gcd(self.poly, other.poly)
                if poly_degree(common) >= 1:
                    common_chain = sturm_chain(common)
            if common_chain is not None:
                lo = max(self.lo, other.lo)
                hi = min(self.hi, other.hi)
                if lo < hi and sturm_root_count(common_chain, lo, hi) >= 1:
                    # the shared root lies in both isolating intervals
                    return 0
            self.refine()
            other.refine()

    def sign_of(self, g: IntPoly) -> int:
        """Exact sign of g at this number.

        An interval enclosure of g over the isolating interval that
        excludes 0 decides the sign at once; only when it straddles 0 is
        the gcd with the defining polynomial taken, to see whether g
        vanishes at the root, before refining.
        """
        if poly_is_zero(g):
            return 0
        if self.is_rational():
            return poly_sign_at(g, self.lo)
        shared_checked = False
        while True:
            lo_v, hi_v, _ = _interval_horner(g, self.lo, self.hi)
            if lo_v > 0:
                return 1
            if hi_v < 0:
                return -1
            if not shared_checked:
                shared_checked = True
                common = poly_gcd(self.poly, g)
                if poly_degree(common) >= 1 and \
                        sturm_root_count(sturm_chain(common), self.lo, self.hi) >= 1:
                    return 0
            self.refine()

    def __floor__(self) -> int:
        if self.is_rational():
            return math.floor(self.lo)
        while True:
            if math.floor(self.lo) == math.floor(self.hi):
                return math.floor(self.lo)
            # interval shorter than 1 spans a single integer boundary
            if self.hi - self.lo < 1:
                n = math.floor(self.hi)
                c = self.compare_scalar(n)
                if c == 0:
                    return n
                return n - 1 if c < 0 else n
            self.refine()

    def __neg__(self) -> "AlgebraicNumber":
        mirrored = poly_trim([c * (-1) ** i for i, c in enumerate(self.poly)])
        return AlgebraicNumber(mirrored, -self.hi, -self.lo)

    def __repr__(self):
        if self.is_rational():
            return "AlgebraicNumber(%s)" % self.lo
        return "AlgebraicNumber(%s, (%s, %s))" % (list(self.poly), self.lo, self.hi)


class AnchoredRoot(AlgebraicNumber):
    """An irrational root of a one-parameter decomposition, with what its
    cell's neighbour knows: ``below``, the rational sample of the interval
    cell on its left, and ``vanishing``, the decomposition's polynomials
    that vanish at the root.

    Each of those polynomials keeps one sign from ``below`` up to the root
    and is 0 at the root exactly when it is in ``vanishing``.  So values
    whose differences are such polynomials (times a nonzero int) compare at
    the root as they compare at ``below``, except for the differences in
    ``vanishing``, which are 0 there.  Elsewhere it is the root itself.
    """

    __slots__ = ("below", "vanishing")

    def __init__(self, root: AlgebraicNumber, below: Fraction, vanishing: frozenset):
        super().__init__(root.poly, root.lo, root.hi)
        self.below = below
        self.vanishing = vanishing


def interval_eval(g: IntPoly, lo: Fraction, hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Enclosure of g over [lo, hi] by interval Horner evaluation."""
    a, b, scale = _interval_horner(g, lo, hi)
    return Fraction(a, scale), Fraction(b, scale)


def _interval_horner(g: IntPoly, lo: Fraction, hi: Fraction) -> Tuple[int, int, int]:
    """Interval Horner scheme on ints: returns (a, b, s) with s > 0 such
    that [a/s, b/s] is the enclosure of g over [lo, hi].

    With lo = L/D and hi = H/D, the bounds after step j are those of the
    rational scheme times D^(j-1), so each step adds c * D^(j-1).
    """
    if not g:
        return 0, 0, 1
    den = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    low = lo.numerator * (den // lo.denominator)
    high = hi.numerator * (den // hi.denominator)
    coeffs = reversed(g)
    a = b = next(coeffs)
    scale = 1
    for c in coeffs:
        scale *= den
        candidates = (a * low, a * high, b * low, b * high)
        c *= scale
        a, b = min(candidates) + c, max(candidates) + c
    return a, b, scale


def isolate_real_roots(f: IntPoly) -> List[AlgebraicNumber]:
    """All distinct real roots of f, in increasing order.

    Rational roots come back with degenerate intervals; the rest carry
    isolating intervals from Sturm bisection over the square-free part.
    A degree-1 f has its root -f[0]/f[1] read off directly.
    """
    if poly_is_zero(f):
        raise PolynomialError("zero polynomial has no isolated roots")
    if len(f) == 2:
        return [AlgebraicNumber.from_rational(Fraction(-f[0], f[1]))]
    g = square_free_part(f)
    if poly_degree(g) < 1:
        return []
    rational = rational_roots(g)
    for r in rational:
        # g and the factor den*t - num are primitive, so (Gauss) the
        # quotient is an integer polynomial
        g = poly_primitive(poly_divexact(g, (-r.numerator, r.denominator)))
    roots = [AlgebraicNumber.from_rational(r) for r in rational]
    if poly_degree(g) >= 1:
        chain = sturm_chain(g)
        bound = Fraction(cauchy_root_bound(g))
        stack = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            count = sturm_root_count(chain, lo, hi)
            if count == 0:
                continue
            if count == 1:
                roots.append(AlgebraicNumber(g, lo, hi))
                continue
            mid = (lo + hi) / 2
            # g has no rational roots left, so mid is never a root
            stack.append((mid, hi))
            stack.append((lo, mid))
    roots.sort()
    return roots


class AlgValue(ExactValue):
    """The exact value g(alpha) for an integer polynomial g at a shared root.

    Supports exact comparison against rationals and against other values
    over the *same* root, plus floor/ceil through enclosure refinement.
    Used when deciding automata at irrational 1D sample points.
    """

    __slots__ = ("root", "g")

    def __init__(self, root: AlgebraicNumber, g: IntPoly):
        self.root = root
        self.g = poly_trim(g)

    def compare_scalar(self, other) -> int:
        if isinstance(other, AlgValue):
            if other.root is not self.root:
                raise PolynomialError("cannot compare values over different roots")
            return self.root.sign_of(poly_sub(self.g, other.g))
        if isinstance(other, AlgebraicNumber):
            raise PolynomialError("cannot compare a derived value with a raw root")
        q = Fraction(other)
        shifted = poly_sub(poly_scale(self.g, q.denominator),
                           poly_trim((q.numerator,)))
        return self.root.sign_of(shifted)

    def __neg__(self):
        return AlgValue(self.root, poly_neg(self.g))

    def __floor__(self) -> int:
        if self.root.is_rational():
            return math.floor(poly_eval(self.g, self.root.lo))
        while True:
            lo_v, hi_v, scale = _interval_horner(self.g, self.root.lo, self.root.hi)
            if lo_v // scale == hi_v // scale:
                return lo_v // scale
            if hi_v - lo_v < scale:
                n = hi_v // scale
                c = self.compare_scalar(n)
                if c == 0:
                    return n
                return n - 1 if c < 0 else n
            self.root.refine()

    def __repr__(self):
        return "AlgValue(%s @ %r)" % (list(self.g), self.root)


# -- bivariate polynomials in Z[p][x] -----------------------------------------

BivarPoly = Tuple[IntPoly, ...]       # index = degree in x, entry = poly in p


def bivar_trim(coeffs) -> BivarPoly:
    coeffs = [poly_trim(c) for c in coeffs]
    while coeffs and poly_is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def bivar_degree_x(f: BivarPoly) -> int:
    return len(f) - 1


def bivar_derivative_x(f: BivarPoly) -> BivarPoly:
    return bivar_trim([poly_scale(f[i], i) for i in range(1, len(f))])


def bivar_eval_p(f: BivarPoly, value: Fraction) -> Tuple[Fraction, ...]:
    """Collapse the parameter, leaving rational coefficients in x."""
    out = [poly_eval(c, value) for c in f]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def sylvester_resultant_x(f: BivarPoly, g: BivarPoly) -> IntPoly:
    """Resultant of f and g with respect to x, a polynomial in p.

    Computed as the Sylvester determinant by Bareiss fraction-free
    elimination; every division along the way is exact in Z[p].
    """
    n, m = bivar_degree_x(f), bivar_degree_x(g)
    if n < 0 or m < 0:
        return ()
    if n == 0:
        return _poly_pow(f[0], m)
    if m == 0:
        return _poly_pow(g[0], n)
    size = n + m
    matrix = [[() for _ in range(size)] for _ in range(size)]
    for row in range(m):
        for i, c in enumerate(f):
            matrix[row][row + (n - i)] = c
    for row in range(n):
        for i, c in enumerate(g):
            matrix[m + row][row + (m - i)] = c
    return _bareiss_det(matrix)


def _poly_pow(f: IntPoly, k: int) -> IntPoly:
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, f)
    return out


def _bareiss_det(matrix) -> IntPoly:
    n = len(matrix)
    sign = 1
    prev = (1,)
    m = [row[:] for row in matrix]
    for k in range(n - 1):
        if poly_is_zero(m[k][k]):
            pivot_row = next((r for r in range(k + 1, n) if not poly_is_zero(m[r][k])), None)
            if pivot_row is None:
                return ()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(poly_mul(m[i][j], m[k][k]), poly_mul(m[i][k], m[k][j]))
                m[i][j] = _bivar_coeff_divexact(num, prev)
            m[i][k] = ()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return poly_neg(det) if sign < 0 else det


def _bivar_coeff_divexact(f: IntPoly, g: IntPoly) -> IntPoly:
    if poly_is_zero(f):
        return ()
    return poly_divexact(f, g)
