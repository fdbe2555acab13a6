"""Exact scalar values: rationals, two infinities, and ordering helpers.

Everything downstream compares clock values, guard bounds, and cell
endpoints through :func:`cmp`, so this module is the single place that
knows how plain ``Fraction``/``int`` values, the infinity sentinels, and
algebraic values (see :mod:`ptasynth.polynomials`) interact.  No floats
anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


class _Infinity:
    """Positive infinity sentinel with total order against exact scalars."""

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ptasynth.INF")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __neg__(self):
        return NEG_INF


class _NegInfinity:
    __slots__ = ()

    def __repr__(self):
        return "NEG_INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ptasynth.NEG_INF")

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __neg__(self):
        return INF


INF = _Infinity()
NEG_INF = _NegInfinity()


def is_finite(v) -> bool:
    return v is not INF and v is not NEG_INF


def cmp(a, b) -> int:
    """Three-way comparison of exact scalars (-1, 0, +1).

    Accepts int, Fraction, the infinity sentinels, and any object with a
    ``compare_scalar`` method (algebraic values).
    """
    if a is b:
        return 0
    if a is INF or b is NEG_INF:
        return 1
    if a is NEG_INF or b is INF:
        return -1
    if hasattr(a, "compare_scalar"):
        return a.compare_scalar(b)
    if hasattr(b, "compare_scalar"):
        return -b.compare_scalar(a)
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def scalar_floor(v) -> int:
    if hasattr(v, "floor_value"):
        return v.floor_value()
    return math.floor(v)


def scalar_ceil(v) -> int:
    if hasattr(v, "ceil_value"):
        return v.ceil_value()
    return math.ceil(v)


def parse_fraction(text: str) -> Fraction:
    """Parse "a/b" or "a" (also accepts decimal-free integer strings)."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_fraction(v) -> str:
    """Render a Fraction/int as "a" or "a/b" (used in all JSON output)."""
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)
