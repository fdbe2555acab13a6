"""Exact scalar values: rationals and two infinities.

Clock values, guard bounds and cell endpoints are ints, ``Fraction``s,
the sentinels ``INF``/``NEG_INF`` defined here, or algebraic values (see
:mod:`ptasynth.polynomials`).  All of them order with Python's comparison
operators: the sentinels lie beyond every other value, and the algebraic
values compare exactly with ints, ``Fraction``s and each other (a value
over a root only with values over the same root).  No floats anywhere.
"""

from __future__ import annotations

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


def parse_fraction(text: str) -> Fraction:
    """Parse "a/b" or "a" with integers a and b; a ValueError names the
    text when a part is not an integer or b is 0."""
    num, sep, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if sep else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError("expected an integer or a fraction a/b with b nonzero, got %r"
                         % text) from None


def format_fraction(v) -> str:
    """Render a Fraction/int as "a" or "a/b" (used in all JSON output)."""
    if type(v) is int:
        return str(v)
    f = v if type(v) is Fraction else Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)
