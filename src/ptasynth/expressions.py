"""Parameter expressions: integer multivariate polynomials, or infinity.

An expression is one monomial map, ``terms``: each monomial (a sorted
tuple of ``(param, exponent)`` pairs with positive exponents, the empty
tuple for the constant term) maps to its nonzero integer coefficient.
Infinity has no terms (``terms`` is None).  "Linear" is a property, not a
separate format: every monomial has total degree at most 1.  On a linear
expression ``con(e)`` is the constant term and ``cf(e, p)`` the
coefficient of parameter ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple

from .polynomials import AlgebraicNumber, AlgValue, IntPoly, poly_trim
from .scalars import INF

Monomial = Tuple[Tuple[str, int], ...]


class ExpressionError(ValueError):
    pass


@dataclass(frozen=True)
class Expression:
    terms: Optional[Mapping[Monomial, int]]

    @staticmethod
    def linear(const: int = 0, coeffs: Mapping[str, int] | None = None) -> "Expression":
        terms = {((p, 1),): c for p, c in (coeffs or {}).items() if c != 0}
        if const:
            terms[()] = int(const)
        return Expression(terms)

    @staticmethod
    def constant(value: int) -> "Expression":
        return Expression.linear(value)

    @staticmethod
    def param(name: str, coeff: int = 1) -> "Expression":
        return Expression.linear(0, {name: coeff})

    @staticmethod
    def polynomial(terms: Mapping[Monomial, int]) -> "Expression":
        return Expression({m: c for m, c in terms.items() if c != 0})

    @staticmethod
    def infinity() -> "Expression":
        return Expression(None)

    # -- queries ---------------------------------------------------------

    def __hash__(self):
        return hash(None if self.terms is None else frozenset(self.terms.items()))

    def is_infinite(self) -> bool:
        return self.terms is None

    def is_linear(self) -> bool:
        return self.terms is not None and all(
            not m or (len(m) == 1 and m[0][1] == 1) for m in self.terms)

    def con(self) -> int:
        """Constant term of a linear expression."""
        if not self.is_linear():
            raise ExpressionError("con() is only defined for linear expressions")
        return self.terms.get((), 0)

    def cf(self, param: str) -> int:
        """Coefficient of ``param`` in a linear expression (0 if absent)."""
        if not self.is_linear():
            raise ExpressionError("cf() is only defined for linear expressions")
        return self.terms.get(((param, 1),), 0)

    def params(self) -> frozenset:
        if self.terms is None:
            return frozenset()
        return frozenset(p for mono in self.terms for p, _ in mono)

    def is_parametric(self) -> bool:
        return bool(self.params())

    def univariate(self, param: Optional[str]) -> IntPoly:
        """The expression as an integer polynomial in ``param``, the only
        parameter it may mention (None for a constant expression)."""
        if self.terms is None:
            raise ExpressionError("infinity has no polynomial form")
        extra = self.params() - {param}
        if extra:
            raise ExpressionError("expression mentions other parameters: %s" % sorted(extra))
        coeffs = [0] * (max((m[0][1] for m in self.terms if m), default=0) + 1)
        for mono, c in self.terms.items():
            coeffs[mono[0][1] if mono else 0] = c
        return poly_trim(coeffs)

    # -- arithmetic ------------------------------------------------------

    def negated(self) -> "Expression":
        if self.terms is None:
            raise ExpressionError("cannot negate infinity")
        return Expression({m: -c for m, c in self.terms.items()})

    def plus_const(self, delta: int) -> "Expression":
        if self.terms is None:
            return self
        terms = dict(self.terms)
        terms[()] = terms.get((), 0) + delta
        return Expression.polynomial(terms)

    def minus(self, other: "Expression") -> "Expression":
        if self.terms is None or other.terms is None:
            raise ExpressionError("cannot subtract with infinity")
        a = dict(self.terms)
        for m, c in other.terms.items():
            a[m] = a.get(m, 0) - c
        return Expression.polynomial(a)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, gamma: Mapping[str, Fraction]):
        """Exact value under a parameter valuation; INF for infinity.

        Parameter values are rationals or, for single-parameter
        expressions, exact algebraic numbers; the result is then the exact
        derived algebraic value.
        """
        if self.terms is None:
            return INF
        mine = self.params()
        missing = mine - set(gamma)
        if missing:
            raise ExpressionError("missing parameter value for %s" % ", ".join(sorted(missing)))
        algebraic = [p for p in mine if not isinstance(gamma[p], (int, Fraction))]
        if algebraic:
            return self._evaluate_algebraic(gamma, algebraic[0])
        total = Fraction(0)
        for mono, c in self.terms.items():
            for p, e in mono:
                c *= gamma[p] if e == 1 else gamma[p] ** e
            total += c
        return total

    def _evaluate_algebraic(self, gamma, param):
        if len(self.params()) > 1:
            raise ExpressionError("algebraic evaluation supports a single parameter")
        root = gamma[param]
        if not isinstance(root, AlgebraicNumber):
            raise ExpressionError("parameter values must be rationals or algebraic numbers")
        if root.is_rational():
            return self.evaluate({param: root.to_fraction()})
        return AlgValue(root, self.univariate(param))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Terms by falling total degree, then by monomial; "0" when empty."""
        if self.terms is None:
            return "inf"
        parts = [_render_term(c, mono) for mono, c in
                 sorted(self.terms.items(), key=lambda kv: (-sum(e for _, e in kv[0]), kv[0]))]
        text = " ".join(parts) or "0"
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text

    def __str__(self):
        return self.render()


def _render_term(coeff: int, mono) -> str:
    sign = "+ " if coeff >= 0 else "- "
    mag = abs(coeff)
    if not mono:
        return sign + str(mag)
    factors = []
    for p, e in mono:
        factors.append(p if e == 1 else "%s^%d" % (p, e))
    body = "*".join(factors)
    if mag != 1:
        body = "%d*%s" % (mag, body)
    return sign + body
