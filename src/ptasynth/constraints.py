"""Atomic and simple clock constraints in the normal form ``b1*x - b2*y (< | <=) e``.

Source relations >=, > and = are rewritten at parse time into this form
(``t >= e`` becomes ``-t <= -e``, equalities split into two atoms), so
every consumer only ever sees < and <=.  Substituting reset clocks by
their reset constants can eliminate every clock from an atom; such
clock-free atoms (pure parameter conditions) are legal outputs of the
transforms but are rejected by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional, Tuple

from .expressions import Expression
from .scalars import INF


class ConstraintError(ValueError):
    pass


@dataclass(frozen=True)
class AtomicConstraint:
    """One conjunct ``pos - neg < rhs`` (or <=), clocks optional on both sides."""

    pos: Optional[str]          # clock with coefficient +1
    neg: Optional[str]          # clock with coefficient -1
    strict: bool                # True for <, False for <=
    rhs: Expression
    from_equality: bool = False

    def __post_init__(self):
        if self.pos is not None and self.pos == self.neg:
            raise ConstraintError("x - x is not a valid atom")

    def clocks(self) -> Tuple[str, ...]:
        out = []
        if self.pos is not None:
            out.append(self.pos)
        if self.neg is not None:
            out.append(self.neg)
        return tuple(out)

    def is_clock_free(self) -> bool:
        return self.pos is None and self.neg is None

    def is_parametric(self) -> bool:
        return self.rhs.is_parametric()

    def rel_symbol(self) -> str:
        return "<" if self.strict else "<="

    # -- semantics -------------------------------------------------------

    def holds(self, omega: Mapping[str, Fraction], gamma: Mapping[str, Fraction]) -> bool:
        bound = self.rhs.evaluate(gamma)
        if bound is INF:
            return True
        lhs = Fraction(0)
        if self.pos is not None:
            lhs += Fraction(omega[self.pos])
        if self.neg is not None:
            lhs -= Fraction(omega[self.neg])
        return lhs < bound if self.strict else lhs <= bound

    # -- rewriting -------------------------------------------------------

    def substitute(self, updates: Mapping[str, int]) -> "AtomicConstraint":
        """Replace updated clocks by their reset constants (the [u] operation)."""
        pos, neg, rhs = self.pos, self.neg, self.rhs
        if pos is not None and pos in updates:
            rhs = rhs.plus_const(-int(updates[pos]))
            pos = None
        if neg is not None and neg in updates:
            rhs = rhs.plus_const(int(updates[neg]))
            neg = None
        return replace(self, pos=pos, neg=neg, rhs=rhs)

    def negation(self) -> "AtomicConstraint":
        """The complementary atom: not(t <= e) is -t < -e and vice versa."""
        return AtomicConstraint(
            pos=self.neg, neg=self.pos, strict=not self.strict, rhs=self.rhs.negated()
        )

    def render(self) -> str:
        if self.pos is not None and self.neg is not None:
            lhs = "%s-%s" % (self.pos, self.neg)
        elif self.pos is not None:
            lhs = self.pos
        elif self.neg is not None:
            lhs = "-%s" % self.neg
        else:
            lhs = "0"
        return "%s %s %s" % (lhs, self.rel_symbol(), self.rhs.render())

    def __str__(self):
        return self.render()


def atom_from_relation(pos, neg, rel: str, rhs: Expression):
    """Build normalized atoms from a source-syntax relation.

    Returns a tuple of atoms: one for <, <=, >, >=; two for =, both
    marked ``from_equality``.
    """
    if rel == "<":
        return (AtomicConstraint(pos, neg, True, rhs),)
    if rel == "<=":
        return (AtomicConstraint(pos, neg, False, rhs),)
    if rel == ">":
        return (AtomicConstraint(neg, pos, True, rhs.negated()),)
    if rel == ">=":
        return (AtomicConstraint(neg, pos, False, rhs.negated()),)
    if rel == "=":
        return (
            AtomicConstraint(pos, neg, False, rhs, True),
            AtomicConstraint(neg, pos, False, rhs.negated(), True),
        )
    raise ConstraintError("unknown relation %r" % rel)


@dataclass(frozen=True)
class SimpleConstraint:
    """A conjunction of atomic constraints; the empty conjunction is true."""

    conjuncts: Tuple[AtomicConstraint, ...] = field(default_factory=tuple)

    @staticmethod
    def true() -> "SimpleConstraint":
        return SimpleConstraint(())

    @staticmethod
    def of(*atoms: AtomicConstraint) -> "SimpleConstraint":
        return SimpleConstraint(tuple(atoms))

    def is_true(self) -> bool:
        return not self.conjuncts

    def conjoin(self, other: "SimpleConstraint") -> "SimpleConstraint":
        return SimpleConstraint(self.conjuncts + other.conjuncts)

    def holds(self, omega, gamma) -> bool:
        return all(a.holds(omega, gamma) for a in self.conjuncts)

    def substitute(self, updates: Mapping[str, int]) -> "SimpleConstraint":
        return SimpleConstraint(tuple(a.substitute(updates) for a in self.conjuncts))

    def clocks(self) -> frozenset:
        out = set()
        for a in self.conjuncts:
            out.update(a.clocks())
        return frozenset(out)

    def params(self) -> frozenset:
        out = set()
        for a in self.conjuncts:
            out.update(a.rhs.params())
        return frozenset(out)

    def expressions(self) -> Tuple[Expression, ...]:
        return tuple(a.rhs for a in self.conjuncts)

    def render(self) -> str:
        if not self.conjuncts:
            return "true"
        return " & ".join(a.render() for a in self.conjuncts)

    def __str__(self):
        return self.render()

    def __iter__(self):
        return iter(self.conjuncts)

    def __len__(self):
        return len(self.conjuncts)
