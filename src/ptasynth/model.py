"""PTA domain model: automata, valuations, runs, properties, and size metrics.

Clock and parameter valuations are plain ``dict[str, Fraction]``; clock
valuations are nonnegative, parameter valuations cover exactly the
model's parameters when applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple

from .constraints import AtomicConstraint, SimpleConstraint
from .expressions import Expression

TIME_DENSE = "dense"
TIME_NAT = "nat"
PARAM_REAL = "real"
PARAM_INT = "int"
PARAM_NAT = "nat"


class ModelError(ValueError):
    pass


class UnsupportedError(ValueError):
    """Raised when an analysis does not apply to the given model."""


@dataclass(frozen=True)
class Edge:
    source: str
    guard: SimpleConstraint
    action: str
    updates: Mapping[str, int]          # clock -> natural reset constant
    target: str

    def render(self) -> str:
        text = "edge %s -> %s : %s ; %s ;" % (
            self.source, self.target, self.guard.render(), self.action)
        if self.updates:
            resets = ", ".join("%s:=%d" % (c, b) for c, b in sorted(self.updates.items()))
            text += " reset " + resets
        return text


@dataclass(frozen=True)
class Pta:
    clocks: Tuple[str, ...]
    params: Tuple[str, ...]
    locations: Tuple[str, ...]
    initial: str
    invariants: Mapping[str, SimpleConstraint]
    edges: Tuple[Edge, ...]
    time_domain: str = TIME_DENSE
    param_domain: str = PARAM_REAL

    def validate(self) -> "Pta":
        if self.initial not in self.locations:
            raise ModelError("initial location %r is not declared" % self.initial)
        names = self.clocks + self.params
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ModelError("duplicate name %r" % name)
        declared_clocks = set(self.clocks)
        declared_params = set(self.params)
        for loc in self.invariants:
            if loc not in self.locations:
                raise ModelError("invariant for undeclared location %r" % loc)
        for loc in self.locations:
            if loc not in self.invariants:
                raise ModelError("location %r has no invariant entry" % loc)
        for i, e in enumerate(self.edges):
            if e.source not in self.locations:
                raise ModelError("edge %d: undeclared source %r" % (i, e.source))
            if e.target not in self.locations:
                raise ModelError("edge %d: undeclared target %r" % (i, e.target))
            for clock, b in e.updates.items():
                if clock not in declared_clocks:
                    raise ModelError("edge %d: reset of undeclared clock %r" % (i, clock))
                if int(b) != b or b < 0:
                    raise ModelError("edge %d: reset constant must be a natural" % i)
        for where, sc in self._all_constraints():
            for atom in sc:
                for clock in atom.clocks():
                    if clock not in declared_clocks:
                        raise ModelError("%s references undeclared clock %r" % (where, clock))
                for p in atom.rhs.params():
                    if p not in declared_params:
                        raise ModelError("%s references undeclared parameter %r" % (where, p))
        return self

    def _all_constraints(self):
        for loc in self.locations:
            yield ("invariant of %s" % loc, self.invariants[loc])
        for i, e in enumerate(self.edges):
            yield ("guard of edge %d" % i, e.guard)

    def constraints(self) -> Tuple[SimpleConstraint, ...]:
        return tuple(sc for _, sc in self._all_constraints())

    def atoms(self) -> Tuple[AtomicConstraint, ...]:
        out = []
        for sc in self.constraints():
            out.extend(sc.conjuncts)
        return tuple(out)

    def expressions(self) -> Tuple[Expression, ...]:
        return tuple(a.rhs for a in self.atoms())

    def parametric_clocks(self) -> Tuple[str, ...]:
        """Clocks that occur in at least one constraint mentioning a parameter."""
        hits = set()
        for a in self.atoms():
            if a.is_parametric():
                hits.update(a.clocks())
        return tuple(c for c in self.clocks if c in hits)

    def max_reset(self) -> int:
        return max((max(e.updates.values(), default=0) for e in self.edges), default=0)

    def render(self) -> str:
        lines = []
        if self.clocks:
            lines.append("clocks: " + ", ".join(self.clocks))
        if self.params:
            lines.append("params: " + ", ".join(self.params))
        if self.time_domain != TIME_DENSE or self.param_domain != PARAM_REAL:
            lines.append("domain: time=%s param=%s" % (self.time_domain, self.param_domain))
        for loc in self.locations:
            tag = " init" if loc == self.initial else ""
            lines.append("loc %s%s inv: %s" % (loc, tag, self.invariants[loc].render()))
        for e in self.edges:
            lines.append(e.render())
        return "\n".join(lines) + "\n"


# -- properties -----------------------------------------------------------

@dataclass(frozen=True)
class PropAtom:
    atom: AtomicConstraint


@dataclass(frozen=True)
class PropLoc:
    name: str


@dataclass(frozen=True)
class PropNot:
    inner: "StateProperty"


@dataclass(frozen=True)
class PropAnd:
    left: "StateProperty"
    right: "StateProperty"


@dataclass(frozen=True)
class PropOr:
    left: "StateProperty"
    right: "StateProperty"


@dataclass(frozen=True)
class PropConst:
    value: bool


StateProperty = object  # PropAtom | PropLoc | PropNot | PropAnd | PropOr | PropConst

EXISTS_EVENTUALLY = "EF"
FORALL_ALWAYS = "AG"


@dataclass(frozen=True)
class SystemProperty:
    mode: str  # EF | AG
    phi: StateProperty


def prop_atoms(phi: StateProperty):
    if isinstance(phi, PropAtom):
        yield phi.atom
    elif isinstance(phi, PropNot):
        yield from prop_atoms(phi.inner)
    elif isinstance(phi, (PropAnd, PropOr)):
        yield from prop_atoms(phi.left)
        yield from prop_atoms(phi.right)


def eval_state_property(phi: StateProperty, location: str, omega, gamma) -> bool:
    if isinstance(phi, PropConst):
        return phi.value
    if isinstance(phi, PropAtom):
        return phi.atom.holds(omega, gamma)
    if isinstance(phi, PropLoc):
        return phi.name == location
    if isinstance(phi, PropNot):
        return not eval_state_property(phi.inner, location, omega, gamma)
    if isinstance(phi, PropAnd):
        return eval_state_property(phi.left, location, omega, gamma) and \
            eval_state_property(phi.right, location, omega, gamma)
    if isinstance(phi, PropOr):
        return eval_state_property(phi.left, location, omega, gamma) or \
            eval_state_property(phi.right, location, omega, gamma)
    raise TypeError("not a state property: %r" % (phi,))


def render_property(phi: StateProperty) -> str:
    if isinstance(phi, PropConst):
        return "true" if phi.value else "false"
    if isinstance(phi, PropAtom):
        return phi.atom.render()
    if isinstance(phi, PropLoc):
        return phi.name
    if isinstance(phi, PropNot):
        return "!(%s)" % render_property(phi.inner)
    if isinstance(phi, PropAnd):
        return "(%s && %s)" % (render_property(phi.left), render_property(phi.right))
    if isinstance(phi, PropOr):
        return "(%s || %s)" % (render_property(phi.left), render_property(phi.right))
    raise TypeError("not a state property: %r" % (phi,))


def render_system_property(psi: SystemProperty) -> str:
    return "%s %s" % (psi.mode, render_property(psi.phi))


# -- runs -----------------------------------------------------------------

@dataclass(frozen=True)
class SyntacticRun:
    """A path of edge indices through the automaton graph, starting at q0."""

    pta: Pta
    edge_indices: Tuple[int, ...]

    def __post_init__(self):
        at = self.pta.initial
        for i in self.edge_indices:
            e = self.pta.edges[i]
            if e.source != at:
                raise ModelError("edge %d does not chain from %r" % (i, at))
            at = e.target

    def __len__(self):
        return len(self.edge_indices)

    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self.pta.edges[i] for i in self.edge_indices)

    def locations(self) -> Tuple[str, ...]:
        locs = [self.pta.initial]
        for e in self.edges():
            locs.append(e.target)
        return tuple(locs)

    def final_location(self) -> str:
        return self.locations()[-1]


@dataclass(frozen=True)
class ConcreteRun:
    """Alternating delays and edge firings, starting at (q0, all clocks 0).

    ``steps[i] = (delay before firing, edge index)``; an optional trailing
    delay extends the run past the last firing.
    """

    steps: Tuple[Tuple[Fraction, int], ...]
    final_delay: Fraction = Fraction(0)


# -- size metrics ----------------------------------------------------------

def _max_abs_constant(exprs) -> int:
    worst = 0
    for e in exprs:
        if e.is_infinite():
            continue
        if not e.is_linear():
            raise UnsupportedError("constant-term metric needs linear expressions")
        worst = max(worst, abs(e.con()))
    return worst


def max_c(pta: Pta) -> int:
    """Largest absolute constant term over the model's expressions (0 if none)."""
    return _max_abs_constant(pta.expressions())


def max_v(psi: SystemProperty) -> int:
    """Largest absolute constant over the property's atoms (0 if none)."""
    return _max_abs_constant(atom.rhs for atom in prop_atoms(psi.phi))


def thresholds(pta: Pta, psi: SystemProperty) -> Tuple[int, int]:
    """The pair (S0, S1) = (2K*max(maxC, maxV)+1, 4*S0) with K = edge count."""
    s0 = 2 * len(pta.edges) * max(max_c(pta), max_v(psi)) + 1
    return s0, 4 * s0
