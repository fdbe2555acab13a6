"""Concrete semantics under a fixed parameter valuation.

One search decides reachability at a valuation: :func:`_search`, a
breadth-first search over flat int tuples ``(location, tracked values...,
pairwise differences...)`` in which every atom is the integer test
``sign * state[pos] <= top``.  The tracked values are one of two things:

* :func:`reach_discrete` — nat time: integer clock values, capped at
  C = M+1+maxReset (M = largest absolute evaluated bound); pairwise clock
  differences are carried alongside, clamped to +-(M+1), because
  per-clock capping alone cannot evaluate difference atoms once a clock
  saturates.  Every atom check on the abstract state is exactly the truth
  value on the concrete states it represents, so verdicts are exact and
  witnesses replay.
* :func:`reach_dense_one_clock` — dense time, single constrained clock:
  the index of the clock's region among the finitely many points and open
  intervals induced by the evaluated bounds, each atom being a bound on
  that index.

The interval-propagation oracles over single runs at the end of the
module stay as independent cross-checks for the test harness.

Both engines work in two steps.  :func:`compile_reach` (and
:func:`compile_check` for a system property) runs once per model,
property and time domain: it gathers the distinct atoms, turns every
bound into integer monomials, compiles every invariant and guard to a
row of ``(atom, position, sign)`` tests and every location's edges to
rows that build the successor state, and compiles the state property
over the same tests.  The engine then instantiates only the tops at
each valuation and searches.  At a rational valuation every bound
becomes one int, scaled by a common power of the parameter
denominators' lcm (at an integer one, the bound itself); at an
algebraic one it is the exact value.  The discrete engine rounds each
bound to an integer bound on integer clock values (``floor``/``ceil``,
by int division or exactly; an int bound needs none), and the dense
engine ranks the split values and bounds every atom's region index, so
the search compares small integers only.  At an irrational root of the
one-parameter decomposition (an ``AnchoredRoot``) the dense engine ranks
in ints too: at the rational sample left of the root, merging the values
whose difference vanishes at the root.

Satisfaction of an exists-eventually property is decided over all
LTS-reachable states, including states reached partway through a delay.
Run-level realizability (the R(.) sets) ends on the last action firing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .constraints import AtomicConstraint, SimpleConstraint
from .expressions import ExpressionError
from .model import (
    EXISTS_EVENTUALLY,
    ConcreteRun,
    Edge,
    PropAnd,
    PropAtom,
    PropConst,
    PropLoc,
    PropNot,
    PropOr,
    Pta,
    SyntacticRun,
    SystemProperty,
    TIME_DENSE,
    TIME_NAT,
    UnsupportedError,
    prop_atoms,
)
from .polynomials import (
    AnchoredRoot,
    IntPoly,
    poly_degree,
    poly_neg,
    poly_primitive,
    poly_sub,
    poly_trim,
)
from .scalars import INF
from .transforms import GuardOnlyRun, negate_property


@dataclass
class ReplayResult:
    ok: bool
    reason: str = ""
    states: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


@dataclass
class ReachabilityVerdict:
    reachable: bool
    witness: Optional[ConcreteRun] = None
    info: dict = field(default_factory=dict)


def replay_run(pta: Pta, gamma, xi: ConcreteRun, time_domain: Optional[str] = None) -> ReplayResult:
    """Validate a concrete run step by step from (q0, all zeros).

    Checks: delays nonnegative (integers in nat time), the source invariant
    at the end of every delay (simple constraints are convex along the
    diagonal, so endpoints suffice), guards at the firing valuation, update
    application, and the target invariant.
    """
    domain = time_domain or pta.time_domain
    omega = {c: Fraction(0) for c in pta.clocks}
    at = pta.initial
    if not pta.invariants[at].holds(omega, gamma):
        return ReplayResult(False, "initial invariant fails at zero")
    states = [(at, dict(omega))]
    for step_no, (delay, edge_idx) in enumerate(xi.steps):
        delay = Fraction(delay)
        if delay < 0:
            return ReplayResult(False, "negative delay at step %d" % step_no)
        if domain == TIME_NAT and delay.denominator != 1:
            return ReplayResult(False, "non-integer delay at step %d" % step_no)
        omega = {c: v + delay for c, v in omega.items()}
        if not pta.invariants[at].holds(omega, gamma):
            return ReplayResult(False, "invariant of %s fails after delay at step %d" % (at, step_no))
        if not 0 <= edge_idx < len(pta.edges):
            return ReplayResult(False, "bad edge index at step %d" % step_no)
        edge = pta.edges[edge_idx]
        if edge.source != at:
            return ReplayResult(False, "edge %d does not start at %s (step %d)" % (edge_idx, at, step_no))
        if not edge.guard.holds(omega, gamma):
            return ReplayResult(False, "guard fails at step %d" % step_no)
        omega = dict(omega)
        for clock, b in edge.updates.items():
            omega[clock] = Fraction(b)
        if not pta.invariants[edge.target].holds(omega, gamma):
            return ReplayResult(False, "target invariant fails at step %d" % step_no)
        at = edge.target
        states.append((at, dict(omega)))
    final_delay = Fraction(xi.final_delay)
    if final_delay < 0:
        return ReplayResult(False, "negative final delay")
    if final_delay:
        if domain == TIME_NAT and final_delay.denominator != 1:
            return ReplayResult(False, "non-integer final delay")
        omega = {c: v + final_delay for c, v in omega.items()}
        if not pta.invariants[at].holds(omega, gamma):
            return ReplayResult(False, "invariant of %s fails during final delay" % at)
        states.append((at, dict(omega)))
    return ReplayResult(True, "", states)


# -- compiled programs ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReachProgram:
    """Reachability of a state property, compiled once for many valuations.

    Nothing here depends on the parameter valuation: the distinct atoms of
    the model and the property, each finite bound as integer monomials
    ``(coeff, degree, ((parameter index, exponent), ...))`` (None for an
    infinite bound), every invariant and guard as a tuple of atom indices,
    the search tables of :func:`_compile_tables` and the property compiled
    over them.  A search state is one flat tuple of ints ``(location, v_0,
    ..., v_(n-1), d_0, ..., d_(m-1))``: the location index, the values of
    the ``n_clocks`` tracked clocks and the differences of the clock
    ``pairs``.  Each atom has a shape ``(pos, sign)`` and holds on a state
    when ``sign * state[pos] <= top``, with ``top`` the engine's int for the
    atom at the valuation.  The conjunctions are compiled to rows of such
    tests, and each location's edges to rows that build the successor
    state.  ``holds(state, tops)`` reads the per-valuation tops, one per
    atom; they are passed in, never stored, so one program serves every
    cell, grid point or parameter value.
    """

    pta: Pta
    time_domain: str
    atoms: Tuple[AtomicConstraint, ...]
    bounds: tuple
    params: Tuple[str, ...]          # the parameters the bounds mention
    degree: int                      # the largest total degree of a bound
    invariants: Tuple[Tuple[int, ...], ...]      # per location index
    guards: Tuple[Tuple[int, ...], ...]          # per edge index
    initial: int
    holds: Callable
    shapes: Tuple[Tuple[int, int], ...]          # per atom
    n_clocks: int
    pairs: Tuple[Tuple[int, int], ...]
    resets: Tuple[int, ...]                      # distinct reset constants
    out_edges: tuple                             # per location index
    invariant_rows: tuple                        # per location index
    guard_rows: tuple                            # per edge index
    permanent: Tuple[Tuple[int, ...], ...]       # per edge index
    permanent_rows: tuple            # per edge index; () when no location is prunable
    delay_stable: bool
    prunable: Tuple[bool, ...]                   # per location index


@dataclass(frozen=True, eq=False)
class DiscreteProgram(ReachProgram):
    """Nat time: the tracked values are integer clock values, and a reset
    sets its clock to its constant."""

    max_reset: int


@dataclass(frozen=True, eq=False)
class DenseProgram(ReachProgram):
    """Dense time, one constrained clock, tracked as the index of its
    region (see :func:`clock_regions`); a reset sets the index to its
    constant's point region at the valuation.  ``profiles`` per atom is
    None (no threshold: a clock-free atom or an infinite bound) or ``(split
    index, strict, upper)``, where split value 0 is 0, the next
    ``len(resets)`` are the distinct reset constants and then one
    threshold per clock atom.

    When the bounds mention at most one parameter, ``split_polys`` holds
    each split value as an integer polynomial in it and ``free_polys`` the
    primitive form of each clock-free atom's bound (None for a constant or
    another atom), for the valuations of :func:`_anchored_regions`; both
    are None otherwise.  ``ties`` memoises the primitive differences of the
    split values that valuation compares.
    """

    clock: Optional[str]
    profiles: tuple
    split_polys: Optional[Tuple[IntPoly, ...]]
    free_polys: Optional[tuple]
    ties: dict = field(default_factory=dict, repr=False)


def _monomials(expr, params) -> Optional[tuple]:
    if expr.is_infinite():
        return None
    return tuple((c, sum(e for _, e in mono), tuple((params.index(p), e) for p, e in mono))
                 for mono, c in expr.terms.items())


def _bound_table(atoms) -> dict:
    """The fields :func:`_bound_values` reads: ``atoms``, each finite bound
    as integer monomials (``bounds``), the ``params`` they mention and the
    largest total ``degree``."""
    params = tuple(sorted({p for a in atoms for p in a.rhs.params()}))
    bounds = tuple(_monomials(a.rhs, params) for a in atoms)
    return dict(atoms=atoms, bounds=bounds, params=params,
                degree=max((d for b in bounds if b for _, d, _ in b), default=0))


def _compile_state_prop(phi, atom_test, loc_of):
    """Compile a state property into a test ``(state, table) -> bool``.

    A search state is a tuple whose first entry is the location index and
    ``table`` the engine's per-valuation data; ``atom_test(atom)`` returns
    the test of one atom and ``loc_of(name)`` the index of a location.
    """
    if isinstance(phi, PropConst):
        value = phi.value
        return lambda state, table: value
    if isinstance(phi, PropLoc):
        target = loc_of(phi.name)
        return lambda state, table: state[0] == target
    if isinstance(phi, PropAtom):
        return atom_test(phi.atom)
    if isinstance(phi, PropNot):
        inner = _compile_state_prop(phi.inner, atom_test, loc_of)
        return lambda state, table: not inner(state, table)
    if isinstance(phi, PropAnd):
        left = _compile_state_prop(phi.left, atom_test, loc_of)
        right = _compile_state_prop(phi.right, atom_test, loc_of)
        return lambda state, table: left(state, table) and right(state, table)
    if isinstance(phi, PropOr):
        left = _compile_state_prop(phi.left, atom_test, loc_of)
        right = _compile_state_prop(phi.right, atom_test, loc_of)
        return lambda state, table: left(state, table) or right(state, table)
    raise TypeError("not a state property: %r" % (phi,))


def compile_reach(pta: Pta, phi, time_domain: Optional[str] = None) -> ReachProgram:
    """Compile the reachability of ``phi`` for :func:`reach_discrete` (nat
    time) or :func:`reach_dense_one_clock` (dense time).

    Besides the tables the search reads, it splits each guard.  Its
    ``permanent`` part is the finite atoms that no delay can make true
    again once false: upper bounds on a tracked value, differences and
    clock-free atoms; the rest are lower bounds on a tracked value.  The
    program is ``delay_stable`` when no delay changes the truth of ``phi``:
    every atom of ``phi`` is clock-free, a difference or has an infinite
    bound.  A location is ``prunable`` when the program is delay-stable and
    each edge out of it has a permanent atom; see :func:`_search`.
    """
    domain = time_domain or pta.time_domain
    index: Dict[AtomicConstraint, int] = {}
    for atom in list(pta.atoms()) + list(prop_atoms(phi)):
        index.setdefault(atom, len(index))
    loc_index = {q: i for i, q in enumerate(pta.locations)}
    common = dict(
        pta=pta, time_domain=domain, **_bound_table(tuple(index)),
        invariants=tuple(tuple(index[a] for a in pta.invariants[q]) for q in pta.locations),
        guards=tuple(tuple(index[a] for a in e.guard) for e in pta.edges),
        initial=loc_index[pta.initial])
    compile_engine = _compile_discrete if domain == TIME_NAT else _compile_dense
    return compile_engine(pta, phi, index, loc_index, common)


def _compile_tables(pta, phi, index, loc_index, common, tracked) -> dict:
    """The search tables over the ``tracked`` clocks, shared by both engines.

    In the flat state, position 0 is the location index, ``1 + i`` the
    value of ``tracked[i]`` and ``1 + n + k`` (``n`` clocks) the ``k``-th
    difference ``x_i - x_j`` of ``pairs`` (``i < j``; there are pairs only
    when some atom is a diagonal).  The shape ``(pos, sign)`` of an atom
    on ``x_i`` is ``(1 + i, 1)``, on ``-x_i`` ``(1 + i, -1)``, of a diagonal
    the position of its difference with sign +-1, and of a clock-free atom
    ``(0, 0)``, which holds when ``0 <= top``.

    Each conjunction (invariant, guard, permanent part of a guard) becomes
    a row ``(terms, free)``: its clock atoms as ``(atom index, pos, sign)``
    and its clock-free atoms' indices, atoms with an infinite bound left
    out (they always hold).  Each location's out-edges become rows
    ``(edge index, target, resets, reset map)``: ``resets`` pairs the
    position of every tracked clock the edge resets with the index of its
    constant in the distinct constants ``resets``, which the engine maps to
    values per valuation; the reset map holds ``(difference position, pos
    i, pos j)`` for every pair with a reset clock.  The permanent parts of
    the guards, the delay stability of ``phi`` and the prunable locations
    are those of :func:`compile_reach`; the permanent parts get rows only
    when some location is prunable, as only then does the search read them.
    """
    atoms, bounds = common["atoms"], common["bounds"]
    n = len(tracked)
    clock_pos = {c: 1 + i for i, c in enumerate(tracked)}
    need_diffs = any(a.pos is not None and a.neg is not None for a in atoms)
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n)) if need_diffs else ()
    diff_pos = {p: 1 + n + k for k, p in enumerate(pairs)}

    def shape(atom):
        if atom.pos is not None and atom.neg is not None:
            i, j = clock_pos[atom.pos] - 1, clock_pos[atom.neg] - 1
            return (diff_pos[i, j], 1) if i < j else (diff_pos[j, i], -1)
        if atom.pos is not None:
            return (clock_pos[atom.pos], 1)
        if atom.neg is not None:
            return (clock_pos[atom.neg], -1)
        return (0, 0)

    shapes = tuple(shape(a) for a in atoms)

    def row(indices):
        finite = [k for k in indices if bounds[k] is not None]
        return (tuple((k, *shapes[k]) for k in finite if shapes[k][1]),
                tuple(k for k in finite if not shapes[k][1]))

    def atom_test(atom):
        k = index[atom]
        pos, sign = shapes[k]
        if bounds[k] is None:
            return lambda state, tops: True
        if sign == 0:
            return lambda state, tops: 0 <= tops[k]
        return lambda state, tops: sign * state[pos] <= tops[k]

    resets = tuple(dict.fromkeys(int(b) for e in pta.edges
                                 for c, b in sorted(e.updates.items()) if c in clock_pos))
    out_edges = [[] for _ in pta.locations]
    for eidx, e in enumerate(pta.edges):
        reset = {clock_pos[c]: resets.index(int(b)) for c, b in sorted(e.updates.items())
                 if c in clock_pos}
        reset_map = tuple((diff_pos[i, j], 1 + i, 1 + j) for i, j in pairs
                          if 1 + i in reset or 1 + j in reset)
        out_edges[loc_index[e.source]].append(
            (eidx, loc_index[e.target], tuple(reset.items()), reset_map))

    # a delay raises the tracked values and leaves the differences as they
    # are; an infinite bound is always true
    permanent = tuple(tuple(k for k in guard if bounds[k] is not None and
                            (shapes[k][0] > n or shapes[k][1] != -1))
                      for guard in common["guards"])
    delay_stable = all(bounds[k] is None or shapes[k][0] > n or shapes[k][1] == 0
                       for k in (index[a] for a in prop_atoms(phi)))
    prunable = tuple(delay_stable and all(permanent[eidx] for eidx, *_ in edges)
                     for edges in out_edges)
    return dict(holds=_compile_state_prop(phi, atom_test, loc_index.__getitem__),
                shapes=shapes, n_clocks=n, pairs=pairs, resets=resets,
                out_edges=tuple(map(tuple, out_edges)),
                invariant_rows=tuple(map(row, common["invariants"])),
                guard_rows=tuple(map(row, common["guards"])),
                permanent=permanent,
                permanent_rows=tuple(map(row, permanent)) if any(prunable) else (),
                delay_stable=delay_stable, prunable=prunable)


def _bound_values(program: ReachProgram, gamma):
    """Every atom bound at ``gamma``, and the scale they are given in.

    At a rational point, with ``L`` the lcm of the parameter denominators
    and ``D`` the largest total degree, bound ``b`` comes back as the int
    ``b * L**D`` and the scale is ``L**D``: each monomial is a product of
    the ints ``p * L``, lifted to degree ``D`` by a power of ``L``.  At an
    integer point (int values or ``Fraction``s with denominator 1) that is
    ``b`` itself with scale 1.  At an algebraic point the bounds are the
    exact values of ``Expression.evaluate`` and the scale is None.  An
    infinite bound is None.
    """
    try:
        point = [gamma[p] for p in program.params]
    except KeyError:
        missing = sorted(set(program.params) - set(gamma))
        raise ExpressionError("missing parameter value for %s" % ", ".join(missing))
    if all(type(v) is int for v in point):
        lcm, scaled = 1, point
    elif all(isinstance(v, (int, Fraction)) for v in point):
        lcm = math.lcm(*(v.denominator for v in point))
        scaled = [v.numerator * (lcm // v.denominator) for v in point]
    else:
        return [None if b is None else a.rhs.evaluate(gamma)
                for a, b in zip(program.atoms, program.bounds)], None
    powers = [1]
    for _ in range(program.degree):
        powers.append(powers[-1] * lcm)
    top = program.degree
    out = []
    for bound in program.bounds:
        if bound is None:
            out.append(None)
            continue
        total = 0
        for c, degree, mono in bound:
            term = c * powers[top - degree]
            for i, e in mono:
                term *= scaled[i] ** e
            total += term
        out.append(total)
    return out, powers[top]


# -- the search --------------------------------------------------------------

_NEVER = ((0, 0, -1),)      # one test that no state passes: 0 > -1


def _instantiate(rows, tops) -> list:
    """The tests ``(pos, sign, top)`` of each row at the valuation's tops;
    a row with a failing clock-free atom becomes :data:`_NEVER`."""
    out = []
    for terms, free in rows:
        for k in free:
            if tops[k] < 0:
                out.append(_NEVER)
                break
        else:
            out.append([(pos, sign, tops[k]) for k, pos, sign in terms] if terms else ())
    return out


def _search(program: ReachProgram, tops, reset_values, cap: int, dmax: int = 0):
    """Breadth-first search for a state satisfying the program's property.

    A delay adds 1 to every tracked value, up to ``cap``.  An edge sets
    each clock it resets to ``reset_values`` at its constant's index and
    recomputes the differences of the pairs with a reset clock, clamped to
    ``+-dmax``.  The caller keeps ``cap - dmax`` at least every reset
    value, so a difference with a clock saturated at ``cap`` clamps to
    ``+-dmax``, as it must for every value the saturated clock stands for.
    Returns ``(parents, hit)``: the parent ``(state, "delay" | "edge", edge
    index)`` of every state found (None for the initial one; no state at
    all when the initial invariant fails) and the first state satisfying
    the property, or None.

    A state in a prunable location (see :func:`compile_reach`) on which the
    permanent part of no out-edge's guard holds is dead: it is recorded and
    tested against the property when found, but gets no delay successor.
    This is exact.  A delay never lowers a tracked value (``cap`` is at
    least every value an edge stores) and changes no difference, clock-free
    atom or location, so every delay successor of a dead state is dead and,
    the program being delay-stable, fails the property as well; a dead
    state has no edge successor.  So no live state and no hit is ever found
    first from a dead one: the breadth-first order of the live states,
    their parents, the hit and :func:`_moves` are those of the search that
    delays every state, and only dead states are left out.  For the same
    reason a delay successor in a delay-stable program is not tested
    against the property: it agrees with its source, which was no hit.
    """
    invariants = _instantiate(program.invariant_rows, tops)
    guards = _instantiate(program.guard_rows, tops)
    permanent = _instantiate(program.permanent_rows, tops)
    out_edges, prunable, phi_holds = program.out_edges, program.prunable, program.holds
    retest = not program.delay_stable
    clock_positions = range(1, 1 + program.n_clocks)

    start = (program.initial,) + (0,) * (program.n_clocks + len(program.pairs))
    for pos, sign, top in invariants[program.initial]:
        if sign * start[pos] > top:
            return {}, None
    parents: Dict[tuple, tuple] = {start: None}
    if phi_holds(start, tops):
        return parents, start
    order = [start]
    for source in order:
        loc = source[0]
        live = not prunable[loc]
        for eidx, dst, resets, reset_map in out_edges[loc]:
            for pos, sign, top in guards[eidx]:
                if sign * source[pos] > top:
                    break
            else:
                live = True
                if resets:
                    new = list(source)
                    new[0] = dst
                    for pos, r in resets:
                        new[pos] = reset_values[r]
                    for pos, i, j in reset_map:
                        d = new[i] - new[j]
                        new[pos] = dmax if d > dmax else -dmax if d < -dmax else d
                    state = tuple(new)
                else:
                    state = (dst,) + source[1:]
                if state in parents:
                    continue
                for pos, sign, top in invariants[dst]:
                    if sign * state[pos] > top:
                        break
                else:
                    parents[state] = (source, "edge", eidx)
                    if phi_holds(state, tops):
                        return parents, state
                    order.append(state)
                continue
            if not live:                # the guard failed: does it stay so?
                for pos, sign, top in permanent[eidx]:
                    if sign * source[pos] > top:
                        break
                else:
                    live = True
        if not live:
            continue
        new = list(source)
        for pos in clock_positions:
            if new[pos] < cap:
                new[pos] += 1
        state = tuple(new)
        if state in parents:
            continue
        for pos, sign, top in invariants[loc]:
            if sign * state[pos] > top:
                break
        else:
            parents[state] = (source, "delay", None)
            if retest and phi_holds(state, tops):
                return parents, state
            order.append(state)
    return parents, None


def _moves(parents, hit) -> List[tuple]:
    """The moves ``(kind, edge index, state reached)`` from the initial
    state to ``hit``, in order."""
    moves = []
    cur = hit
    while parents[cur] is not None:
        prev, kind, eidx = parents[cur]
        moves.append((kind, eidx, cur))
        cur = prev
    moves.reverse()
    return moves


# -- discrete (nat-time) reachability ---------------------------------------

def _compile_discrete(pta, phi, index, loc_index, common) -> DiscreteProgram:
    """Track every clock an atom mentions or an edge resets; an atom's
    ``top`` (see :func:`_discrete_tops`) bounds integer clock values."""
    atoms = common["atoms"]
    tracked = [c for c in pta.clocks if any(c in a.clocks() for a in atoms)
               or any(c in e.updates for e in pta.edges)]
    tables = _compile_tables(pta, phi, index, loc_index, common, tracked)
    return DiscreteProgram(max_reset=pta.max_reset(), **tables, **common)


def _discrete_tops(program: DiscreteProgram, values, scale):
    """Each atom's ``top`` (None for an infinite bound), and M, the largest
    ``ceil(|bound|)``, from the bound ``values`` and ``scale`` that
    :func:`_bound_values` gives at a valuation.  ``program`` is anything
    with the atoms those values belong to, a :class:`DiscreteProgram` or a
    compiled run of ``feasibility``.

    Over integers ``v ~ b`` (``~`` being ``<`` or ``<=``) is ``v <= top``
    with ``top`` the largest integer that satisfies it: ``floor(b)`` for
    ``<=`` and ``ceil(b) - 1`` for ``<``.  An int bound (scale 1) needs no
    rounding: its top is ``b - strict`` and its part of M is ``|b|``.
    """
    if scale == 1:
        return ([None if v is None else v - a.strict for a, v in zip(program.atoms, values)],
                max((abs(v) for v in values if v is not None), default=0))
    tops = []
    m_bound = 0
    for atom, value in zip(program.atoms, values):
        if value is None:
            tops.append(None)
            continue
        if scale is None:
            low, high = math.floor(value), math.ceil(value)
        else:
            low, high = value // scale, -(-value // scale)
        m_bound = max(m_bound, -low if value < 0 else high)
        tops.append(high - 1 if atom.strict else low)
    return tops, m_bound


def reach_discrete(program: DiscreteProgram, gamma, min_cap: int = 0,
                   witness: bool = True) -> ReachabilityVerdict:
    """Exact nat-time reachability of the program's property at ``gamma``,
    with a replayable witness unless ``witness`` is false.

    Parameter values may be ints, rationals or exact algebraic values; the
    search compares integer clock values with the integer tops only.
    ``info["states"]`` counts the states found, dead ones that were not
    expanded included (see :func:`_search`).
    """
    tops, m_bound = _discrete_tops(program, *_bound_values(program, gamma))
    cap = max(m_bound + 1 + program.max_reset, min_cap, 1)
    parents, hit = _search(program, tops, program.resets, cap, m_bound + 1)
    info = {"cap": cap, "states": len(parents)}
    if hit is None:
        return ReachabilityVerdict(False, info=info)
    if not witness:
        return ReachabilityVerdict(True, None, info)
    steps: List[Tuple[Fraction, int]] = []
    pending = 0
    for kind, eidx, _ in _moves(parents, hit):
        if kind == "delay":
            pending += 1
        else:
            steps.append((Fraction(pending), eidx))
            pending = 0
    return ReachabilityVerdict(True, ConcreteRun(tuple(steps), final_delay=Fraction(pending)),
                               info)


# -- dense one-clock reachability -------------------------------------------

def _single_constrained_clock(atoms) -> Optional[str]:
    hits = set()
    for a in atoms:
        hits.update(a.clocks())
    if len(hits) > 1:
        raise UnsupportedError(
            "dense-time engine handles a single constrained clock, got %s"
            % ", ".join(sorted(hits)))
    return next(iter(hits)) if hits else None


def _compile_dense(pta, phi, index, loc_index, common) -> DenseProgram:
    """Track the one constrained clock (a placeholder when there is none,
    so that the search still tells 0 from later values)."""
    atoms = common["atoms"]
    clock = _single_constrained_clock(atoms)
    tables = _compile_tables(pta, phi, index, loc_index, common, [clock])
    resets = tables["resets"]
    profiles = []
    split = 1 + len(resets)
    for atom, bound in zip(atoms, common["bounds"]):
        if bound is None or atom.is_clock_free():
            profiles.append(None)
        else:
            profiles.append((split, atom.strict, atom.pos == clock))
            split += 1
    split_polys = free_polys = None
    if len(common["params"]) <= 1:
        param = next(iter(common["params"]), None)
        polys = [None if a.rhs.is_infinite() else a.rhs.univariate(param) for a in atoms]
        split_polys = ((), *(poly_trim((b,)) for b in resets),
                       *(f if prof[2] else poly_neg(f) for f, prof in zip(polys, profiles) if prof))
        free_polys = tuple(_vanishing_key(f) if f is not None and atom.is_clock_free() else None
                           for atom, f in zip(atoms, polys))
    return DenseProgram(clock=clock, profiles=tuple(profiles), split_polys=split_polys,
                        free_polys=free_polys, **tables, **common)


def _vanishing_key(f: IntPoly) -> Optional[IntPoly]:
    """The primitive form of ``f``, the form of the polynomials
    ``decompose_1d`` splits at, or None for a constant, which vanishes
    nowhere or everywhere."""
    f = poly_primitive(f)
    return f if poly_degree(f) >= 1 else None


def clock_regions(values: Sequence, profiles: Sequence, n_resets: int,
                  tied: Optional[Callable[[int, int], bool]] = None):
    """Rank the split values of one clock and bound each atom's region index.

    ``values`` are the split values: 0, then ``n_resets`` reset constants,
    then the clock atoms' thresholds (``t`` of ``x ~ t`` and of ``t ~ x``),
    all in one scale.  They are sorted once and equal neighbours merged,
    keeping the first occurrence; the ranks at or above the rank of 0 are
    the ``k`` points ``v0 = 0 < v1 < ... < v(k-1)`` of the regions ``v0,
    (v0, v1), v1, ..., v(k-1), (v(k-1), inf)``, numbered 0 to ``2k - 1``,
    so point ``r`` is region ``2r``.  The regions are numbered in the order
    of the clock values in them and every atom has one truth value on each,
    so an atom on the clock is a bound on the region index, ``sign * region
    <= top``: with ``r`` the rank of its threshold counted from 0's, ``x <=
    t`` is ``region <= 2r``, ``x < t`` is ``region <= 2r - 1``, ``x >= t``
    is ``-region <= -2r`` and ``x > t`` is ``-region <= -(2r + 1)``.  A
    threshold below 0 has ``r < 0``, which makes the first two false and
    the last two true in every region.  An atom's profile is None (no test;
    top None), a bool (a constant; top 0 or -1, for the test ``0 <= top``)
    or ``(value index, strict, upper)``.

    ``tied(i, j)``, when given, is asked about the values ``i`` before ``j``
    of every two distinct neighbours in the order, and merges them when it
    says that they are equal after all (see :func:`_anchored_regions`).  A
    merged point keeps the first occurrence by index, the one a sort of the
    equal values would put first.

    Returns ``(points, tops, reset_regions)``: the point values, the top of
    each atom in the order given, and the point region of each reset
    constant.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = [0] * len(values)
    reps = [order[0]]                   # first occurrence of each distinct value
    for prev, i in zip(order, order[1:]):
        if values[prev] != values[i]:
            if tied is None or not tied(prev, i):
                reps.append(i)
            elif i < reps[-1]:
                reps[-1] = i
        rank[i] = len(reps) - 1
    zero = rank[0]
    points = [values[i] for i in reps[zero:]]

    tops = []
    for prof in profiles:
        if prof is None:
            tops.append(None)
        elif isinstance(prof, bool):
            tops.append(0 if prof else -1)
        else:
            index, strict, upper = prof
            r = 2 * (rank[index] - zero)
            tops.append(r - strict if upper else -r - strict)
    reset_regions = [2 * (rank[1 + k] - zero) for k in range(n_resets)]
    return points, tops, reset_regions


def _dense_regions(program: DenseProgram, gamma):
    """:func:`clock_regions` of the bounds at ``gamma``, and their scale,
    or None for the scale when a point is irrational (then no witness is
    built).

    At an :class:`AnchoredRoot` the program's bounds take the int path of
    :func:`_anchored_regions`; at any other valuation they are the scaled
    ints or exact values of :func:`_bound_values`.
    """
    root = gamma.get(program.params[0]) if len(program.params) == 1 else None
    if isinstance(root, AnchoredRoot):
        return _anchored_regions(program, root)
    bounds, scale = _bound_values(program, gamma)
    scale = scale or 1                  # exact values at an algebraic point
    split, profiles = _split(program, bounds, scale)
    points, tops, reset_regions = clock_regions(split, profiles, len(program.resets))
    exact = all(isinstance(v, (int, Fraction)) for v in points)
    return points, tops, reset_regions, scale if exact else None


def _split(program: DenseProgram, bounds, scale, vanishing=frozenset()):
    """The split values and atom profiles of :func:`clock_regions`; a
    clock-free bound whose primitive form is in ``vanishing`` counts as 0."""
    split = [0] + [b * scale for b in program.resets]
    profiles = []
    for k, (atom, prof, value) in enumerate(zip(program.atoms, program.profiles, bounds)):
        if value is None:
            profiles.append(None)
        elif prof is None:
            if vanishing and program.free_polys[k] in vanishing:
                value = 0
            profiles.append(0 < value if atom.strict else 0 <= value)
        else:
            profiles.append(prof)
            split.append(value if prof[2] else -value)
    return split, profiles


def _anchored_regions(program: DenseProgram, root: AnchoredRoot):
    """:func:`_dense_regions` at an irrational root, in ints.

    The split values are ranked at ``root.below`` in scaled ints, and two
    distinct neighbours merge when their primitive difference is in
    ``root.vanishing``.  That is exact when every difference of two split
    values and every clock-free bound is a constant or, in primitive form,
    one of the polynomials ``decompose_1d`` split at: such a difference
    keeps its sign from ``below`` up to the root, where it vanishes exactly
    when it is in ``vanishing``.  So values ordered ``a < b`` at ``below``
    have ``a <= b`` at the root, and only neighbours can become equal.  A
    clock-free bound is 0 at the root when it is in ``vanishing`` and keeps
    its sign at ``below`` otherwise.  A point is rational at the root
    exactly when its value is a constant.

    ``synthesis._comparisons``, the list ``synthesize`` decomposes over,
    holds every such difference: it compares every pair of thresholds and
    constants.  Leaving a pair out breaks this, even a pair
    whose order no verdict reads: two lower bounds that cross between
    ``below`` and the root put a third value between the two that tie.
    """
    bounds, scale = _bound_values(program, {program.params[0]: root.below})
    split, profiles = _split(program, bounds, scale, root.vanishing)
    polys, ties, vanishing = program.split_polys, program.ties, root.vanishing

    def tied(i, j):
        try:
            diff = ties[i, j]
        except KeyError:
            diff = ties[i, j] = _vanishing_key(poly_sub(polys[j], polys[i]))
        return diff in vanishing

    points, tops, reset_regions = clock_regions(split, profiles, len(program.resets), tied)
    constant = {v for v, f in zip(split, polys) if len(f) <= 1}
    exact = all(v in constant for v in points)
    return points, tops, reset_regions, scale if exact else None


def reach_dense_one_clock(program: DenseProgram, gamma,
                          witness: bool = True) -> ReachabilityVerdict:
    """Dense-time reachability for models constraining a single clock.

    The bounds at ``gamma`` (plus 0 and the reset constants, all in the
    scale of :func:`_bound_values`) split the clock axis into points and
    open intervals on which every atom has a fixed truth value;
    :func:`clock_regions` numbers them and turns every atom into a bound on
    the region index.  The nat engine's search then runs with the region
    index as the one tracked value: a delay moves to the next region, up to
    the last, and a reset to its constant's point region.  At an
    :class:`AnchoredRoot` the regions come from :func:`_anchored_regions`
    in ints; at any other irrational valuation (a bare ``AlgebraicNumber``)
    from sorting the exact values.  Witness delays use interval midpoints
    and are emitted only when ``witness`` is true and every point is
    rational.

    ``info["states"]`` counts the states found, dead ones that were not
    expanded included (see :func:`_search`).
    """
    points, tops, reset_regions, scale = _dense_regions(program, gamma)
    n_regions = 2 * len(points)
    parents, hit = _search(program, tops, reset_regions, n_regions - 1)
    if not parents:
        return ReachabilityVerdict(False, info={"regions": n_regions})
    info = {"regions": n_regions, "states": len(parents)}
    if hit is None:
        return ReachabilityVerdict(False, info=info)
    if scale is None or not witness:
        return ReachabilityVerdict(True, None, info)
    points = [Fraction(v, scale) for v in points]

    def representative(region, at_least):
        a = points[region // 2]
        if region % 2 == 0:
            return a
        if region // 2 + 1 == len(points):
            return max(a, at_least) + 1
        b = points[region // 2 + 1]
        return (a + b) / 2 if at_least <= a else (at_least + b) / 2

    clock = program.clock
    steps = []
    x = Fraction(0)
    pending = Fraction(0)
    for kind, eidx, state in _moves(parents, hit):
        if kind == "delay":
            nx = representative(state[1], x)
            pending += nx - x
            x = nx
        else:
            steps.append((pending, eidx))
            pending = Fraction(0)
            e = program.pta.edges[eidx]
            if clock in e.updates:
                x = Fraction(e.updates[clock])
    return ReachabilityVerdict(True, ConcreteRun(tuple(steps), final_delay=pending), info)


# -- property decisions ------------------------------------------------------

@dataclass
class CheckResult:
    satisfied: bool
    witness: Optional[ConcreteRun] = None
    witness_kind: str = ""
    info: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class CheckProgram:
    mode: str
    reach: ReachProgram


def compile_check(pta: Pta, psi: SystemProperty, time_domain: Optional[str] = None) -> CheckProgram:
    """Compile ``A[gamma] |= psi`` once, for :func:`decide` at many
    valuations; forall-always compiles the reachability of the negation."""
    phi = psi.phi if psi.mode == EXISTS_EVENTUALLY else negate_property(psi.phi)
    return CheckProgram(psi.mode, compile_reach(pta, phi, time_domain))


def decide(program: CheckProgram, gamma, witness: bool = True) -> CheckResult:
    """Decide A[gamma] |= psi; forall-always goes through the dual reach.
    With ``witness`` false no witness or counterexample is built."""
    reach = program.reach
    if reach.time_domain == TIME_NAT:
        v = reach_discrete(reach, gamma, witness=witness)
    else:
        v = reach_dense_one_clock(reach, gamma, witness)
    if program.mode == EXISTS_EVENTUALLY:
        return CheckResult(v.reachable, v.witness, "witness" if v.witness else "", v.info)
    return CheckResult(not v.reachable, v.witness,
                       "counterexample" if v.witness else "", v.info)


def valuation_key(gamma) -> tuple:
    return tuple(sorted((p, v if type(v) is Fraction else Fraction(v))
                        for p, v in gamma.items()))


def grid_oracle(pta: Pta, psi: SystemProperty, grid: Sequence[Mapping[str, Fraction]],
                time_domain: Optional[str] = None) -> dict:
    """Decide the property at every grid point; keyed by sorted valuation."""
    program = compile_check(pta, psi, time_domain)
    return {valuation_key(g): decide(program, g, witness=False).satisfied for g in grid}


# -- run automata -------------------------------------------------------------

def linearize_syntactic_run(run: SyntacticRun) -> Tuple[Pta, str]:
    """Unroll a run into a chain automaton; returns (automaton, final location).

    Location reachability of the final chain location is exactly
    realizability of the whole run, even when the run revisits locations.
    """
    pta = run.pta
    locs = run.locations()
    names = tuple("s%d" % i for i in range(len(locs)))
    invariants = {names[i]: pta.invariants[locs[i]] for i in range(len(locs))}
    edges = []
    for i, e in enumerate(run.edges()):
        edges.append(Edge(names[i], e.guard, e.action, dict(e.updates), names[i + 1]))
    chain = Pta(pta.clocks, pta.params, names, names[0], invariants, tuple(edges),
                pta.time_domain, pta.param_domain)
    return chain, names[-1]


def linearize_guard_run(grun: GuardOnlyRun, time_domain: str = TIME_DENSE) -> Tuple[Pta, str]:
    """Chain automaton of a guard-only run (all invariants true).

    The run's initial parameter condition is *not* embedded; callers check
    it separately, as the invariant-folding equivalence requires.
    """
    names = tuple("s%d" % i for i in range(len(grun.steps) + 1))
    invariants = {n: SimpleConstraint.true() for n in names}
    edges = []
    for i, st in enumerate(grun.steps):
        edges.append(Edge(names[i], st.guard, st.action, dict(st.updates), names[i + 1]))
    chain = Pta(grun.clocks, grun.params, names, names[0], invariants, tuple(edges),
                time_domain, "real")
    return chain, names[-1]


# -- one-clock interval propagation (independent oracles) ---------------------

@dataclass
class ClockSet:
    """Interval of reachable values of the single clock (possibly empty)."""

    lo: Fraction
    lo_open: bool
    hi: object          # Fraction or INF
    hi_open: bool

    def is_empty(self) -> bool:
        if self.hi is INF:
            return False
        return self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open))


def _clockset_integerize(s: ClockSet) -> Optional[ClockSet]:
    lo = math.floor(s.lo) + 1 if s.lo_open else math.ceil(s.lo)
    if s.hi is INF:
        return ClockSet(Fraction(lo), False, INF, True)
    hi = math.ceil(s.hi) - 1 if s.hi_open else math.floor(s.hi)
    if hi < lo:
        return None
    return ClockSet(Fraction(lo), False, Fraction(hi), False)


def _apply_guard_to_set(s: ClockSet, guard: SimpleConstraint, gamma, clock) -> Optional[ClockSet]:
    lo, lo_open, hi, hi_open = s.lo, s.lo_open, s.hi, s.hi_open
    for atom in guard:
        if atom.is_clock_free():
            if not atom.holds({}, gamma):
                return None
            continue
        extra = set(atom.clocks()) - {clock}
        if extra:
            raise UnsupportedError("interval oracle handles a single clock, got %s"
                                   % ", ".join(sorted(extra)))
        bound = atom.rhs.evaluate(gamma)
        if bound is INF:
            continue
        if atom.pos == clock:
            if bound < hi or (bound == hi and atom.strict and not hi_open):
                hi, hi_open = bound, atom.strict
        else:
            t = -bound
            if t > lo or (t == lo and atom.strict and not lo_open):
                lo, lo_open = t, atom.strict
    out = ClockSet(lo, lo_open, hi, hi_open)
    return None if out.is_empty() else out


def guard_run_reachable_set(grun: GuardOnlyRun, gamma,
                            time_domain: str = TIME_DENSE) -> Optional[ClockSet]:
    """Forward closure of the clock value through a guard-only run.

    Returns the post-action value set after the last step (None if the run
    is unrealizable).  The initial parameter condition is checked here too.
    Exhaustive and exact; this is the oracle the feasibility module is
    tested against.
    """
    if not grun.initial_condition.holds({}, gamma):
        return None
    clock = None
    for st in grun.steps:
        for a in st.guard:
            for c in a.clocks():
                clock = clock or c
    if clock is None:
        clock = grun.clocks[0] if grun.clocks else "x"
    s = ClockSet(Fraction(0), False, Fraction(0), False)
    for st in grun.steps:
        s = ClockSet(s.lo, s.lo_open, INF, True)
        s = _apply_guard_to_set(s, st.guard, gamma, clock)
        if s is None:
            return None
        if time_domain == TIME_NAT:
            s = _clockset_integerize(s)
            if s is None:
                return None
        if clock in st.updates:
            b = Fraction(st.updates[clock])
            s = ClockSet(b, False, b, False)
    return s


def syntactic_run_reachable_set(run: SyntacticRun, gamma, time_domain: Optional[str] = None,
                                extra_final: Optional[SimpleConstraint] = None
                                ) -> Optional[ClockSet]:
    """Like guard_run_reachable_set but honoring location invariants.

    Delays in a location are truncated by the invariant's upper bounds;
    entry values are already checked against the full invariant.
    """
    pta = run.pta
    domain = time_domain or pta.time_domain
    clock = None
    for a in pta.atoms():
        for c in a.clocks():
            clock = clock or c
    if clock is None:
        clock = pta.clocks[0] if pta.clocks else "x"
    locs = run.locations()

    def narrow(current, sc):
        current = _apply_guard_to_set(current, sc, gamma, clock)
        if current is not None and domain == TIME_NAT:
            current = _clockset_integerize(current)
        return current

    s = narrow(ClockSet(Fraction(0), False, Fraction(0), False), pta.invariants[locs[0]])
    if s is None:
        return None
    for i, edge in enumerate(run.edges()):
        s = ClockSet(s.lo, s.lo_open, INF, True)
        s = narrow(s, pta.invariants[locs[i]])
        if s is None:
            return None
        s = narrow(s, edge.guard)
        if s is None:
            return None
        if clock in edge.updates:
            b = Fraction(edge.updates[clock])
            s = ClockSet(b, False, b, False)
        s = narrow(s, pta.invariants[locs[i + 1]])
        if s is None:
            return None
    if extra_final is not None:
        s = narrow(s, extra_final)
    return s
