"""Concrete semantics under a fixed parameter valuation.

Three complete decision engines live here:

* :func:`reach_discrete` — nat-time BFS over capped clock vectors.  Clocks
  are capped at C = M+1+maxReset (M = largest absolute evaluated bound);
  pairwise clock differences are carried alongside, clamped to +-(M+1),
  because per-clock capping alone cannot evaluate difference atoms once a
  clock saturates.  Every atom check on the abstract state is exactly the
  truth value on the concrete states it represents, so verdicts are exact
  and witnesses replay.
* :func:`reach_dense_one_clock` — dense time, single constrained clock:
  reachability over the finitely many point/interval regions induced by
  the evaluated guard bounds.
* interval-propagation oracles over single runs, used as independent
  cross-checks by the test harness.

The first two compile each exact bound once per call, so that the search
itself compares small integers only: the discrete engine turns every
bound into an integer bound on integer clock values (``floor``/``ceil``,
exact for algebraic values), and the dense engine ranks the split values
once and turns every atom into an int bitmap over the region list.

Satisfaction of an exists-eventually property is decided over all
LTS-reachable states, including states reached partway through a delay.
Run-level realizability (the R(.) sets) ends on the last action firing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .constraints import AtomicConstraint, SimpleConstraint
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


# -- discrete (nat-time) reachability ---------------------------------------

_UP, _LO, _DIAG, _CONST = 0, 1, 2, 3


def _compile_atom(atom: AtomicConstraint, gamma, clock_index, pair_index):
    """Compile one atom into a test on integer clock values.

    Over integers ``v ~ b`` (``~`` being ``<`` or ``<=``) is ``v <= top``
    with ``top`` the largest integer that satisfies it: ``floor(b)`` for
    ``<=`` and ``ceil(b) - 1`` for ``<``, exact for algebraic ``b`` too
    (``math.floor``/``math.ceil`` refine it as far as needed).  So an
    upper bound becomes ``(_UP, i, top)`` (``x_i <= top``), a lower bound
    ``-x <= b`` becomes ``(_LO, i, -top)`` (``x_i >= -top``), a diagonal
    ``(_DIAG, k, s, top)`` (``s * d_k <= top`` for the ``k``-th stored
    pairwise difference taken with sign ``s``), and a clock-free atom the
    constant ``(_CONST, 0 <= top)``.
    Every ``|top|`` is at most M+1, so the capped clock values and clamped
    differences of :func:`reach_discrete` compare exactly against it.
    """
    bound = atom.rhs.evaluate(gamma)
    if bound is INF:
        return (_CONST, True)
    top = math.ceil(bound) - 1 if atom.strict else math.floor(bound)
    if atom.pos is not None and atom.neg is not None:
        i, j = clock_index[atom.pos], clock_index[atom.neg]
        if i < j:
            return (_DIAG, pair_index[(i, j)], 1, top)
        return (_DIAG, pair_index[(j, i)], -1, top)
    if atom.pos is not None:
        return (_UP, clock_index[atom.pos], top)
    if atom.neg is not None:
        return (_LO, clock_index[atom.neg], -top)
    return (_CONST, 0 <= top)


def _eval_compiled(check, values, diffs) -> bool:
    kind = check[0]
    if kind == _UP:
        return values[check[1]] <= check[2]
    if kind == _LO:
        return values[check[1]] >= check[2]
    if kind == _DIAG:
        return check[2] * diffs[check[1]] <= check[3]
    return check[1]


def _compile_state_prop(phi, atom_test, loc_of):
    """Compile a state property into a test of a search state.

    A search state is a tuple whose first entry is the location index;
    ``atom_test(atom)`` returns the test of one atom on such a state, and
    ``loc_of(name)`` the index of a location.  Each engine compiles the
    property once per call and then only applies the result.
    """
    if isinstance(phi, PropConst):
        value = phi.value
        return lambda state: value
    if isinstance(phi, PropLoc):
        target = loc_of(phi.name)
        return lambda state: state[0] == target
    if isinstance(phi, PropAtom):
        return atom_test(phi.atom)
    if isinstance(phi, PropNot):
        inner = _compile_state_prop(phi.inner, atom_test, loc_of)
        return lambda state: not inner(state)
    if isinstance(phi, PropAnd):
        left = _compile_state_prop(phi.left, atom_test, loc_of)
        right = _compile_state_prop(phi.right, atom_test, loc_of)
        return lambda state: left(state) and right(state)
    if isinstance(phi, PropOr):
        left = _compile_state_prop(phi.left, atom_test, loc_of)
        right = _compile_state_prop(phi.right, atom_test, loc_of)
        return lambda state: left(state) or right(state)
    raise TypeError("not a state property: %r" % (phi,))


def reach_discrete(pta: Pta, gamma, phi, min_cap: int = 0) -> ReachabilityVerdict:
    """Exact nat-time reachability of a state property, with replayable witness.

    Parameter values may be rationals or exact algebraic values; all
    comparisons against integer clock values stay exact either way.
    """
    atoms = list(pta.atoms()) + list(prop_atoms(phi))
    m_bound = 0
    for atom in atoms:
        value = atom.rhs.evaluate(gamma)
        if value is INF:
            continue
        if value < 0:
            value = -value
        m_bound = max(m_bound, math.ceil(value))
    max_reset = pta.max_reset()
    cap = max(m_bound + 1 + max_reset, min_cap, 1)
    dmax = m_bound + 1

    tracked = [c for c in pta.clocks if any(c in a.clocks() for a in atoms)
               or any(c in e.updates for e in pta.edges)]
    clock_index = {c: i for i, c in enumerate(tracked)}
    need_diffs = any(a.pos is not None and a.neg is not None for a in atoms)
    pairs = [(i, j) for i in range(len(tracked)) for j in range(i + 1, len(tracked))] \
        if need_diffs else []
    pair_index = {p: k for k, p in enumerate(pairs)}

    loc_index = {q: i for i, q in enumerate(pta.locations)}

    def compile_conj(sc: SimpleConstraint):
        checks = [_compile_atom(a, gamma, clock_index, pair_index) for a in sc]
        if (_CONST, False) in checks:
            return lambda values, diffs: False
        checks = [c for c in checks if c[0] != _CONST]

        def test(values, diffs):
            for c in checks:
                if not _eval_compiled(c, values, diffs):
                    return False
            return True
        return test

    invariants = [compile_conj(pta.invariants[q]) for q in pta.locations]
    out_edges = [[] for _ in pta.locations]
    for eidx, e in enumerate(pta.edges):
        resets = [(clock_index[c], int(b)) for c, b in sorted(e.updates.items())
                  if c in clock_index]
        out_edges[loc_index[e.source]].append(
            (eidx, compile_conj(e.guard), loc_index[e.target], resets))

    def atom_test(atom):
        check = _compile_atom(atom, gamma, clock_index, pair_index)
        return lambda state: _eval_compiled(check, state[1], state[2])

    phi_fn = _compile_state_prop(phi, atom_test, loc_index.__getitem__)

    def inv_ok(loc, values, diffs):
        return invariants[loc](values, diffs)

    def clamp(d):
        if d > dmax:
            return dmax
        if d < -dmax:
            return -dmax
        return d

    zeros = tuple([0] * len(tracked))
    zero_diffs = tuple([0] * len(pairs))
    start = (loc_index[pta.initial], zeros, zero_diffs)
    if not inv_ok(*start):
        return ReachabilityVerdict(False, info={"cap": cap, "states": 0})

    parents: Dict[tuple, tuple] = {start: None}
    order = [start]
    head = 0
    hit = start if phi_fn(start) else None
    while hit is None and head < len(order):
        loc, values, diffs = order[head]
        head += 1
        for eidx, guard, dst, resets in out_edges[loc]:
            if not guard(values, diffs):
                continue
            new_values = list(values)
            for ci, b in resets:
                new_values[ci] = b
            new_diffs = diffs
            if pairs and resets:
                reset_map = dict(resets)
                nd = list(diffs)
                for k, (i, j) in enumerate(pairs):
                    ri, rj = i in reset_map, j in reset_map
                    if ri and rj:
                        nd[k] = clamp(reset_map[i] - reset_map[j])
                    elif ri:
                        nd[k] = clamp(reset_map[i] - values[j]) if values[j] < cap else -dmax
                    elif rj:
                        nd[k] = clamp(values[i] - reset_map[j]) if values[i] < cap else dmax
                new_diffs = tuple(nd)
            state = (dst, tuple(new_values), new_diffs)
            if state in parents or not inv_ok(*state):
                continue
            parents[state] = (order[head - 1], "edge", eidx)
            if phi_fn(state):
                hit = state
                break
            order.append(state)
        if hit is not None:
            break
        new_values = tuple(min(v + 1, cap) for v in values)
        state = (loc, new_values, diffs)
        if state not in parents and inv_ok(*state):
            parents[state] = (order[head - 1], "delay", None)
            if phi_fn(state):
                hit = state
            else:
                order.append(state)

    info = {"cap": cap, "states": len(parents)}
    if hit is None:
        return ReachabilityVerdict(False, info=info)

    moves = []
    cur = hit
    while parents[cur] is not None:
        prev, kind, eidx = parents[cur]
        moves.append((kind, eidx))
        cur = prev
    moves.reverse()
    steps: List[Tuple[Fraction, int]] = []
    pending = Fraction(0)
    for kind, eidx in moves:
        if kind == "delay":
            pending += 1
        else:
            steps.append((pending, eidx))
            pending = Fraction(0)
    witness = ConcreteRun(tuple(steps), final_delay=pending)
    return ReachabilityVerdict(True, witness, info)


# -- dense one-clock reachability -------------------------------------------

def _single_constrained_clock(pta: Pta, phi) -> Optional[str]:
    hits = set()
    for a in list(pta.atoms()) + list(prop_atoms(phi)):
        hits.update(a.clocks())
    if len(hits) > 1:
        raise UnsupportedError(
            "dense-time engine handles a single constrained clock, got %s"
            % ", ".join(sorted(hits)))
    return next(iter(hits)) if hits else None


def clock_regions(atoms: Sequence[AtomicConstraint], gamma, clock: Optional[str],
                  resets: Sequence[int]):
    """Rank the split values of one clock and compile each atom to a bitmap.

    The split values are 0, the reset constants and every clock atom's
    threshold (``t`` of ``x ~ t`` and of ``t ~ x``).  They are sorted once
    and equal neighbours merged, keeping the first occurrence;
    the ranks at or above the rank of 0 are the points ``v0 = 0 < v1 <
    ... < vk`` of the regions ``v0, (v0, v1), v1, ..., vk, (vk, inf)``, so
    point ``i`` is region ``2i``.  An atom's bitmap (bit ``r`` is its truth
    in region ``r``) follows from its threshold's rank alone: for ``x ~ t``
    the regions before ``t`` are true, ``t`` itself is ``not strict`` and
    the regions after it are false; ``t ~ x`` is the mirror image, and a
    threshold below 0 gives a constant bitmap, as do clock-free atoms.

    Returns ``(points, masks, reset_region)``: the point values, the bitmap
    of each atom as an int in the order given, and the point region of
    each reset constant.
    """
    values = [Fraction(0)] + [Fraction(b) for b in resets]
    profiles = []                       # per atom: a bool, or (value index, strict, upper)
    for atom in atoms:
        bound = atom.rhs.evaluate(gamma)
        if bound is INF:
            profiles.append(True)
        elif atom.is_clock_free():
            profiles.append(0 < bound if atom.strict else 0 <= bound)
        else:
            upper = atom.pos == clock
            profiles.append((len(values), atom.strict, upper))
            values.append(bound if upper else -bound)

    order = sorted(range(len(values)), key=values.__getitem__)
    rank = [0] * len(values)
    reps = [order[0]]                   # first occurrence of each distinct value
    for prev, i in zip(order, order[1:]):
        if values[prev] != values[i]:
            reps.append(i)
        rank[i] = len(reps) - 1
    zero = rank[0]
    points = [values[i] for i in reps[zero:]]
    full = (1 << 2 * len(points)) - 1

    masks = []
    for prof in profiles:
        if isinstance(prof, bool):
            masks.append(full if prof else 0)
            continue
        index, strict, upper = prof
        r = 2 * (rank[index] - zero)
        if r < 0:
            masks.append(0 if upper else full)
            continue
        at = 0 if strict else 1 << r
        below = (1 << r) - 1
        masks.append(below | at if upper else (full & ~below & ~(1 << r)) | at)
    reset_region = {b: 2 * (rank[1 + k] - zero) for k, b in enumerate(resets)}
    return points, masks, reset_region


def reach_dense_one_clock(pta: Pta, gamma, phi) -> ReachabilityVerdict:
    """Dense-time reachability for models constraining a single clock.

    The evaluated guard/invariant/property bounds (plus 0 and the reset
    constants) split the clock axis into points and open intervals on
    which every atom has a fixed truth value (:func:`clock_regions` ranks
    them once and compiles every atom to an int bitmap over the regions);
    reachability runs over (location, region) pairs, testing bits only.
    Witness delays use interval midpoints and are emitted only when every
    bound is rational.
    """
    clock = _single_constrained_clock(pta, phi)
    atoms = list(pta.atoms()) + list(prop_atoms(phi))
    resets = [e.updates[clock] for e in pta.edges if clock in e.updates]
    points, masks, reset_region = clock_regions(atoms, gamma, clock, resets)
    n_regions = 2 * len(points)
    mask_of = {id(a): m for a, m in zip(atoms, masks)}

    def bitmap(sc: SimpleConstraint) -> int:
        out = (1 << n_regions) - 1
        for a in sc:
            out &= mask_of[id(a)]
        return out

    def atom_test(atom):
        bits = mask_of[id(atom)]
        return lambda state: (bits >> state[1]) & 1 == 1

    loc_index = {q: i for i, q in enumerate(pta.locations)}
    inv_maps = [bitmap(pta.invariants[q]) for q in pta.locations]
    out_edges = [[] for _ in pta.locations]
    for eidx, e in enumerate(pta.edges):
        out_edges[loc_index[e.source]].append(
            (eidx, bitmap(e.guard), loc_index[e.target], reset_region.get(e.updates.get(clock))))

    phi_holds = _compile_state_prop(phi, atom_test, loc_index.__getitem__)

    start = (loc_index[pta.initial], 0)
    if not inv_maps[start[0]] & 1:
        return ReachabilityVerdict(False, info={"regions": n_regions})
    parents = {start: None}
    order = [start]
    head = 0
    hit = start if phi_holds(start) else None
    while hit is None and head < len(order):
        loc, region = order[head]
        head += 1
        for eidx, guard, dst, reset in out_edges[loc]:
            if not (guard >> region) & 1:
                continue
            target_region = region if reset is None else reset
            state = (dst, target_region)
            if state in parents or not (inv_maps[dst] >> target_region) & 1:
                continue
            parents[state] = ((loc, region), "edge", eidx)
            if phi_holds(state):
                hit = state
                break
            order.append(state)
        if hit is not None:
            break
        if region + 1 < n_regions:
            state = (loc, region + 1)
            if state not in parents and (inv_maps[loc] >> (region + 1)) & 1:
                parents[state] = ((loc, region), "delay", None)
                if phi_holds(state):
                    hit = state
                else:
                    order.append(state)

    info = {"regions": n_regions, "states": len(parents)}
    if hit is None:
        return ReachabilityVerdict(False, info=info)
    if any(not isinstance(v, Fraction) for v in points):
        return ReachabilityVerdict(True, None, info)

    moves = []
    cur = hit
    while parents[cur] is not None:
        prev, kind, eidx = parents[cur]
        moves.append((kind, eidx, cur))
        cur = prev
    moves.reverse()

    def representative(region, at_least):
        a = points[region // 2]
        if region % 2 == 0:
            return a
        if region // 2 + 1 == len(points):
            return max(a, at_least) + 1
        b = points[region // 2 + 1]
        return (a + b) / 2 if at_least <= a else (at_least + b) / 2

    steps = []
    x = Fraction(0)
    pending = Fraction(0)
    for kind, eidx, state in moves:
        if kind == "delay":
            nx = representative(state[1], x)
            pending += nx - x
            x = nx
        else:
            steps.append((pending, eidx))
            pending = Fraction(0)
            e = pta.edges[eidx]
            if clock is not None and clock in e.updates:
                x = Fraction(e.updates[clock])
    witness = ConcreteRun(tuple(steps), final_delay=pending)
    return ReachabilityVerdict(True, witness, info)


# -- property decisions ------------------------------------------------------

@dataclass
class CheckResult:
    satisfied: bool
    witness: Optional[ConcreteRun] = None
    witness_kind: str = ""
    info: dict = field(default_factory=dict)


def reach(pta: Pta, gamma, phi, time_domain: Optional[str] = None) -> ReachabilityVerdict:
    domain = time_domain or pta.time_domain
    if domain == TIME_NAT:
        return reach_discrete(pta, gamma, phi)
    return reach_dense_one_clock(pta, gamma, phi)


def decide(pta: Pta, gamma, psi: SystemProperty, time_domain: Optional[str] = None) -> CheckResult:
    """Decide A[gamma] |= psi; forall-always goes through the dual reach."""
    if psi.mode == EXISTS_EVENTUALLY:
        v = reach(pta, gamma, psi.phi, time_domain)
        return CheckResult(v.reachable, v.witness, "witness" if v.witness else "", v.info)
    v = reach(pta, gamma, negate_property(psi.phi), time_domain)
    return CheckResult(not v.reachable, v.witness,
                       "counterexample" if v.witness else "", v.info)


def valuation_key(gamma) -> tuple:
    return tuple(sorted((p, Fraction(v)) for p, v in gamma.items()))


def grid_oracle(pta: Pta, psi: SystemProperty, grid: Sequence[Mapping[str, Fraction]],
                time_domain: Optional[str] = None) -> dict:
    """Decide the property at every grid point; keyed by sorted valuation."""
    return {valuation_key(g): decide(pta, g, psi, time_domain).satisfied for g in grid}


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
