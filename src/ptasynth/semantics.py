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

Satisfaction of an exists-eventually property is decided over all
LTS-reachable states, including states reached partway through a delay.
Run-level realizability (the R(.) sets) ends on the last action firing.
"""

from __future__ import annotations

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
from .scalars import INF, cmp, is_finite, scalar_ceil
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

_UP, _LO, _DIAG, _FREE, _TRUE = 0, 1, 2, 3, 4


def _compile_atom(atom: AtomicConstraint, gamma, clock_index):
    bound = atom.rhs.evaluate(gamma)
    if bound is INF:
        return (_TRUE,)
    if atom.pos is not None and atom.neg is not None:
        return (_DIAG, clock_index[atom.pos], clock_index[atom.neg], bound, atom.strict)
    if atom.pos is not None:
        return (_UP, clock_index[atom.pos], bound, atom.strict)
    if atom.neg is not None:
        return (_LO, clock_index[atom.neg], bound, atom.strict)
    return (_FREE, bound, atom.strict)


def _eval_compiled(check, values, diffs, pair_index, cap, dmax) -> bool:
    kind = check[0]
    if kind == _TRUE:
        return True
    if kind == _UP:
        _, i, bound, strict = check
        if values[i] >= cap:
            return False
        c = cmp(values[i], bound)
        return c < 0 if strict else c <= 0
    if kind == _LO:
        _, i, bound, strict = check
        if values[i] >= cap:
            return True
        c = cmp(-values[i], bound)
        return c < 0 if strict else c <= 0
    if kind == _DIAG:
        _, i, j, bound, strict = check
        if i < j:
            d = diffs[pair_index[(i, j)]]
        else:
            d = -diffs[pair_index[(j, i)]]
        if d >= dmax:
            return False
        if d <= -dmax:
            return True
        c = cmp(d, bound)
        return c < 0 if strict else c <= 0
    _, bound, strict = check
    c = cmp(0, bound)
    return c < 0 if strict else c <= 0


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
        if cmp(value, 0) < 0:
            value = -value
        m_bound = max(m_bound, scalar_ceil(value))
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

    def ev(check, values, diffs):
        return _eval_compiled(check, values, diffs, pair_index, cap, dmax)

    invariants = [
        [_compile_atom(a, gamma, clock_index) for a in pta.invariants[q]]
        for q in pta.locations
    ]
    guards = [[_compile_atom(a, gamma, clock_index) for a in e.guard] for e in pta.edges]
    edge_src = [loc_index[e.source] for e in pta.edges]
    edge_dst = [loc_index[e.target] for e in pta.edges]
    edge_resets = [
        [(clock_index[c], int(b)) for c, b in sorted(e.updates.items()) if c in clock_index]
        for e in pta.edges
    ]

    def atom_test(atom):
        check = _compile_atom(atom, gamma, clock_index)
        return lambda state: ev(check, state[1], state[2])

    phi_fn = _compile_state_prop(phi, atom_test, loc_index.__getitem__)

    def inv_ok(loc, values, diffs):
        return all(ev(chk, values, diffs) for chk in invariants[loc])

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
        for eidx in range(len(pta.edges)):
            if edge_src[eidx] != loc:
                continue
            if not all(ev(chk, values, diffs) for chk in guards[eidx]):
                continue
            new_values = list(values)
            for ci, b in edge_resets[eidx]:
                new_values[ci] = b
            new_diffs = diffs
            if pairs and edge_resets[eidx]:
                reset_map = dict(edge_resets[eidx])
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
            state = (edge_dst[eidx], tuple(new_values), new_diffs)
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


def _atom_region_profile(atom: AtomicConstraint, gamma, clock):
    """Classify one atom as ('up'|'lo', threshold, strict) or a constant."""
    bound = atom.rhs.evaluate(gamma)
    if atom.is_clock_free():
        if bound is INF:
            return True
        c = cmp(0, bound)
        return c < 0 if atom.strict else c <= 0
    if bound is INF:
        return True
    if atom.pos == clock:
        return ("up", bound, atom.strict)
    return ("lo", -bound, atom.strict)


def _region_truth(profile, regions):
    """Bitmap of an atom profile over the ordered region list."""
    if isinstance(profile, bool):
        return [profile] * len(regions)
    kind, t, strict = profile
    out = []
    for rkind, a, b in regions:
        if kind == "up":
            if rkind == "pt":
                c = cmp(a, t)
                out.append(c < 0 if strict else c <= 0)
            else:
                out.append(b is not INF and cmp(b, t) <= 0)
        else:
            if rkind == "pt":
                c = cmp(a, t)
                out.append(c > 0 if strict else c >= 0)
            else:
                out.append(cmp(a, t) >= 0)
    return out


def reach_dense_one_clock(pta: Pta, gamma, phi) -> ReachabilityVerdict:
    """Dense-time reachability for models constraining a single clock.

    The evaluated guard/invariant/property bounds (plus 0 and the reset
    constants) split the clock axis into points and open intervals on
    which every atom has a fixed truth value; reachability runs over
    (location, region) pairs.  Witness delays use interval midpoints and
    are emitted only when every bound is rational.
    """
    clock = _single_constrained_clock(pta, phi)
    atoms = list(pta.atoms()) + list(prop_atoms(phi))

    values = [Fraction(0)]
    if clock is not None:
        for e in pta.edges:
            if clock in e.updates:
                values.append(Fraction(e.updates[clock]))
        for a in atoms:
            prof = _atom_region_profile(a, gamma, clock)
            if isinstance(prof, tuple):
                values.append(prof[1])
    keep = []
    for v in values:
        if cmp(v, 0) < 0:
            continue
        if not any(cmp(v, w) == 0 for w in keep):
            keep.append(v)
    keep.sort(key=_SortKey)
    regions = []
    for i, v in enumerate(keep):
        regions.append(("pt", v, v))
        nxt = keep[i + 1] if i + 1 < len(keep) else INF
        regions.append(("iv", v, nxt))

    profiles = {}

    def truth(atom):
        key = id(atom)
        if key not in profiles:
            profiles[key] = _region_truth(_atom_region_profile(atom, gamma, clock), regions)
        return profiles[key]

    def bitmap(sc: SimpleConstraint):
        maps = [truth(a) for a in sc]
        return [all(m[r] for m in maps) for r in range(len(regions))]

    def atom_test(atom):
        bits = truth(atom)
        return lambda state: bits[state[1]]

    loc_index = {q: i for i, q in enumerate(pta.locations)}
    inv_maps = [bitmap(pta.invariants[q]) for q in pta.locations]
    guard_maps = [bitmap(e.guard) for e in pta.edges]
    reset_region = {}
    for e in pta.edges:
        if clock is not None and clock in e.updates:
            b = Fraction(e.updates[clock])
            reset_region[b] = next(
                r for r, (k, a, _) in enumerate(regions) if k == "pt" and cmp(a, b) == 0)

    phi_holds = _compile_state_prop(phi, atom_test, loc_index.__getitem__)

    start = (loc_index[pta.initial], 0)
    if not inv_maps[start[0]][0]:
        return ReachabilityVerdict(False, info={"regions": len(regions)})
    parents = {start: None}
    order = [start]
    head = 0
    hit = start if phi_holds(start) else None
    while hit is None and head < len(order):
        loc, region = order[head]
        head += 1
        for eidx, e in enumerate(pta.edges):
            if loc_index[e.source] != loc or not guard_maps[eidx][region]:
                continue
            target_region = region
            if clock is not None and clock in e.updates:
                target_region = reset_region[Fraction(e.updates[clock])]
            state = (loc_index[e.target], target_region)
            if state in parents or not inv_maps[state[0]][target_region]:
                continue
            parents[state] = ((loc, region), "edge", eidx)
            if phi_holds(state):
                hit = state
                break
            order.append(state)
        if hit is not None:
            break
        if region + 1 < len(regions):
            state = (loc, region + 1)
            if state not in parents and inv_maps[loc][region + 1]:
                parents[state] = ((loc, region), "delay", None)
                if phi_holds(state):
                    hit = state
                else:
                    order.append(state)

    info = {"regions": len(regions), "states": len(parents)}
    if hit is None:
        return ReachabilityVerdict(False, info=info)
    if any(not isinstance(v, Fraction) for v in keep):
        return ReachabilityVerdict(True, None, info)

    moves = []
    cur = hit
    while parents[cur] is not None:
        prev, kind, eidx = parents[cur]
        moves.append((kind, eidx, cur))
        cur = prev
    moves.reverse()

    def representative(region, at_least):
        rkind, a, b = regions[region]
        if rkind == "pt":
            return a
        if b is INF:
            return max(a, at_least) + 1
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


class _SortKey:
    """Total-order adapter so exact scalars can be sorted with list.sort."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return cmp(self.value, other.value) < 0


# -- property decisions ------------------------------------------------------

@dataclass
class CheckResult:
    satisfied: bool
    witness: Optional[ConcreteRun] = None
    witness_kind: str = ""
    info: dict = field(default_factory=dict)


def reach(pta: Pta, gamma, phi, time_domain: Optional[str] = None,
          min_cap: int = 0) -> ReachabilityVerdict:
    domain = time_domain or pta.time_domain
    if domain == TIME_NAT:
        return reach_discrete(pta, gamma, phi, min_cap=min_cap)
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
        c = cmp(self.lo, self.hi)
        return c > 0 or (c == 0 and (self.lo_open or self.hi_open))


def _clockset_integerize(s: ClockSet) -> Optional[ClockSet]:
    import math
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
            c = cmp(bound, hi) if hi is not INF else -1
            if c < 0 or (c == 0 and atom.strict and not hi_open):
                hi, hi_open = bound, atom.strict
        else:
            t = -bound
            c = cmp(t, lo)
            if c > 0 or (c == 0 and atom.strict and not lo_open):
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
