"""Per-run feasibility for a single parametric clock.

A guard over one clock splits into lower-bound conjuncts (-x < e or
-x <= e), upper-bound conjuncts (x < e or x <= e) and clock-free
parameter conditions; ``linf`` and ``usup`` are the tightest induced
nonnegative bounds.  A reset-free run is realizable exactly when its
parameter conditions hold and, for every ordered pair of steps i <= j,
the interval between the i-th lower bound and the j-th upper bound
contains an admissible clock value (an integer one in nat time).  A
reset of the clock to b ends a segment and starts the next one: its
steps are checked the same way, and the reset value b, as a closed lower
bound, against every upper bound of the segment.

The check is compiled once per run and then decided per valuation.
:func:`compile_run` splits the guards, lists the run's distinct atoms with
each finite bound as integer monomials, cuts the run into segments and
lists the pairs to test.  At a valuation, ``semantics._bound_values``
gives every bound as a scaled int ``b * L**D`` at a rational point, or as
its exact value at an algebraic one.  A lower bound is the key ``(b,
open)`` and an upper bound the key ``(b, -open)``: in tuple order the
tightest lower bound of a step is the largest key, the tightest upper
bound the smallest, and a lower and an upper bound leave a dense value
between them exactly when ``lower <= upper``.  In nat time the keys are
the least and the greatest admissible integer, read from the atoms'
integer tops (``semantics._discrete_tops``, which rounds the scaled ints
by floor division and exact values by ``math.floor``/``math.ceil``), and
the same comparison decides the pair.

So a valuation's verdict depends only on the signs of a few clock-free
expressions, and :func:`run_comparisons` lists them: they are all a
parameter decomposition of the run splits on.  :func:`_decide` rejects
exactly when a clock-free condition fails (its sign against 0) or, for
some pair, the largest lower key, starting at ``(0, 0)``, exceeds the
smallest upper key.  The latter holds exactly when some single lower key
exceeds some single upper key, so it is fixed by the sign of each upper
bound against 0 and against each lower bound (or segment start) it is
tested with; clamping a dense upper key below 0 changes no verdict,
since every lower key is at least ``(0, 0)``.  The strictness flags are
fixed per atom, so in dense time each of those comparisons is the sign
of a threshold difference.  In nat time at integer parameters the
thresholds are integers, the rounding turns ``x < t`` into
``x <= t - 1`` and ``x > t`` into ``x >= t + 1``, and the comparison is
the sign of the difference of the shifted thresholds
(:func:`_threshold`).  Lower bounds against each other, and upper bounds
against each other, are never read.

Witness construction follows the midpoint rule on the cumulative
lower/upper envelopes of each segment, the lower one starting at 0 or at
the reset value.  Open endpoints are first shrunk inward by
min(1, gap)/4, the candidate is clamped to be monotone in the step
index, and nat time takes the least admissible integer instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from .constraints import AtomicConstraint, SimpleConstraint
from .expressions import Expression
from .model import ConcreteRun, TIME_DENSE, TIME_NAT, UnsupportedError
from .scalars import INF
from .semantics import _bound_table, _bound_values, _discrete_tops
from .transforms import GuardOnlyRun


@dataclass(frozen=True)
class Bound:
    """One-sided bound on the clock; ``open`` means the value is not attained."""

    value: object            # Fraction, AlgValue, or INF
    open: bool = False


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: Optional[ConcreteRun] = None
    failing_pair: Optional[Tuple[int, int]] = None
    reason: str = ""


def split_guard(guard: SimpleConstraint):
    """Partition a one-clock guard into (lower atoms, upper atoms, parameter atoms)."""
    lb: List[AtomicConstraint] = []
    up: List[AtomicConstraint] = []
    free: List[AtomicConstraint] = []
    for atom in guard:
        if atom.is_clock_free():
            free.append(atom)
        elif atom.pos is not None and atom.neg is not None:
            raise UnsupportedError("two-clock atom %s in a one-clock guard" % atom.render())
        elif atom.pos is not None:
            up.append(atom)
        else:
            lb.append(atom)
    return SimpleConstraint(tuple(lb)), SimpleConstraint(tuple(up)), SimpleConstraint(tuple(free))


def linf(lb: SimpleConstraint, gamma) -> Bound:
    """Infimum nonnegative clock value satisfying all lower-bound atoms.

    Nonnegativity is part of the constraint, so an all-negative threshold
    set yields a closed 0.  An unsatisfiable lower part would be INF; the
    normal form cannot produce one, but the convention is kept.
    """
    best = Bound(Fraction(0), False)
    for atom in lb:
        e = atom.rhs.evaluate(gamma)
        if e is INF:
            continue
        threshold = -e
        if threshold > best.value:
            best = Bound(threshold, atom.strict)
        elif atom.strict and threshold == best.value:
            best = Bound(best.value, True)
    return best


def usup(up: SimpleConstraint, gamma) -> Bound:
    """Supremum nonnegative clock value satisfying all upper-bound atoms.

    No upper atoms means INF.  An unsatisfiable upper part reports the
    conventional value 0; its open flag is set so the induced interval is
    empty (0 itself does not satisfy the atoms in that case).
    """
    best = Bound(INF, True)
    for atom in up:
        e = atom.rhs.evaluate(gamma)
        if e is INF:
            continue
        if e < best.value:
            best = Bound(e, atom.strict)
        elif atom.strict and e == best.value:
            best = Bound(best.value, True)
    if best.value is not INF:
        if best.value < 0 or (best.open and best.value == 0):
            return Bound(Fraction(0), True)
    return best


# -- the compiled run ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunProgram:
    """A guard-only run compiled for :func:`feasible_with_reset` at many
    valuations.

    Nothing here depends on the valuation.  ``atoms``, ``bounds``,
    ``params`` and ``degree`` are the fields ``semantics._bound_values``
    reads: the run's distinct atoms and each finite bound as integer
    monomials (None for an infinite one).  Each step's lower and upper
    parts are tuples of atom indices; ``conditions`` lists every clock-free
    atom, in order, as ``(step number, atom index)``, step 0 being the
    initial condition.
    A segment is ``(first step, one past its last step, start value)``,
    with start value 0 for the first segment and the reset value after.
    A pair ``(i, lo, j)`` tests lower key ``lo`` against step ``j``'s upper
    bound and is reported as steps ``(i + 1, j + 1)``; the lower keys of a
    valuation are one per step and then one per segment start.
    """

    run: GuardOnlyRun
    time_domain: str
    atoms: Tuple[AtomicConstraint, ...]
    bounds: tuple
    params: Tuple[str, ...]
    degree: int
    strict: Tuple[int, ...]                      # per atom, 1 for < and 0 for <=
    conditions: Tuple[Tuple[int, int], ...]
    lower: Tuple[Tuple[int, ...], ...]           # per step
    upper: Tuple[Tuple[int, ...], ...]           # per step
    segments: Tuple[Tuple[int, int, int], ...]
    pairs: Tuple[Tuple[int, int, int], ...]


def _clock_of(run: GuardOnlyRun) -> Optional[str]:
    for step in run.steps:
        for atom in step.guard:
            for c in atom.clocks():
                return c
    for step in run.steps:
        if step.updates:
            return sorted(step.updates)[0]
    return run.clocks[0] if run.clocks else None


def compile_run(run: GuardOnlyRun, time_domain: str = TIME_DENSE) -> RunProgram:
    """Compile the per-run test of ``run`` once, for many valuations.

    A segment ends at a step that resets the run's clock (the clock it
    constrains; its guard is tested before the reset) or at the end of
    the run.  Each segment after a reset at step h first tests the reset
    value against every upper bound of the segment, as pairs (h, j), and
    then every pair i <= j of its own steps.
    """
    clock = _clock_of(run)
    index = {}

    def ids(atoms):
        return tuple(index.setdefault(atom, len(index)) for atom in atoms)

    conditions = [(0, k) for k in ids(run.initial_condition)]
    parts = [tuple(map(ids, split_guard(step.guard))) for step in run.steps]
    conditions += [(idx, k) for idx, (_, _, free) in enumerate(parts, start=1) for k in free]
    n = len(run.steps)
    segments, resets = [], []
    first, start = 0, 0
    for k, step in enumerate(run.steps):
        if clock is not None and clock in step.updates:
            segments.append((first, k + 1, start))
            first, start = k + 1, int(step.updates[clock])
            resets.append(k)
    segments.append((first, n, start))
    pairs = []
    for s, (first, stop, _) in enumerate(segments):
        if s:
            pairs += [(resets[s - 1], n + s, j) for j in range(first, stop)]
        pairs += [(i, i, j) for i in range(first, stop) for j in range(i, stop)]
    atoms = tuple(index)
    return RunProgram(
        run=run, time_domain=time_domain, **_bound_table(atoms),
        strict=tuple(int(a.strict) for a in atoms), conditions=tuple(conditions),
        lower=tuple(p[0] for p in parts), upper=tuple(p[1] for p in parts),
        segments=tuple(segments), pairs=tuple(pairs))


def _threshold(atom: AtomicConstraint, nat_time: bool) -> Expression:
    """The threshold of a clock bound: ``t`` for ``x ~ t`` and ``-e`` for
    ``-x ~ e``.  In nat time a strict bound ``x < t`` is the closed bound
    ``x <= t - 1`` (and ``x > t`` is ``x >= t + 1``), so its threshold is
    shifted by one."""
    if atom.pos is not None:
        return atom.rhs.plus_const(-1) if nat_time and atom.strict else atom.rhs
    thr = atom.rhs.negated()
    return thr.plus_const(1) if nat_time and atom.strict else thr


def run_comparisons(program: RunProgram) -> Set[Expression]:
    """The expressions whose signs :func:`_decide` reads: each finite
    clock-free condition, compared with 0, and the threshold differences
    ``a - b`` (:func:`_threshold`, nat-time shift included) of the compared
    bounds.  For every tested pair ``(i, lo, j)``, each finite upper bound
    of step ``j`` is compared with 0 and with each finite lower bound of
    step ``lo``, or with the segment's start value when ``lo`` names a
    segment start.
    """
    atoms, bounds, n = program.atoms, program.bounds, len(program.lower)
    nat = program.time_domain == TIME_NAT
    out = {atoms[k].rhs for _, k in program.conditions if bounds[k] is not None}
    for _, lo, j in program.pairs:
        for u in program.upper[j]:
            if bounds[u] is None:
                continue
            upper = _threshold(atoms[u], nat)
            out.add(upper)
            if lo < n:
                out.update(upper.minus(_threshold(atoms[k], nat))
                           for k in program.lower[lo] if bounds[k] is not None)
            else:
                out.add(upper.plus_const(-program.segments[lo - n][2]))
    return out


# -- deciding a compiled run -------------------------------------------------------

def _keys(program: RunProgram, values, scale):
    """The lower keys (one per step, then one per segment start) and the
    upper keys (one per step, None when no bound is finite) at a valuation.
    In nat time they are admissible integers: ``x ~ b`` holds for the
    integers ``x <= top`` and ``-x ~ b`` for ``x >= -top``, ``top`` being
    the atom's integer top of ``semantics._discrete_tops``."""
    if program.time_domain == TIME_NAT:
        tops = _discrete_tops(program, values, scale)[0]
        lows = [(max([0] + [-tops[k] for k in atoms if tops[k] is not None]), 0)
                for atoms in program.lower]
        highs = [min(((tops[k], 0) for k in atoms if tops[k] is not None), default=None)
                 for atoms in program.upper]
        return lows + [(start, 0) for _, _, start in program.segments], highs
    strict = program.strict
    lows = []
    for atoms in program.lower:
        best = (0, 0)
        for k in atoms:
            v = values[k]
            if v is not None and (-v, strict[k]) > best:
                best = (-v, strict[k])
        lows.append(best)
    lows += [(start * (scale or 1), 0) for _, _, start in program.segments]
    highs = []
    for atoms in program.upper:
        best = None
        for k in atoms:
            v = values[k]
            if v is not None and (best is None or (v, -strict[k]) < best):
                best = (v, -strict[k])
        if best is not None and best < (0, 0):      # below 0, or an open 0
            best = (0, -1)
        highs.append(best)
    return lows, highs


def _exact(v, scale):
    """A bound's value divided back by the scale; None if irrational."""
    if scale is not None:
        return Fraction(v, scale)
    return Fraction(v) if isinstance(v, (int, Fraction)) else None


def _pick_value(lo, hi, scale):
    """A dense clock value between lower key ``lo`` and upper key ``hi``
    (None: unbounded) by the midpoint rule; None when a bound is irrational."""
    a = _exact(lo[0], scale)
    b = None if hi is None else _exact(hi[0], scale)
    if a is None or (hi is not None and b is None):
        return None
    if b is None:
        return a + 1 if lo[1] else a
    gap = b - a
    if gap == 0:
        return a
    shrink = min(Fraction(1), gap) / 4
    if lo[1]:
        a += shrink
    if hi[1]:
        b -= shrink
    return (a + b) / 2


def _witness(program: RunProgram, lows, highs, scale) -> Optional[ConcreteRun]:
    nat = program.time_domain == TIME_NAT
    n = len(program.run.steps)
    steps = []
    for s, (first, stop, start) in enumerate(program.segments):
        tops = highs[first:stop]            # suffix minima within the segment
        for k in range(len(tops) - 2, -1, -1):
            if tops[k] is None or (tops[k + 1] is not None and tops[k + 1] < tops[k]):
                tops[k] = tops[k + 1]
        lo, x = lows[n + s], Fraction(start)
        for k in range(first, stop):
            lo = max(lo, lows[k])
            value = Fraction(lo[0]) if nat else _pick_value(lo, tops[k - first], scale)
            if value is None:
                return None
            value = max(x, value)
            steps.append((value - x, k))
            x = value
    return ConcreteRun(tuple(steps))


def _decide(program: RunProgram, gamma, witness: bool) -> FeasibilityResult:
    values, scale = _bound_values(program, gamma)
    strict = program.strict
    for idx, k in program.conditions:
        v = values[k]
        if v is not None and (v, -strict[k]) < (0, 0):      # 0 < v or 0 <= v fails
            if idx == 0:
                return FeasibilityResult(False, reason="initial parameter condition fails: %s"
                                         % program.run.initial_condition.render())
            return FeasibilityResult(False, reason="parameter condition at step %d fails: %s"
                                     % (idx, program.atoms[k].render()))
    lows, highs = _keys(program, values, scale)
    for i, lo, j in program.pairs:
        hi = highs[j]
        if hi is not None and lows[lo] > hi:
            return FeasibilityResult(False, failing_pair=(i + 1, j + 1),
                                     reason="no admissible value between the lower bound "
                                            "of step %d and the upper bound of step %d"
                                            % (i + 1, j + 1))
    if not witness:
        return FeasibilityResult(True)
    return FeasibilityResult(True, witness=_witness(program, lows, highs, scale))


def pair_satisfiable(i: int, j: int, run: GuardOnlyRun, gamma,
                     time_domain: str = TIME_DENSE) -> bool:
    """Whether some admissible clock value meets step i's lower and step j's
    upper bounds (1-based indices, i <= j)."""
    pair = GuardOnlyRun((run.steps[i - 1], run.steps[j - 1]), SimpleConstraint.true(),
                        run.clocks, run.params)
    program = compile_run(pair, time_domain)
    lows, highs = _keys(program, *_bound_values(program, gamma))
    return highs[1] is None or lows[0] <= highs[1]


def feasible_no_reset(run: GuardOnlyRun, gamma, time_domain: str = TIME_DENSE) -> FeasibilityResult:
    """All-ordered-pairs feasibility test with a monotone witness.

    Empty runs are feasible exactly when the initial parameter condition
    holds.  The witness is omitted (verdict only) when the evaluated
    bounds are not rational.
    """
    program = compile_run(run, time_domain)
    if len(program.segments) > 1:
        raise UnsupportedError("reset-free feasibility called on a run with resets")
    return _decide(program, gamma, True)


def feasible_with_reset(run, gamma, time_domain: Optional[str] = None,
                        witness: bool = True) -> FeasibilityResult:
    """Feasibility with clock resets, one reset-free segment after another.

    ``run`` is a :class:`RunProgram`, which carries its own time domain,
    or a ``GuardOnlyRun``, compiled here for ``time_domain`` (default
    dense).  Failing pairs and reasons use the run's
    1-based step numbers; after a reset at step h, the reset value failing
    step j's upper bound is the pair (h, j).  The witness, built only when
    ``witness`` is true, sets the clock to the reset value after h.
    """
    if isinstance(run, GuardOnlyRun):
        run = compile_run(run, time_domain or TIME_DENSE)
    elif time_domain not in (None, run.time_domain):
        raise ValueError("a compiled run is decided in its own time domain")
    return _decide(run, gamma, witness)
