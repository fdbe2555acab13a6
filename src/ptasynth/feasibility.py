"""Per-run feasibility for a single parametric clock.

A guard over one clock splits into lower-bound conjuncts (-x < e or
-x <= e) and upper-bound conjuncts (x < e or x <= e); ``linf`` and
``usup`` are the tightest induced nonnegative bounds.  A reset-free run
is realizable exactly when, for every ordered pair of steps i <= j, the
interval between the i-th lower bound and the j-th upper bound contains
an admissible clock value (an integer one in nat time).  A reset of
the clock to b ends a segment and starts the next one: its steps are
checked the same way, and the reset value b, as a closed lower bound,
against every upper bound of the segment.

Witness construction follows the midpoint rule on the cumulative
lower/upper envelopes of each segment, the lower one starting at 0 or at
the reset value.  Open endpoints are first shrunk inward by
min(1, gap)/4, the candidate is clamped to be monotone in the step
index, and nat time takes the least admissible integer instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .constraints import AtomicConstraint, SimpleConstraint
from .model import ConcreteRun, TIME_DENSE, TIME_NAT, UnsupportedError
from .scalars import INF
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


def _interval_nonempty(lo: Bound, hi: Bound, time_domain: str) -> bool:
    if time_domain == TIME_NAT:
        return _least_integer_in(lo, hi) is not None
    if hi.value is INF:
        return lo.value is not INF
    if lo.value is INF:
        return False
    if lo.value < hi.value:
        return True
    return lo.value == hi.value and not lo.open and not hi.open


def _least_integer_in(lo: Bound, hi: Bound) -> Optional[int]:
    if lo.value is INF:
        return None
    n = math.floor(lo.value) + 1 if lo.open else math.ceil(lo.value)
    n = max(n, 0)
    if hi.value is INF:
        return n
    top = math.ceil(hi.value) - 1 if hi.open else math.floor(hi.value)
    return n if n <= top else None


def pair_satisfiable(i: int, j: int, run: GuardOnlyRun, gamma,
                     time_domain: str = TIME_DENSE) -> bool:
    """Whether some admissible clock value meets step i's lower and step j's
    upper bounds (1-based indices, i <= j)."""
    lb_i, _, _ = split_guard(run.steps[i - 1].guard)
    _, up_j, _ = split_guard(run.steps[j - 1].guard)
    return _interval_nonempty(linf(lb_i, gamma), usup(up_j, gamma), time_domain)


def _bound_max(a: Bound, b: Bound) -> Bound:
    if a.value > b.value:
        return a
    if a.value < b.value:
        return b
    return Bound(a.value, a.open or b.open)


def _bound_min(a: Bound, b: Bound) -> Bound:
    if a.value < b.value:
        return a
    if a.value > b.value:
        return b
    return Bound(a.value, a.open or b.open)


def _pick_value(lo: Bound, hi: Bound, time_domain: str):
    """A concrete admissible value in a nonempty bound interval (None if the
    bounds are not rational)."""
    if time_domain == TIME_NAT:
        n = _least_integer_in(lo, hi)
        return None if n is None else Fraction(n)
    if not isinstance(lo.value, Fraction) or not (hi.value is INF or isinstance(hi.value, Fraction)):
        return None
    if hi.value is INF:
        return lo.value + 1 if lo.open else lo.value
    gap = hi.value - lo.value
    if gap == 0:
        return lo.value
    shrink = min(Fraction(1), gap) / 4
    a = lo.value + (shrink if lo.open else 0)
    b = hi.value - (shrink if hi.open else 0)
    return (a + b) / 2


def _clock_of(run: GuardOnlyRun) -> Optional[str]:
    for step in run.steps:
        for atom in step.guard:
            for c in atom.clocks():
                return c
    for step in run.steps:
        if step.updates:
            return sorted(step.updates)[0]
    return run.clocks[0] if run.clocks else None


def _feasible(run: GuardOnlyRun, gamma, time_domain: str,
              clock: Optional[str]) -> FeasibilityResult:
    """The per-run test and witness, one reset-free segment at a time.

    A segment ends at a step that resets ``clock`` (its guard is tested
    before the reset) or at the end of the run.  Steps are 0-based here
    and 1-based in the result.
    """
    if not run.initial_condition.holds({}, gamma):
        return FeasibilityResult(False, reason="initial parameter condition fails: %s"
                                 % run.initial_condition.render())
    guards = []
    for idx, step in enumerate(run.steps, start=1):
        lb, up, free = split_guard(step.guard)
        for atom in free:
            if not atom.holds({}, gamma):
                return FeasibilityResult(False, reason="parameter condition at step %d fails: %s"
                                         % (idx, atom.render()))
        guards.append((lb, up))
    lows = [linf(lb, gamma) for lb, _ in guards]
    highs = [usup(up, gamma) for _, up in guards]

    # (first step, one past the last step, start bound, resetting step or None)
    segments = []
    first, start, reset_at = 0, Bound(Fraction(0)), None
    for k, step in enumerate(run.steps):
        if clock is not None and clock in step.updates:
            segments.append((first, k + 1, start, reset_at))
            first, start, reset_at = k + 1, Bound(Fraction(int(step.updates[clock]))), k
    segments.append((first, len(run.steps), start, reset_at))

    for first, stop, start, reset_at in segments:
        pairs = [] if reset_at is None else [(reset_at, start, j) for j in range(first, stop)]
        pairs += [(i, lows[i], j) for i in range(first, stop) for j in range(i, stop)]
        for i, lo, j in pairs:
            if not _interval_nonempty(lo, highs[j], time_domain):
                return FeasibilityResult(False, failing_pair=(i + 1, j + 1),
                                         reason="no admissible value between the lower bound "
                                                "of step %d and the upper bound of step %d"
                                                % (i + 1, j + 1))

    steps = []
    for first, stop, start, _ in segments:
        tops = highs[first:stop]            # suffix minima within the segment
        for k in range(len(tops) - 2, -1, -1):
            tops[k] = _bound_min(tops[k + 1], tops[k])
        lo, x = start, start.value
        for k in range(first, stop):
            lo = _bound_max(lo, lows[k])
            value = _pick_value(lo, tops[k - first], time_domain)
            if value is None:
                return FeasibilityResult(True)
            value = max(x, value)
            steps.append((value - x, k))
            x = value
    return FeasibilityResult(True, witness=ConcreteRun(tuple(steps)))


def feasible_no_reset(run: GuardOnlyRun, gamma, time_domain: str = TIME_DENSE,
                      clock: Optional[str] = None) -> FeasibilityResult:
    """All-ordered-pairs feasibility test with a monotone witness.

    Empty runs are feasible exactly when the initial parameter condition
    holds.  The witness is omitted (verdict only) when the evaluated
    bounds are not rational.
    """
    if clock is None:
        clock = _clock_of(run)
    for step in run.steps:
        if clock is not None and clock in step.updates:
            raise UnsupportedError("reset-free feasibility called on a run with resets")
    return _feasible(run, gamma, time_domain, clock)


def feasible_with_reset(run: GuardOnlyRun, gamma, time_domain: str = TIME_DENSE,
                        clock: Optional[str] = None) -> FeasibilityResult:
    """Feasibility with clock resets, one reset-free segment after another.

    Failing pairs and reasons use the run's 1-based step numbers; after a
    reset at step h, the reset value failing step j's upper bound is the
    pair (h, j).  The witness sets the clock to the reset value after h.
    """
    if clock is None:
        clock = _clock_of(run)
    return _feasible(run, gamma, time_domain, clock)
