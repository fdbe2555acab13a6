"""Per-run feasibility for a single parametric clock.

A guard over one clock splits into lower-bound conjuncts (-x < e or
-x <= e) and upper-bound conjuncts (x < e or x <= e); ``linf`` and
``usup`` are the tightest induced nonnegative bounds.  A reset-free run
is realizable exactly when, for every ordered pair of steps i <= j, the
interval between the i-th lower bound and the j-th upper bound contains
an admissible clock value (an integer one in nat time).  Runs with
resets reduce to reset-free segments: the prefix up to the first reset
is solved with the reset relaxed, the post-reset value is pinned by an
equality-shaped pair of atoms, and the suffix recurses.

Witness construction follows the midpoint rule on the cumulative
lower/upper envelopes.  Open endpoints are first shrunk inward by
min(1, gap)/4, the candidate is clamped to be monotone in the step
index, and nat time takes the least admissible integer instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .constraints import AtomicConstraint, SimpleConstraint
from .model import ConcreteRun, TIME_DENSE, TIME_NAT, UnsupportedError
from .scalars import INF
from .transforms import GuardOnlyRun, GuardStep


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


def _check_param_conditions(run: GuardOnlyRun, gamma) -> Optional[str]:
    if not run.initial_condition.holds({}, gamma):
        return "initial parameter condition fails: %s" % run.initial_condition.render()
    for idx, step in enumerate(run.steps, start=1):
        _, _, free = split_guard(step.guard)
        for atom in free:
            if not atom.holds({}, gamma):
                return "parameter condition at step %d fails: %s" % (idx, atom.render())
    return None


def _clock_of(run: GuardOnlyRun) -> Optional[str]:
    for step in run.steps:
        for atom in step.guard:
            for c in atom.clocks():
                return c
    for step in run.steps:
        if step.updates:
            return sorted(step.updates)[0]
    return run.clocks[0] if run.clocks else None


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
    bad = _check_param_conditions(run, gamma)
    if bad is not None:
        return FeasibilityResult(False, reason=bad)
    ell = len(run.steps)
    if ell == 0:
        return FeasibilityResult(True, witness=ConcreteRun(()))
    lows, highs = [], []
    for step in run.steps:
        lb, up, _ = split_guard(step.guard)
        lows.append(linf(lb, gamma))
        highs.append(usup(up, gamma))
    for i in range(1, ell + 1):
        for j in range(i, ell + 1):
            if not _interval_nonempty(lows[i - 1], highs[j - 1], time_domain):
                return FeasibilityResult(False, failing_pair=(i, j),
                                         reason="no admissible value between the lower bound "
                                                "of step %d and the upper bound of step %d" % (i, j))
    cum_low = []
    acc = Bound(Fraction(0), False)
    for b in lows:
        acc = _bound_max(acc, b)
        cum_low.append(acc)
    cum_high = [None] * ell
    acc = Bound(INF, True)
    for i in range(ell - 1, -1, -1):
        acc = _bound_min(acc, highs[i])
        cum_high[i] = acc
    values = []
    prev = Fraction(0)
    for i in range(ell):
        candidate = _pick_value(cum_low[i], cum_high[i], time_domain)
        if candidate is None:
            return FeasibilityResult(True, witness=None)
        value = max(prev, candidate)
        values.append(value)
        prev = value
    steps = []
    x = Fraction(0)
    for i, value in enumerate(values):
        steps.append((value - x, i))
        x = values[i]
    return FeasibilityResult(True, witness=ConcreteRun(tuple(steps)))


def _pin_step(clock: str, value: int, target: str) -> GuardStep:
    from .expressions import Expression

    pin = SimpleConstraint.of(
        AtomicConstraint(clock, None, False, Expression.constant(value)),
        AtomicConstraint(None, clock, False, Expression.constant(-value)),
    )
    return GuardStep(pin, "pin", {}, "pin0", target)


def feasible_with_reset(run: GuardOnlyRun, gamma, time_domain: str = TIME_DENSE,
                        clock: Optional[str] = None) -> FeasibilityResult:
    """Feasibility with clock resets, by segment recursion at the first reset.

    The returned witness is stitched from the segment witnesses; failing
    pairs are reported in the original run's 1-based step indices, with a
    failure of the synthetic pinning step attributed to the reset step.
    """
    bad = _check_param_conditions(run, gamma)
    if bad is not None:
        return FeasibilityResult(False, reason=bad)
    if clock is None:
        clock = _clock_of(run)
    h = None
    for idx, step in enumerate(run.steps, start=1):
        if clock is not None and clock in step.updates:
            h = idx
            break
    if h is None:
        return feasible_no_reset(run, gamma, time_domain, clock)

    prefix_steps = []
    for step in run.steps[:h]:
        cleaned = dict(step.updates)
        cleaned.pop(clock, None)
        prefix_steps.append(replace(step, updates=cleaned))
    prefix = GuardOnlyRun(tuple(prefix_steps), SimpleConstraint.true(),
                          run.clocks, run.params)
    head = feasible_no_reset(prefix, gamma, time_domain, clock)
    if not head.feasible:
        return FeasibilityResult(False, failing_pair=head.failing_pair, reason=head.reason)

    reset_value = int(run.steps[h - 1].updates[clock])
    tail_steps = (_pin_step(clock, reset_value, "pin1"),) + run.steps[h:]
    tail = GuardOnlyRun(tail_steps, SimpleConstraint.true(), run.clocks, run.params)
    rest = feasible_with_reset(tail, gamma, time_domain, clock)
    if not rest.feasible:
        pair = rest.failing_pair
        if pair is not None:
            pair = tuple(h if k == 1 else h + k - 1 for k in pair)
        return FeasibilityResult(False, failing_pair=pair, reason=rest.reason)

    if head.witness is None or rest.witness is None:
        return FeasibilityResult(True, witness=None)
    # replay the tail witness to recover absolute clock values, then restate
    # the post-pin steps relative to the original run
    steps = list(head.witness.steps)
    x_tail = Fraction(0)
    prev = Fraction(reset_value)
    for delay, idx in rest.witness.steps:
        fired_at = x_tail + delay
        step = tail.steps[idx]
        post = Fraction(step.updates[clock]) if clock in step.updates else fired_at
        if idx != 0:
            steps.append((fired_at - prev, h + idx - 1))
            prev = post
        x_tail = post
    return FeasibilityResult(True, witness=ConcreteRun(tuple(steps)))
