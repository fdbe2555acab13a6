import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from ptasynth.constraints import AtomicConstraint, SimpleConstraint
from ptasynth.expressions import Expression
from ptasynth.feasibility import (
    Bound,
    FeasibilityResult,
    _clock_of,
    compile_run,
    feasible_no_reset,
    feasible_with_reset,
    linf,
    pair_satisfiable,
    split_guard,
    usup,
)
from ptasynth.harness import rand_guard_only_run, rand_linear_expr, suite_feasibility_oracle
from ptasynth.model import ConcreteRun, TIME_DENSE, TIME_NAT, UnsupportedError
from ptasynth.polynomials import AnchoredRoot, isolate_real_roots
from ptasynth.scalars import INF
from ptasynth.semantics import guard_run_reachable_set, linearize_guard_run, replay_run
from ptasynth.transforms import GuardOnlyRun, GuardStep


def upper(c, strict=False):
    return AtomicConstraint("x", None, strict, Expression.constant(c))


def lower(c, strict=False):
    # x >= c, normalized as -x <= -c
    return AtomicConstraint(None, "x", strict, Expression.constant(-c))


def upper_p(strict=False):
    return AtomicConstraint("x", None, strict, Expression.param("p"))


def step(*atoms, reset=None):
    updates = {"x": reset} if reset is not None else {}
    return GuardStep(SimpleConstraint.of(*atoms), "a", updates, "s", "t")


def mkrun(*steps, params=("p",)):
    return GuardOnlyRun(tuple(steps), SimpleConstraint.true(), ("x",), params)


def test_split_guard_examples():
    lb, up, free = split_guard(SimpleConstraint.of(lower(2), upper_p()))
    assert [a.render() for a in lb] == ["-x <= -2"]
    assert [a.render() for a in up] == ["x <= p"]
    assert len(free) == 0
    lb, up, _ = split_guard(SimpleConstraint.true())
    assert len(lb) == 0 and len(up) == 0
    lb, up, _ = split_guard(SimpleConstraint.of(upper_p(strict=True), upper(7)))
    assert len(lb) == 0 and len(up) == 2


def test_split_guard_rejects_difference_atoms():
    diag = AtomicConstraint("x", "y", False, Expression.constant(1))
    with pytest.raises(UnsupportedError):
        split_guard(SimpleConstraint.of(diag))


def test_linf_examples():
    b = linf(SimpleConstraint.of(lower(3), lower(5, strict=True)), {})
    assert b == Bound(Fraction(5), True)
    b = linf(SimpleConstraint.of(AtomicConstraint(None, "x", False, Expression.constant(2))), {})
    assert b == Bound(Fraction(0), False)


def test_usup_examples():
    b = usup(SimpleConstraint.of(upper(4), upper(2, strict=True)), {})
    assert b == Bound(Fraction(2), True)
    # unsatisfiable upper part reports the conventional value 0
    b = usup(SimpleConstraint.of(upper(0, strict=True)), {})
    assert b.value == 0 and b.open
    # no upper atoms at all: unbounded
    assert usup(SimpleConstraint.true(), {}).value is INF


def test_pair_satisfiable_examples():
    run = mkrun(step(lower(3)), step(upper(2)))
    assert not pair_satisfiable(1, 2, run, {})
    run2 = mkrun(step(lower(1, strict=True)), step(upper(2, strict=True)))
    assert pair_satisfiable(1, 2, run2, {}, TIME_DENSE)
    assert not pair_satisfiable(1, 2, run2, {}, TIME_NAT)  # no integer in (1,2)
    run3 = mkrun(step(), step())
    assert pair_satisfiable(1, 2, run3, {})


def test_feasible_no_reset_midpoint_example():
    res = feasible_no_reset(mkrun(step(lower(2), upper(6))), {})
    assert res.feasible
    assert res.witness.steps == ((Fraction(4), 0),)


def test_feasible_no_reset_wait_after_first_step():
    gamma = {"p": Fraction(2)}
    run = mkrun(step(upper_p()), step(lower(3)))
    res = feasible_no_reset(run, gamma)
    assert res.feasible
    chain, _ = linearize_guard_run(run)
    assert replay_run(chain, gamma, res.witness, TIME_DENSE)
    assert guard_run_reachable_set(run, gamma, TIME_DENSE) is not None


def test_feasible_no_reset_failing_pair():
    gamma = {"p": Fraction(2)}
    run = mkrun(step(lower(3)), step(upper_p()))
    res = feasible_no_reset(run, gamma)
    assert not res.feasible
    assert res.failing_pair == (1, 2)
    assert guard_run_reachable_set(run, gamma, TIME_DENSE) is None


def assert_reset_witnesses(run, gamma, dense, nat):
    for domain, expected in ((TIME_DENSE, dense), (TIME_NAT, nat)):
        res = feasible_with_reset(run, gamma, domain)
        assert res.feasible
        assert res.witness.steps == expected
        assert replay_run(linearize_guard_run(run, domain)[0], gamma, res.witness, domain)


def test_feasible_with_reset_examples():
    # reset lets a later lower bound be met afresh
    run = mkrun(step(upper(1), reset=0), step(lower(2), upper(3)))
    assert_reset_witnesses(run, {},
                           ((Fraction(1, 2), 0), (Fraction(5, 2), 1)),
                           ((Fraction(0), 0), (Fraction(2), 1)))

    # reset to zero satisfies an upper bound of zero
    run2 = mkrun(step(lower(5), reset=0), step(upper_p()))
    assert_reset_witnesses(run2, {"p": Fraction(0)},
                           ((Fraction(5), 0), (Fraction(0), 1)),
                           ((Fraction(5), 0), (Fraction(0), 1)))

    # squeeze after a reset to 4: next guard demands x <= 3
    run3 = mkrun(step(reset=4), step(upper(3)))
    res3 = feasible_with_reset(run3, {})
    assert not res3.feasible
    assert guard_run_reachable_set(run3, {}, TIME_DENSE) is None

    # after a reset to 2 the clock reads 2, not 0 and not the 1/2 it was
    run4 = mkrun(step(upper(1), reset=2), step(lower(3), upper(4)))
    assert_reset_witnesses(run4, {},
                           ((Fraction(1, 2), 0), (Fraction(3, 2), 1)),
                           ((Fraction(0), 0), (Fraction(1), 1)))

    # two resets: to 3, then to 1
    run5 = mkrun(step(lower(1), reset=3), step(upper(5)), step(lower(4), reset=1), step(upper(2)))
    assert_reset_witnesses(run5, {},
                           ((Fraction(1), 0), (Fraction(1), 1), (Fraction(0), 2), (Fraction(1, 2), 3)),
                           ((Fraction(1), 0), (Fraction(0), 1), (Fraction(1), 2), (Fraction(0), 3)))


def _named_steps(reason):
    return tuple(int(n) for n in re.findall(r"step (\d+)", reason))


@pytest.mark.parametrize("steps, pair", [
    ([step(), step(reset=4), step(), step(upper(3))], (2, 4)),
    ([step(), step(), step(reset=0), step(lower(5)), step(upper(3))], (4, 5)),
])
def test_reason_names_the_failing_pair_after_a_reset(steps, pair):
    for domain in (TIME_DENSE, TIME_NAT):
        res = feasible_with_reset(mkrun(*steps), {}, domain)
        assert not res.feasible
        assert res.failing_pair == pair
        assert _named_steps(res.reason) == pair


def test_segment_pairs_and_witnesses_on_random_runs_with_resets():
    rng = random.Random(1107)
    infeasible = 0
    for case in range(300):
        grun = rand_guard_only_run(rng, rng.randint(1, 2), max_len=7, reset_prob=0.35)
        gamma = {p: Fraction(rng.randint(-3, 12)) for p in grun.params}
        for domain in (TIME_DENSE, TIME_NAT):
            res = feasible_with_reset(grun, gamma, domain)
            reachable = guard_run_reachable_set(grun, gamma, domain) is not None
            assert res.feasible == reachable, (case, domain)
            if res.feasible:
                chain, _ = linearize_guard_run(grun, domain)
                assert replay_run(chain, gamma, res.witness, domain), (case, domain)
            elif res.failing_pair is not None:
                i, j = res.failing_pair
                assert 1 <= i <= j <= len(grun.steps)
                assert _named_steps(res.reason) == (i, j)
                cut = replace(grun, steps=grun.steps[:j])
                assert guard_run_reachable_set(cut, gamma, domain) is None, (case, domain)
                infeasible += 1
    assert infeasible > 100


def test_degenerate_run_feasible_iff_initial_condition():
    ok = GuardOnlyRun((), SimpleConstraint.true(), ("x",), ("p",))
    assert feasible_with_reset(ok, {"p": Fraction(1)}).feasible
    cond = SimpleConstraint.of(AtomicConstraint(None, None, False,
                                                Expression.param("p")))  # 0 <= p
    run = GuardOnlyRun((), cond, ("x",), ("p",))
    assert feasible_with_reset(run, {"p": Fraction(1)}).feasible
    assert not feasible_with_reset(run, {"p": Fraction(-1)}).feasible


def test_witness_monotone_in_reset_free_runs():
    rng = random.Random(23)
    done = 0
    while done < 200:
        grun = rand_guard_only_run(rng, 1, reset_prob=0.0)
        gamma = {"p1": Fraction(rng.randint(-5, 20))}
        res = feasible_no_reset(grun, gamma, TIME_DENSE)
        if not res.feasible:
            continue
        x = Fraction(0)
        for delay, _ in res.witness.steps:
            assert delay >= 0
            x += delay
        done += 1


def test_oracle_equivalence_suite_reduced():
    report = suite_feasibility_oracle(2, 60)
    assert report.ok(), report.render()


# -- the compiled check against a Fraction reference ------------------------------
#
# The reference splits every guard at the valuation, evaluates every bound
# to a Fraction (or an exact algebraic value) and compares Bound objects.
# The compiled check must give the same verdict, witness, failing pair and
# reason.

def _ref_least_integer_in(lo, hi):
    n = max(math.floor(lo.value) + 1 if lo.open else math.ceil(lo.value), 0)
    if hi.value is INF:
        return n
    top = math.ceil(hi.value) - 1 if hi.open else math.floor(hi.value)
    return n if n <= top else None


def _ref_nonempty(lo, hi, time_domain):
    if time_domain == TIME_NAT:
        return _ref_least_integer_in(lo, hi) is not None
    if hi.value is INF:
        return True
    return lo.value < hi.value or (lo.value == hi.value and not lo.open and not hi.open)


def _ref_max(a, b):
    if a.value != b.value:
        return a if a.value > b.value else b
    return Bound(a.value, a.open or b.open)


def _ref_min(a, b):
    if a.value != b.value:
        return a if a.value < b.value else b
    return Bound(a.value, a.open or b.open)


def _ref_pick_value(lo, hi, time_domain):
    if time_domain == TIME_NAT:
        return Fraction(_ref_least_integer_in(lo, hi))
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


def reference_feasible(run, gamma, time_domain):
    clock = _clock_of(run)
    if not run.initial_condition.holds({}, gamma):
        return FeasibilityResult(False, reason="initial parameter condition fails: %s"
                                 % run.initial_condition.render())
    guards = []
    for idx, st in enumerate(run.steps, start=1):
        lb, up, free = split_guard(st.guard)
        for atom in free:
            if not atom.holds({}, gamma):
                return FeasibilityResult(False, reason="parameter condition at step %d fails: %s"
                                         % (idx, atom.render()))
        guards.append((lb, up))
    lows = [linf(lb, gamma) for lb, _ in guards]
    highs = [usup(up, gamma) for _, up in guards]
    segments = []
    first, start, reset_at = 0, Bound(Fraction(0)), None
    for k, st in enumerate(run.steps):
        if clock in st.updates:
            segments.append((first, k + 1, start, reset_at))
            first, start, reset_at = k + 1, Bound(Fraction(st.updates[clock])), k
    segments.append((first, len(run.steps), start, reset_at))
    for first, stop, start, reset_at in segments:
        pairs = [] if reset_at is None else [(reset_at, start, j) for j in range(first, stop)]
        pairs += [(i, lows[i], j) for i in range(first, stop) for j in range(i, stop)]
        for i, lo, j in pairs:
            if not _ref_nonempty(lo, highs[j], time_domain):
                return FeasibilityResult(False, failing_pair=(i + 1, j + 1),
                                         reason="no admissible value between the lower bound "
                                                "of step %d and the upper bound of step %d"
                                                % (i + 1, j + 1))
    steps = []
    for first, stop, start, _ in segments:
        tops = highs[first:stop]
        for k in range(len(tops) - 2, -1, -1):
            tops[k] = _ref_min(tops[k + 1], tops[k])
        lo, x = start, start.value
        for k in range(first, stop):
            lo = _ref_max(lo, lows[k])
            value = _ref_pick_value(lo, tops[k - first], time_domain)
            if value is None:
                return FeasibilityResult(True)
            value = max(x, value)
            steps.append((value - x, k))
            x = value
    return FeasibilityResult(True, witness=ConcreteRun(tuple(steps)))


def _poly_expr(rng, params):
    """A bound of degree 2: a square or a product of parameters plus a line."""
    p = rng.choice(params)
    q = rng.choice(params)
    mono = ((p, 2),) if p == q else tuple(sorted(((p, 1), (q, 1))))
    terms = {mono: rng.choice([-2, -1, 1, 2])}
    for key, c in rand_linear_expr(rng, params).terms.items():
        terms[key] = terms.get(key, 0) + c
    return Expression.polynomial(terms)


def _rich_run(rng, n_params, polynomial):
    """A seeded random run with clock-free conditions (also initially),
    infinite bounds and, if asked, polynomial bounds."""
    run = rand_guard_only_run(rng, n_params, max_len=7, reset_prob=0.3)
    params = run.params

    def bound():
        if polynomial and rng.random() < 0.5:
            return _poly_expr(rng, params)
        return rand_linear_expr(rng, params)

    steps = []
    for st in run.steps:
        atoms = []
        for atom in st.guard:
            if polynomial and rng.random() < 0.5:
                atom = replace(atom, rhs=bound())
            atoms.append(atom)
        if rng.random() < 0.1:
            atoms.append(AtomicConstraint(None, None, rng.random() < 0.5, bound()))
        if rng.random() < 0.1:
            atoms.append(AtomicConstraint("x", None, False, Expression.infinity()))
        rng.shuffle(atoms)
        steps.append(replace(st, guard=SimpleConstraint(tuple(atoms))))
    n_initial = 1 if rng.random() < 0.2 else 0
    initial = SimpleConstraint(tuple(AtomicConstraint(None, None, rng.random() < 0.5, bound())
                                     for _ in range(n_initial)))
    return replace(run, steps=tuple(steps), initial_condition=initial)


def _outcome_kind(res):
    if not res.feasible:
        return "pair" if res.failing_pair else res.reason.split(" fails")[0]
    return "witness" if res.witness is not None else "verdict only"


def _assert_same(run, gamma, seen):
    for domain in (TIME_DENSE, TIME_NAT):
        program = compile_run(run, domain)
        got = feasible_with_reset(program, gamma)
        want = reference_feasible(run, gamma, domain)
        assert repr(got) == repr(want), (run, gamma, domain)
        assert feasible_with_reset(program, gamma, witness=False) == replace(want, witness=None)
        seen[domain, _outcome_kind(want)] += 1


VALUATIONS = {
    "int": lambda rng: rng.randint(-3, 12),
    "integral Fraction": lambda rng: Fraction(rng.randint(-3, 12)),
    "Fraction": lambda rng: Fraction(rng.randint(-40, 160), rng.choice([3, 7, 12, 10**6 + 3])),
    "Fraction near an int": lambda rng: rng.randint(-3, 12) + Fraction(rng.choice([-1, 1]),
                                                                       10**6 + 3),
}


@pytest.mark.parametrize("kind", sorted(VALUATIONS))
@pytest.mark.parametrize("polynomial", [False, True], ids=["linear", "polynomial"])
def test_compiled_check_matches_the_fraction_reference_at_rational_points(kind, polynomial):
    rng = random.Random(1609)
    seen = Counter()
    for _ in range(250):
        run = _rich_run(rng, rng.randint(1, 2), polynomial)
        gamma = {p: VALUATIONS[kind](rng) for p in run.params}
        _assert_same(run, gamma, seen)
    for domain in (TIME_DENSE, TIME_NAT):
        assert seen[domain, "witness"] > 40 and seen[domain, "pair"] > 40, seen
        assert seen[domain, "parameter condition at step %d"] + \
            seen[domain, "initial parameter condition"] > 0, seen


def _roots():
    out = []
    for poly in ((-2, 0, 1), (-3, 0, 1), (1, -3, 0, 1), (-12, 0, 1)):
        out += isolate_real_roots(poly)
    return out


@pytest.mark.parametrize("anchored", [False, True], ids=["AlgebraicNumber", "AnchoredRoot"])
def test_compiled_check_matches_the_fraction_reference_at_algebraic_points(anchored):
    rng = random.Random(1610)
    seen = Counter()
    roots = _roots()
    for _ in range(150):
        run = _rich_run(rng, 1, polynomial=True)
        root = rng.choice(roots)
        if anchored:
            root = AnchoredRoot(root, Fraction(math.floor(root)), frozenset())
        _assert_same(run, {"p1": root}, seen)
    for domain in (TIME_DENSE, TIME_NAT):
        assert seen[domain, "pair"] > 20, seen
    assert seen[TIME_NAT, "witness"] > 20 and seen[TIME_DENSE, "verdict only"] > 10, seen


def test_compiled_run_keeps_its_domain():
    run = mkrun(step(lower(1, strict=True), upper(2, strict=True)))
    program = compile_run(run, TIME_NAT)
    assert not feasible_with_reset(program, {}).feasible
    assert feasible_with_reset(run, {}).feasible
    with pytest.raises(ValueError):
        feasible_with_reset(program, {}, TIME_DENSE)
