import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from ptasynth.constraints import AtomicConstraint, SimpleConstraint
from ptasynth.expressions import Expression
from ptasynth.feasibility import (
    Bound,
    feasible_no_reset,
    feasible_with_reset,
    linf,
    pair_satisfiable,
    split_guard,
    usup,
)
from ptasynth.harness import rand_guard_only_run, suite_feasibility_oracle
from ptasynth.model import TIME_DENSE, TIME_NAT, UnsupportedError
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
