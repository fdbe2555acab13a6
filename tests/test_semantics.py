import random
from fractions import Fraction

import pytest

from ptasynth.constraints import AtomicConstraint, SimpleConstraint
from ptasynth.expressions import Expression
from ptasynth.harness import rand_pta_one_clock, suite_lu_monotonicity
from ptasynth.model import ConcreteRun, Edge, PropLoc, Pta, SystemProperty, UnsupportedError
from ptasynth.parser import parse_constraint, parse_model, parse_property
from ptasynth.semantics import (
    clock_regions,
    grid_oracle,
    reach_dense_one_clock,
    reach_discrete,
    replay_run,
    valuation_key,
)


def g(p):
    return {"p": Fraction(p)}


def test_replay_examples(gate):
    ok = replay_run(gate, g(5), ConcreteRun(((Fraction(3), 0),)))
    assert ok
    bad = replay_run(gate, g(5), ConcreteRun(((Fraction(1), 0),)))
    assert not bad and "guard" in bad.reason


def test_replay_invariant_violation():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: x <= p
loc q1 inv: true
edge q0 -> q1 : true ; a ;
""")
    res = replay_run(pta, g(2), ConcreteRun(((Fraction(3), 0),)))
    assert not res and "invariant" in res.reason


def brute_force_reachable(pta, gamma, max_delay=6):
    """Independent oracle: enumerate all integer-delay runs of length <= 2.

    Nothing is reached when the initial invariant fails at the zero
    valuation."""
    hits = set()
    start = {c: Fraction(0) for c in pta.clocks}
    if not pta.invariants[pta.initial].holds(start, gamma):
        return hits
    states = [(pta.initial, tuple(sorted(start.items())))]
    for _ in range(3):
        nxt = []
        for loc, omega_items in states:
            omega = dict(omega_items)
            for d in range(max_delay + 1):
                shifted = {c: v + d for c, v in omega.items()}
                if not pta.invariants[loc].holds(shifted, gamma):
                    continue
                for e in pta.edges:
                    if e.source != loc or not e.guard.holds(shifted, gamma):
                        continue
                    after = dict(shifted)
                    for c, b in e.updates.items():
                        after[c] = Fraction(b)
                    if not pta.invariants[e.target].holds(after, gamma):
                        continue
                    nxt.append((e.target, tuple(sorted(after.items()))))
        states.extend(nxt)
        hits.update(loc for loc, _ in states)
    return hits


def test_reach_discrete_derived_examples(gate, gate_ef):
    # exhaustive search over delays 0..6 confirms the verdicts
    for p in range(0, 7):
        expected = "q1" in brute_force_reachable(gate, g(p))
        verdict = reach_discrete(gate, g(p), gate_ef.phi)
        assert verdict.reachable == expected
        if verdict.reachable:
            assert replay_run(gate, g(p), verdict.witness, "nat")


def test_reach_initial_location_trivial(gate):
    v = reach_discrete(gate, g(0), PropLoc("q0"))
    assert v.reachable and v.witness.steps == ()


def test_reach_dense_point_region(gate, gate_ef):
    v = reach_dense_one_clock(gate, g(2), gate_ef.phi)
    assert v.reachable
    assert replay_run(gate, g(2), v.witness, "dense")
    assert not reach_dense_one_clock(gate, g(Fraction(199, 100)), gate_ef.phi).reachable


def test_reach_dense_empty_open_interval():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x > 2 & x < 2 ; a ;
""")
    psi = parse_property("EF q1", pta)
    for p in range(0, 4):
        assert not reach_dense_one_clock(pta, g(p), psi.phi).reachable


def test_reach_dense_reset_loop():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q0 : true ; a ; reset x:=0
edge q0 -> q1 : true ; b ;
""")
    psi = parse_property("EF q1", pta)
    assert reach_dense_one_clock(pta, g(0), psi.phi).reachable


def test_reach_dense_rejects_two_constrained_clocks():
    pta = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
edge q0 -> q0 : x <= p & y >= 1 ; a ;
""")
    psi = parse_property("EF q0", pta)
    with pytest.raises(UnsupportedError):
        reach_dense_one_clock(pta, g(1), psi.phi)


def test_grid_oracle_example(gate, gate_ef):
    grid = [g(i) for i in range(6)]
    out = grid_oracle(gate, gate_ef, grid, "nat")
    expect = {0: False, 1: False, 2: True, 3: True, 4: True, 5: True}
    for i in range(6):
        assert out[valuation_key(g(i))] == expect[i]
    # duality: the forall-always complement
    psi2 = parse_property("AG (!q1)", gate)
    out2 = grid_oracle(gate, psi2, grid, "nat")
    for i in range(6):
        assert out2[valuation_key(g(i))] == (not expect[i])


def test_grid_oracle_parameter_free():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= 1 ; a ;
""")
    psi = parse_property("EF q1", pta)
    out = grid_oracle(pta, psi, [g(i) for i in range(4)], "nat")
    assert set(out.values()) == {True}


def test_cap_independence(gate, gate_ef):
    for p in range(0, 8):
        base = reach_discrete(gate, g(p), gate_ef.phi)
        bigger = reach_discrete(gate, g(p), gate_ef.phi, min_cap=base.info["cap"] + 3)
        assert base.reachable == bigger.reachable


def test_discrete_dense_agreement_on_closed_integer_models():
    # closed integer bounds: the two engines must agree at integer valuations
    rng = random.Random(17)
    checked = 0
    while checked < 500:
        pta = rand_pta_one_clock(rng, 1, "nat", "int")
        if any(a.strict for a in pta.atoms()):
            continue
        psi = SystemProperty("EF", PropLoc(rng.choice(pta.locations)))
        gamma = {"p1": Fraction(rng.randint(-4, 10))}
        nat = reach_discrete(pta, gamma, psi.phi)
        dense = reach_dense_one_clock(pta, gamma, psi.phi)
        assert nat.reachable == dense.reachable
        for verdict, domain in ((nat, "nat"), (dense, "dense")):
            if verdict.reachable and verdict.witness is not None:
                assert replay_run(pta, gamma, verdict.witness, domain)
        checked += 1


def test_diagonal_atoms_with_saturated_clock():
    # per-clock saturation must not corrupt difference atoms: y resets while
    # x grows far past every bound, then a diagonal guard asks x - y <= p
    pta = parse_model("""
clocks: x, y
params: p
domain: time=nat param=nat
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q0 : true ; tick ; reset y:=0
edge q0 -> q1 : x - y <= p & x >= 4 ; go ;
""")
    psi = parse_property("EF q1", pta)
    # reachable for every p: wait 4, reset y, fire with x-y small
    for p in range(0, 4):
        v = reach_discrete(pta, g(p), psi.phi)
        assert v.reachable, p
        assert replay_run(pta, g(p), v.witness, "nat")
    # and a lower-bounded difference that the cap must still see as large
    pta2 = parse_model("""
clocks: x, y
params: p
domain: time=nat param=nat
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q0 : true ; tick ; reset y:=0
edge q0 -> q1 : x - y >= p ; go ;
""")
    psi2 = parse_property("EF q1", pta2)
    for p in range(0, 6):
        v = reach_discrete(pta2, g(p), psi2.phi)
        assert v.reachable, p
        assert replay_run(pta2, g(p), v.witness, "nat")


def test_lu_monotonicity_suite():
    report = suite_lu_monotonicity(6, 25)
    assert report.ok(), report.render()


def rand_two_clock_acyclic(rng):
    """Four locations, edges only forward (runs of at most three edges),
    two clocks with resets to 0 or 1, bounds ``a*p + b`` with |a|, |b| <= 2:
    upper, lower, diagonal in both directions and clock-free atoms, each
    strict or not."""
    locs = ("q0", "q1", "q2", "q3")
    shapes = [("x", None), ("y", None), (None, "x"), (None, "y"),
              ("x", "y"), ("y", "x"), (None, None)]

    def atoms(n):
        out = []
        for _ in range(n):
            pos, neg = rng.choice(shapes)
            rhs = Expression.linear(rng.randint(-2, 2), {"p": rng.choice((-2, -1, 1, 2))})
            out.append(AtomicConstraint(pos, neg, rng.random() < 0.5, rhs))
        return SimpleConstraint(tuple(out))

    invariants = {q: atoms(rng.randint(0, 1)) for q in locs}
    edges = []
    for i in range(4):
        src = rng.randrange(3)
        updates = {rng.choice(("x", "y")): rng.choice((0, 1))} if rng.random() < 0.5 else {}
        edges.append(Edge(locs[src], atoms(rng.randint(1, 2)), "a%d" % i, updates,
                          locs[rng.randrange(src + 1, 4)]))
    return Pta(("x", "y"), ("p",), locs, "q0", invariants, tuple(edges), "nat", "real")


def test_reach_discrete_matches_brute_force_on_rational_bounds():
    # integer clock bounds compiled from non-integer, negative, strict and
    # non-strict bounds, diagonals and clock-free atoms decide location
    # reachability like the enumeration of every integer-delay run
    rng = random.Random(2024)
    reached = 0
    for _ in range(60):
        pta = rand_two_clock_acyclic(rng)
        for p in (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)):
            gamma = g(p)
            expected = brute_force_reachable(pta, gamma, max_delay=8)
            for q in pta.locations:
                v = reach_discrete(pta, gamma, PropLoc(q))
                assert v.reachable == (q in expected), (pta.render(), p, q)
                if v.reachable:
                    reached += q != pta.initial
                    assert replay_run(pta, gamma, v.witness, "nat")
    assert reached > 50


def region_point(points, r):
    """A rational point of region ``r`` of :func:`clock_regions`."""
    k = r // 2
    if r % 2 == 0:
        return points[k]
    return points[k] + 1 if k + 1 == len(points) else (points[k] + points[k + 1]) / 2


@pytest.mark.parametrize("p", [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
                               Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5)])
def test_clock_region_bitmaps_match_holds(p):
    # equal thresholds from different expressions, thresholds below 0,
    # resets onto a threshold, and clock-free atoms
    texts = ["x <= p", "x < 2*p - p", "x > p", "x >= p - 5", "x <= p - 4", "x < -3",
             "x >= 1", "x > 1", "x <= 2*p - 1", "x = 2", "x >= p^2 - 2", "x < 3*p"]
    atoms = [a for t in texts for a in parse_constraint(t, ("x",), ("p",))]
    atoms += [AtomicConstraint(None, None, strict, Expression.linear(c, {"p": 1}))
              for strict in (False, True) for c in (-1, 0, 1)]
    gamma = {"p": p}
    resets = [1, 2, 0]
    points, masks, reset_region = clock_regions(atoms, gamma, "x", resets)
    assert points[0] == 0 and all(a < b for a, b in zip(points, points[1:]))
    for b in resets:
        assert points[reset_region[b] // 2] == b and reset_region[b] % 2 == 0
    for r in range(2 * len(points)):
        omega = {"x": region_point(points, r)}
        for atom, mask in zip(atoms, masks):
            assert ((mask >> r) & 1 == 1) == SimpleConstraint.of(atom).holds(omega, gamma), \
                (atom, r, omega)
