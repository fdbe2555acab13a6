import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ptasynth import semantics, synthesis
from ptasynth.constraints import AtomicConstraint, SimpleConstraint
from ptasynth.decomposition import decompose_1d, project_clock
from ptasynth.expressions import Expression
from ptasynth.harness import (
    _polynomial_example,
    rand_pta_one_clock,
    rand_state_property,
    shipped_two_one_models,
    suite_lu_monotonicity,
)
from ptasynth.model import (
    ConcreteRun,
    Edge,
    PropAnd,
    PropAtom,
    PropLoc,
    PropNot,
    PropOr,
    Pta,
    SystemProperty,
    UnsupportedError,
    eval_state_property,
)
from ptasynth.parser import parse_constraint, parse_model, parse_property
from ptasynth.polynomials import (
    AlgValue,
    AlgebraicNumber,
    AnchoredRoot,
    isolate_real_roots,
    poly_sub,
)
from ptasynth.scalars import INF
from ptasynth.semantics import (
    _bound_values,
    _dense_regions,
    _discrete_tops,
    _moves,
    _vanishing_key,
    clock_regions,
    compile_check,
    compile_reach,
    decide,
    grid_oracle,
    reach_dense_one_clock,
    reach_discrete,
    replay_run,
    valuation_key,
)
from ptasynth.synthesis import (
    _atom_pool,
    _comparisons,
    _reset_constants,
    synthesize,
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
    program = compile_reach(gate, gate_ef.phi, "nat")
    for p in range(0, 7):
        expected = "q1" in brute_force_reachable(gate, g(p))
        verdict = reach_discrete(program, g(p))
        assert verdict.reachable == expected
        if verdict.reachable:
            assert replay_run(gate, g(p), verdict.witness, "nat")


def test_reach_initial_location_trivial(gate):
    v = reach_discrete(compile_reach(gate, PropLoc("q0"), "nat"), g(0))
    assert v.reachable and v.witness.steps == ()


def test_reach_dense_point_region(gate, gate_ef):
    program = compile_reach(gate, gate_ef.phi, "dense")
    v = reach_dense_one_clock(program, g(2))
    assert v.reachable
    assert replay_run(gate, g(2), v.witness, "dense")
    assert not reach_dense_one_clock(program, g(Fraction(199, 100))).reachable


def test_reach_dense_empty_open_interval():
    pta = parse_model("""
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x > 2 & x < 2 ; a ;
""")
    program = compile_reach(pta, parse_property("EF q1", pta).phi, "dense")
    for p in range(0, 4):
        assert not reach_dense_one_clock(program, g(p)).reachable


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
    assert reach_dense_one_clock(compile_reach(pta, psi.phi, "dense"), g(0)).reachable


def test_reach_dense_rejects_two_constrained_clocks():
    pta = parse_model("""
clocks: x, y
params: p
loc q0 init inv: true
edge q0 -> q0 : x <= p & y >= 1 ; a ;
""")
    psi = parse_property("EF q0", pta)
    with pytest.raises(UnsupportedError):
        compile_reach(pta, psi.phi, "dense")


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
    program = compile_reach(gate, gate_ef.phi, "nat")
    for p in range(0, 8):
        base = reach_discrete(program, g(p))
        bigger = reach_discrete(program, g(p), min_cap=base.info["cap"] + 3)
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
        nat = reach_discrete(compile_reach(pta, psi.phi, "nat"), gamma)
        dense = reach_dense_one_clock(compile_reach(pta, psi.phi, "dense"), gamma)
        assert nat.reachable == dense.reachable
        for verdict, domain in ((nat, "nat"), (dense, "dense")):
            if verdict.reachable and verdict.witness is not None:
                assert replay_run(pta, gamma, verdict.witness, domain)
        checked += 1


OPEN_INTERVAL_MODEL = """
clocks: x
params: p1
loc q0 init inv: x < 3*p1
loc q1 inv: true
edge q0 -> q1 : x > p1 & x < 2*p1 ; a ;
edge q1 -> q0 : x > p1 + 1 ; b ; reset x:=1
"""


def test_dense_witnesses_replay_at_non_integer_rational_valuations():
    # the region representatives of a dense witness (midpoints between
    # non-integer thresholds, one past the last point) give a run that
    # replays and ends in a state satisfying the property (violating it, for
    # a forall-always counterexample).  Random models rarely fire an edge
    # strictly between two strict bounds, so a hand-written one does;
    # catches a representative on either end of an open interval
    rng = random.Random(1809)
    open_interval = parse_model(OPEN_INTERVAL_MODEL)
    corpus = [(open_interval, parse_property(text, open_interval).phi)
              for text in ("EF q1", "EF (q0 && x > p1 + 1 && x < 3*p1)", "AG !(q1 && x >= 2*p1)")]
    for _ in range(100):
        pta = rand_pta_one_clock(rng, 1, "dense", "real")
        corpus.append((pta, rand_state_property(rng, pta)))
    replayed = strict_models = 0
    for pta, phi in corpus:
        strict = any(a.strict for a in pta.atoms())
        for mode in ("EF", "AG"):
            program = compile_check(pta, SystemProperty(mode, phi))
            for d in (3, 7, 10**6 + 3):
                n = rng.randint(-2 * d, 6 * d)
                gamma = {"p1": Fraction(n + (n % d == 0), d)}
                result = decide(program, gamma)
                if result.witness is None:
                    continue
                replay = replay_run(pta, gamma, result.witness, "dense")
                assert replay, (pta.render(), mode, phi, gamma, replay.reason)
                loc, omega = replay.states[-1]
                assert eval_state_property(phi, loc, omega, gamma) == (mode == "EF"), \
                    (pta.render(), mode, phi, gamma)
                replayed += 1
                strict_models += strict
    assert replayed > 250 and strict_models > 150


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
    program = compile_reach(pta, parse_property("EF q1", pta).phi)
    # reachable for every p: wait 4, reset y, fire with x-y small
    for p in range(0, 4):
        v = reach_discrete(program, g(p))
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
    program2 = compile_reach(pta2, parse_property("EF q1", pta2).phi)
    for p in range(0, 6):
        v = reach_discrete(program2, g(p))
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
    # integer clock bounds compiled from integer, non-integer, negative,
    # strict and non-strict bounds, diagonals and clock-free atoms decide
    # location reachability like the enumeration of every integer-delay
    # run; one program per location serves every value.  Catches rounding
    # by truncation instead of floor division (the negative values)
    rng = random.Random(2024)
    reached = 0
    big = 10**6 + 3
    for _ in range(60):
        pta = rand_two_clock_acyclic(rng)
        programs = {q: compile_reach(pta, PropLoc(q)) for q in pta.locations}
        for p in (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(-1),
                  Fraction(2), Fraction(-2 * big - 1, big), Fraction(big + 1, big)):
            gamma = g(p)
            expected = brute_force_reachable(pta, gamma, max_delay=8)
            for q in pta.locations:
                v = reach_discrete(programs[q], gamma)
                assert v.reachable == (q in expected), (pta.render(), p, q)
                if v.reachable:
                    reached += q != pta.initial
                    assert replay_run(pta, gamma, v.witness, "nat")
    assert reached > 50


def fraction_split(atoms, gamma, clock, resets):
    """The split values and atom profiles of :func:`clock_regions`, with
    every bound evaluated in ``Fraction``s."""
    values = [Fraction(0)] + [Fraction(b) for b in resets]
    profiles = []
    for atom in atoms:
        bound = atom.rhs.evaluate(gamma)
        if atom.is_clock_free():
            profiles.append(0 < bound if atom.strict else 0 <= bound)
        else:
            upper = atom.pos == clock
            profiles.append((len(values), atom.strict, upper))
            values.append(bound if upper else -bound)
    return values, profiles


def region_point(points, r):
    """A rational point of region ``r`` of :func:`clock_regions`."""
    k = r // 2
    if r % 2 == 0:
        return points[k]
    return points[k] + 1 if k + 1 == len(points) else (points[k] + points[k + 1]) / 2


@pytest.mark.parametrize("p", [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
                               Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5)])
def test_clock_region_tops_match_holds(p):
    # every atom is a bound on the region index: ``sign * r <= top`` is its
    # truth at the points of region ``r``.  Cases: equal thresholds from
    # different expressions, thresholds below 0, resets onto a threshold,
    # and clock-free atoms (sign 0)
    texts = ["x <= p", "x < 2*p - p", "x > p", "x >= p - 5", "x <= p - 4", "x < -3",
             "x >= 1", "x > 1", "x <= 2*p - 1", "x = 2", "x >= p^2 - 2", "x < 3*p"]
    atoms = [a for t in texts for a in parse_constraint(t, ("x",), ("p",))]
    atoms += [AtomicConstraint(None, None, strict, Expression.linear(c, {"p": 1}))
              for strict in (False, True) for c in (-1, 0, 1)]
    gamma = {"p": p}
    resets = [1, 2, 0]
    values, profiles = fraction_split(atoms, gamma, "x", resets)
    points, tops, reset_regions = clock_regions(values, profiles, len(resets))
    assert points[0] == 0 and all(a < b for a, b in zip(points, points[1:]))
    for b, r in zip(resets, reset_regions):
        assert points[r // 2] == b and r % 2 == 0
    signs = [0 if isinstance(prof, bool) else 1 if prof[2] else -1 for prof in profiles]
    for r in range(2 * len(points)):
        omega = {"x": region_point(points, r)}
        for atom, sign, top in zip(atoms, signs, tops):
            assert (sign * r <= top) == SimpleConstraint.of(atom).holds(omega, gamma), \
                (atom, r, omega)


# -- compiled programs --------------------------------------------------------

def copy_value(v):
    """A fresh copy of an algebraic value: deciding at one refines it."""
    return AlgebraicNumber(v.poly, v.lo, v.hi) if isinstance(v, AlgebraicNumber) else v


def one_param_values():
    """Ints, Fractions with large denominators (negative ones too), rational
    algebraic numbers and irrational roots (of 2p^2 - 7 and p^3 - 3p + 1)."""
    irrational = isolate_real_roots((-7, 0, 2)) + isolate_real_roots((1, -3, 0, 1))
    return ([Fraction(n) for n in (-3, 0, 1, 4)]
            + [Fraction(n, d) for n, d in ((7919, 1000003), (-2**61 + 1, 2**59), (355, 113))]
            + [AlgebraicNumber.from_rational(Fraction(v)) for v in ("5/3", "-1/2", "2")]
            + [r for r in irrational if not r.is_rational()])


def outcome(result):
    return (result.satisfied, result.witness, result.witness_kind, result.info)


@pytest.mark.parametrize("time_domain", ["dense", "nat"])
def test_one_program_serves_every_valuation(time_domain):
    # a program reused across valuations answers like a fresh compile at
    # each; catches per-valuation tops kept in the program (a
    # state leak between cells)
    rng = random.Random(88)
    values = one_param_values()
    for _ in range(25):
        pta = rand_pta_one_clock(rng, 1, time_domain, "int")
        psi = SystemProperty(rng.choice(["EF", "AG"]), rand_state_property(rng, pta))
        program = compile_check(pta, psi)
        for v in rng.sample(values, len(values)):
            reused = decide(program, {"p1": copy_value(v)})
            fresh = decide(compile_check(pta, psi), {"p1": copy_value(v)})
            assert outcome(reused) == outcome(fresh), (pta.render(), psi, v)
            # a verdict-only decision searches the same states
            bare = decide(program, {"p1": copy_value(v)}, witness=False)
            assert outcome(bare) == (reused.satisfied, None, "", reused.info)
            if isinstance(v, AlgebraicNumber) and v.is_rational():
                # the algebraic instantiation agrees with the scaled ints
                assert outcome(reused) == outcome(decide(program, {"p1": v.to_fraction()}))


def test_one_program_serves_every_value_of_a_shipped_two_clock_model():
    # diagonals, two clocks and resets; catches tops kept from the first
    # value (a state leak between values)
    values = [Fraction(n) for n in range(0, 12)] + [Fraction(7, 2), Fraction(10**9 + 7, 10**8)]
    for name, pta, psi in shipped_two_one_models():
        program = compile_check(pta, psi, "nat")
        for v in values:
            gamma = {pta.params[0]: v}
            assert outcome(decide(program, gamma)) == \
                outcome(decide(compile_check(pta, psi, "nat"), gamma)), (name, v)


def fraction_tops(atoms, gamma):
    """The integer tops of the nat engine, with every bound evaluated in
    ``Fraction``s and rounded by ``math.floor``/``math.ceil``."""
    out = []
    for atom in atoms:
        bound = atom.rhs.evaluate(gamma)
        out.append(None if bound is INF else
                   math.ceil(bound) - 1 if atom.strict else math.floor(bound))
    return out


def rational_points(rng, params):
    yield {p: Fraction(rng.randint(-9, 9)) for p in params}
    for _ in range(4):
        yield {p: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**5)) for p in params}


@pytest.mark.parametrize("n_params", [1, 2])
def test_scaled_ints_rank_and_round_like_fractions(n_params):
    # the scaled-int instantiation gives the tops, the region points, the
    # atoms' region tops and the reset regions of Fraction evaluation; catches a
    # wrong scale (a power of the lcm too few) and rounding by truncation
    # instead of floor division
    rng = random.Random(5 + n_params)
    for _ in range(30):
        pta = rand_pta_one_clock(rng, n_params, "dense", "real")
        phi = rand_state_property(rng, pta)
        nat, dense = compile_reach(pta, phi, "nat"), compile_reach(pta, phi, "dense")
        for gamma in rational_points(rng, pta.params):
            tops, m_bound = _discrete_tops(nat, *_bound_values(nat, gamma))
            assert tops == fraction_tops(nat.atoms, gamma)
            assert m_bound == max([math.ceil(abs(a.rhs.evaluate(gamma))) for a in nat.atoms], default=0)
            points, tops, reset_regions, scale = _dense_regions(dense, gamma)
            values, profiles = fraction_split(dense.atoms, gamma, "x", dense.resets)
            assert ([Fraction(v, scale) for v in points], tops, reset_regions) == \
                clock_regions(values, profiles, len(dense.resets))


def test_polynomial_bounds_scale_by_their_degree():
    # bounds of degree 0 to 3 over two parameters, scaled to one int each;
    # catches a monomial lifted by the wrong power of the lcm
    pta = parse_model("""
clocks: x
params: p, q
loc q0 init inv: x <= p*q^2 + 3
loc q1 inv: true
edge q0 -> q1 : x >= p^2 - q & x < 2*p*q - 1 ; a ;
edge q1 -> q1 : x > 4 ; b ;
""")
    program = compile_reach(pta, PropLoc("q1"), "nat")
    assert program.degree == 3
    for gamma in ({"p": Fraction(3, 7), "q": Fraction(-5, 4)}, {"p": Fraction(9, 2), "q": Fraction(2, 3)},
                  {"p": Fraction(-1), "q": Fraction(11, 6)}):
        assert _discrete_tops(program, *_bound_values(program, gamma))[0] == \
            fraction_tops(program.atoms, gamma)


def test_check_two_parameter_polynomial_model_at_rational_points():
    # EF q1 holds iff some clock value x >= 0 lies in [p*q - 1, p^2*q]
    # (an integer one in nat time); the witness must replay.  Catches a
    # wrong scale of the product monomials and a wrong floor division
    pta = parse_model("""
clocks: x
params: p, q
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= p*q - 1 & x <= p^2*q ; a ;
""")
    psi = parse_property("EF q1", pta)
    rng = random.Random(3)
    for time_domain in ("dense", "nat"):
        program = compile_check(pta, psi, time_domain)
        for _ in range(60):
            gamma = {"p": Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                     "q": Fraction(rng.randint(-30, 30), rng.randint(1, 9))}
            p, q = gamma["p"], gamma["q"]
            lo, hi = max(p * q - 1, Fraction(0)), p * p * q
            if time_domain == "nat":
                lo, hi = math.ceil(lo), math.floor(hi)
            result = decide(program, gamma)
            assert result.satisfied == (lo <= hi), gamma
            if result.satisfied:
                assert replay_run(pta, gamma, result.witness, time_domain)


# -- irrational roots in ints --------------------------------------------------

FREE_BOUND_MODEL = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= 1 ; a ;
"""


def free_bound_model():
    """EF q1 with the clock-free guard atom ``0 <= 2 - p^2`` (the parser
    reads no clock-free atoms): sat exactly on [-sqrt 2, sqrt 2]."""
    pta = parse_model(FREE_BOUND_MODEL)
    free = AtomicConstraint(None, None, False, Expression.polynomial({(("p", 2),): -1, (): 2}))
    edge = pta.edges[0]
    guard = SimpleConstraint(edge.guard.conjuncts + (free,))
    return replace(pta, edges=(replace(edge, guard=guard),)), PropLoc("q1")


def test_clock_free_bound_that_vanishes_at_a_root():
    # 0 <= 2 - p^2 holds at p = -sqrt(2) but not left of it; catches a
    # vanishing clock-free bound read with its left neighbour's sign
    pta, phi = free_bound_model()
    region = synthesize(pta, SystemProperty("EF", phi))
    assert [(cv.cell.kind, cv.verdict) for cv in region.cells] == [
        ("interval", False), ("point", True), ("interval", True), ("point", True),
        ("interval", False)]
    assert all(isinstance(cv.cell.sample, AlgebraicNumber) for cv in region.cells[1::2])


LOWER_TIE_MODEL = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: true
edge q0 -> q1 : x > 10 & x <= 20 - 5*p^2 ; a ;
edge q0 -> q2 : x >= 17 - 5*p ; b ;
"""


def one_parameter_models(synth_pools):
    """The one-parameter models of both synth pools, criterion 3's
    polynomial examples, the clock-free bound model, and a model whose
    two lower bounds ``10`` and ``17 - 5p`` cross at 7/5, just left of the
    root sqrt 2 of ``20 - 5p^2 = 10``: a decomposition that leaves out
    lower-versus-lower differences anchors that root at a sample where
    ``17 - 5p`` sits between the two tied values."""
    models = [(pta, phi) for _, _, pta, phi in synth_pools if len(pta.params) == 1]
    rng = random.Random(3)
    for _ in range(6):
        pta, psi = _polynomial_example(rng)
        models.append((pta, psi.phi))
    models.append(free_bound_model())
    models.append((parse_model(LOWER_TIE_MODEL), PropLoc("q1")))
    return models


def dense_decomposition(pta, psi):
    """The irrational point cells of the dense-time decomposition of the
    pool's comparisons, each with its left neighbour."""
    exprs = _comparisons(_atom_pool(pta, psi), _reset_constants(pta), False)
    cells = decompose_1d(project_clock([(e.univariate(pta.params[0]),) for e in exprs]))
    return [(left, cell) for left, cell in zip(cells, cells[1:])
            if cell.kind == "point" and isinstance(cell.sample, AlgebraicNumber)]


def synthesized_polys(pta, psi):
    """The polynomials dense-time ``synthesize`` passes to ``decompose_1d``."""
    seen = []

    def capture(polys):
        seen.append(polys)
        return decompose_1d(polys)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "decompose_1d", capture)
        synthesize(pta, psi, "dense")
    return seen[0]


def regions_summary(regions):
    """Region count, tops, reset regions and the exact points (None when
    one is irrational) of :func:`_dense_regions`."""
    points, tops, reset_regions, scale = regions
    exact = None if scale is None else [Fraction(v, scale) for v in points]
    return len(points), tops, reset_regions, exact


def test_anchored_roots_rank_like_algebraic_values(synth_pools):
    # at every irrational point cell of both synth pools (read in dense
    # time), of criterion 3's polynomial examples and of a clock-free bound
    # that vanishes at the root, the left neighbour's int ranks with the
    # vanishing neighbours merged give what sorting AlgValues gives, and
    # so does decide.  Catches merging no neighbours or every neighbour,
    # and a vanishing clock-free bound read with its neighbour's sign
    cells = 0
    for pta, phi in one_parameter_models(synth_pools):
        p = pta.params[0]
        for mode in ("EF", "AG"):
            psi = SystemProperty(mode, phi)
            program = compile_check(pta, psi, "dense")
            for left, cell in dense_decomposition(pta, psi):
                anchored = {p: AnchoredRoot(cell.sample, left.sample, cell.vanishing)}
                bare = {p: copy_value(cell.sample)}
                assert regions_summary(_dense_regions(program.reach, anchored)) == \
                    regions_summary(_dense_regions(program.reach, bare)), (pta.render(), cell)
                assert outcome(decide(program, anchored)) == outcome(decide(program, bare))
                cells += 1
    assert cells >= 300


def test_every_difference_read_at_a_root_is_projected(synth_pools):
    # the int path at an irrational root is exact only if each difference
    # of two split values and each clock-free bound is a constant or, in
    # primitive form, one of the polynomials synthesize splits at; catches
    # a comparison set that leaves out one the compiled program makes,
    # such as two lower bounds
    for pta, phi in one_parameter_models(synth_pools):
        for mode in ("EF", "AG"):
            psi = SystemProperty(mode, phi)
            program = compile_check(pta, psi, "dense").reach
            projected = set(synthesized_polys(pta, psi))
            splits = program.split_polys
            diffs = [_vanishing_key(poly_sub(b, a)) for i, a in enumerate(splits)
                     for b in splits[i + 1:]]
            for key in diffs + list(program.free_polys):
                assert key is None or key in projected, (pta.render(), key)


def test_irrational_point_verdicts_equal_decide_at_the_bare_root(synth_pools):
    # the verdict synthesize gives an irrational point cell (decided at an
    # anchored root) is the verdict of decide at a fresh copy of the bare
    # root, which sorts exact values; catches a decomposition whose left
    # neighbour is no anchor for the root
    cells = 0
    for pta, phi in one_parameter_models(synth_pools):
        p = pta.params[0]
        for mode in ("EF", "AG"):
            psi = SystemProperty(mode, phi)
            program = compile_check(pta, psi, "dense")
            for cv in synthesize(pta, psi, "dense").cells[1::2]:
                if isinstance(cv.cell.sample, AlgebraicNumber):
                    bare = {p: copy_value(cv.cell.sample)}
                    assert cv.verdict == decide(program, bare, witness=False).satisfied, \
                        (pta.render(), mode, cv.cell)
                    cells += 1
    assert cells >= 300


def test_dense_synthesis_compares_no_algebraic_value(synth_pools, monkeypatch):
    # every irrational point cell of the dense pool's polynomial models is
    # decided in ints; catches a decision that falls back to sorting
    # AlgValues
    def refuse(self, other):
        raise AssertionError("an AlgValue was compared")

    monkeypatch.setattr(AlgValue, "compare_scalar", refuse)
    irrational = 0
    for domain, cls, pta, phi in synth_pools:
        if domain != "dense" or cls != "poly":
            continue
        for mode in ("EF", "AG"):
            region = synthesize(pta, SystemProperty(mode, phi))
            irrational += sum(isinstance(cv.cell.sample, AlgebraicNumber) for cv in region.cells)
    assert irrational >= 150


# -- states that can only delay ------------------------------------------------

SINK_MODEL = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x <= 2 ; a ;
"""


@pytest.mark.parametrize("time_domain", ["nat", "dense"])
def test_a_clock_property_keeps_delaying_states_no_edge_leaves(time_domain):
    # once x > 2 no edge leaves q0, but delaying there still reaches
    # x >= 5: a property with a clock atom turns pruning off.  Catches
    # pruning that ignores what the property reads
    pta = parse_model(SINK_MODEL)
    ef = compile_check(pta, parse_property("EF (q0 && x >= 5)", pta), time_domain)
    ag = compile_check(pta, parse_property("AG !(q0 && x >= 5)", pta), time_domain)
    assert not ef.reach.delay_stable and not ag.reach.delay_stable
    assert compile_check(pta, parse_property("EF q1", pta), time_domain).reach.delay_stable
    for p in (0, 1, 3):
        sat, violated = decide(ef, g(p)), decide(ag, g(p))
        assert sat.satisfied and not violated.satisfied
        for result in (sat, violated):
            replay = replay_run(pta, g(p), result.witness, time_domain)
            assert replay and replay.states[-1][0] == "q0"
            assert replay.states[-1][1]["x"] >= 5


def test_a_violated_difference_atom_disables_its_edge_for_good():
    # x - y stays 0 without resets, so the first guard never holds and the
    # initial state is the only one found; the second one holds at x = p
    pta = parse_model("""
clocks: x, y
params: p
domain: time=nat param=nat
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: true
edge q0 -> q1 : x - y >= 1 & x >= p ; go ;
edge q1 -> q2 : x - y <= 0 & x >= p ; go ;
""")
    program = compile_reach(pta, PropLoc("q1"), "nat")
    diagonal, lower = program.guards[0]
    assert program.permanent == ((diagonal,), (program.guards[1][0],))
    assert program.delay_stable and program.prunable == (True, True, True)
    for p in range(0, 5):
        v = reach_discrete(program, g(p))
        assert not v.reachable and v.info["states"] == 1, p
    edge = Edge("q0", parse_constraint("x - y <= 0 & x >= p", ("x", "y"), ("p",)), "go", {}, "q1")
    reachable = Pta(pta.clocks, pta.params, pta.locations, "q0", pta.invariants, (edge,), "nat", "nat")
    for p in range(0, 5):
        v = reach_discrete(compile_reach(reachable, PropLoc("q1"), "nat"), g(p))
        assert v.reachable and replay_run(reachable, g(p), v.witness, "nat"), p


def test_even_pacer_states_grow_linearly_with_the_parameter():
    # past y = 2 no edge of the pacer can fire again; without pruning the
    # search delays every such state up to the cap, about cap**2 states
    (pta, psi), = [(pta, psi) for name, pta, psi in shipped_two_one_models()
                   if name == "m03_even_pacer"]
    v = reach_discrete(compile_check(pta, psi, "nat").reach, g(40))
    assert v.info["states"] < 10 * v.info["cap"]


def unpruned_search(program, tops, reset_values, cap, dmax=0):
    """The breadth-first search of ``semantics._search`` with a delay
    successor for every state, over the same flat states ``(location,
    values, differences)``; atoms are tested one by one from the program's
    shapes, and a difference with a saturated clock is set explicitly."""
    n = program.n_clocks

    def holds(indices, state):
        for k in indices:
            if tops[k] is None:
                continue
            pos, sign = program.shapes[k]
            if (sign * state[pos] if sign else 0) > tops[k]:
                return False
        return True

    def clamp(d):
        return max(-dmax, min(dmax, d))

    start = (program.initial,) + (0,) * (n + len(program.pairs))
    if not holds(program.invariants[start[0]], start):
        return {}, None
    parents = {start: None}
    if program.holds(start, tops):
        return parents, start
    order = [start]
    for source in order:
        loc, values, diffs = source[0], source[1:1 + n], source[1 + n:]
        successors = []
        for eidx, dst, resets, _ in program.out_edges[loc]:
            if not holds(program.guards[eidx], source):
                continue
            reset = {pos - 1: reset_values[r] for pos, r in resets}
            new_values = [reset.get(c, v) for c, v in enumerate(values)]
            new_diffs = list(diffs)
            for k, (i, j) in enumerate(program.pairs):
                if i in reset and j in reset:
                    new_diffs[k] = clamp(reset[i] - reset[j])
                elif i in reset:
                    new_diffs[k] = clamp(reset[i] - values[j]) if values[j] < cap else -dmax
                elif j in reset:
                    new_diffs[k] = clamp(values[i] - reset[j]) if values[i] < cap else dmax
            successors.append(((dst, *new_values, *new_diffs), "edge", eidx))
        successors.append(((loc, *(min(v + 1, cap) for v in values), *diffs), "delay", None))
        for state, kind, eidx in successors:
            if state in parents or not holds(program.invariants[state[0]], state):
                continue
            parents[state] = (source, kind, eidx)
            if program.holds(state, tops):
                return parents, state
            order.append(state)
    return parents, None


@pytest.fixture
def against_unpruned(monkeypatch):
    """Run every search also without pruning: the same hit and moves, never
    more states.  Counts the searches and those that found fewer states."""
    counts = {"searches": 0, "fewer": 0}
    search = semantics._search

    def both(program, tops, reset_values, cap, dmax=0):
        parents, hit = search(program, tops, reset_values, cap, dmax)
        ref_parents, ref_hit = unpruned_search(program, tops, reset_values, cap, dmax)
        assert hit == ref_hit
        if hit is not None:
            assert _moves(parents, hit) == _moves(ref_parents, ref_hit)
        assert len(parents) <= len(ref_parents)
        counts["searches"] += 1
        counts["fewer"] += len(parents) < len(ref_parents)
        return parents, hit

    monkeypatch.setattr(semantics, "_search", both)
    return counts


def rand_multi_clock(rng):
    """One to three clocks, two to four locations, up to five edges with any
    endpoints, resets to 0-2 and invariants; atoms are upper and lower
    bounds, diagonals and clock-free ones.  The property mixes locations
    and atoms of every shape under !, && and ||."""
    clocks = ("x", "y", "z")[:rng.choice((1, 2, 2, 3))]
    locs = tuple("q%d" % i for i in range(rng.randint(2, 4)))

    def atom():
        roll = rng.random()
        strict = rng.random() < 0.3
        if roll < 0.15:
            return AtomicConstraint(None, None, strict, Expression.linear(rng.randint(-2, 3), {"p": rng.choice((-1, 0, 1))}))
        if roll < 0.35 and len(clocks) > 1:
            pos, neg = rng.sample(clocks, 2)
            return AtomicConstraint(pos, neg, strict, Expression.linear(rng.randint(-3, 3), {"p": rng.choice((-1, 0, 1))}))
        clock = rng.choice(clocks)
        if rng.random() < 0.5:
            return AtomicConstraint(clock, None, strict, Expression.linear(rng.randint(-1, 4), {"p": rng.choice((0, 1, 2))}))
        return AtomicConstraint(None, clock, strict, Expression.linear(-rng.randint(0, 5), {"p": rng.choice((-1, 0))}))

    def conj(n):
        return SimpleConstraint(tuple(atom() for _ in range(n)))

    def prop(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return PropLoc(rng.choice(locs)) if rng.random() < 0.5 else PropAtom(atom())
        if roll < 0.55:
            return PropNot(prop(depth - 1))
        return rng.choice((PropAnd, PropOr))(prop(depth - 1), prop(depth - 1))

    invariants = {q: conj(rng.choice((0, 0, 0, 1))) for q in locs}
    edges = tuple(Edge(rng.choice(locs), conj(rng.randint(0, 3)), "a%d" % i,
                       {c: rng.choice((0, 0, 1, 2)) for c in clocks if rng.random() < 0.3},
                       rng.choice(locs))
                  for i in range(rng.randint(1, 5)))
    pta = Pta(clocks, ("p",), locs, "q0", invariants, edges, "nat", "real")
    return pta, SystemProperty(rng.choice(("EF", "AG")), prop(2))


def test_pruned_search_matches_an_unpruned_one(against_unpruned):
    # seeded random models: nat time with one to three clocks, and dense
    # time with one.  Catches pruning of a state with an edge that fires
    # after a delay, and pruning under a property that a delay can make
    # true (pruning without the delay-stable condition fails here)
    rng = random.Random(1996)
    for _ in range(1000):
        pta, psi = rand_multi_clock(rng)
        program = compile_check(pta, psi, "nat")
        for p in rng.sample(range(0, 6), 2):
            decide(program, g(p))
    for _ in range(1000):
        pta = rand_pta_one_clock(rng, 1, "dense", "real")
        program = compile_check(pta, SystemProperty(rng.choice(("EF", "AG")), rand_state_property(rng, pta)))
        for _ in range(2):
            decide(program, {"p1": Fraction(rng.randint(-4, 16), rng.choice((1, 2, 3)))})
    assert against_unpruned["searches"] == 4000
    assert against_unpruned["fewer"] > 400
