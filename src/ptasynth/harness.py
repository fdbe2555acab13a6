"""Seeded randomized suites: generators, oracle cross-checks, reports.

Everything here is deterministic given the seed.  The suites are shared
between the test suite (full counts, see the acceptance module) and the
CLI selftest (reduced counts); each returns a SuiteReport whose rendering
is byte-stable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import product
from typing import List, Optional, Tuple

from .constraints import AtomicConstraint, SimpleConstraint
from .decomposition import (
    LinearCellSampler,
    canonical_planes,
    decompose_1d,
    decompose_linear,
    project_clock,
    random_point_in_cell1d,
    signs_at_1d,
)
from .expressions import Expression
from .feasibility import compile_run, feasible_with_reset, linf, split_guard, usup
from .model import (
    EXISTS_EVENTUALLY,
    FORALL_ALWAYS,
    ConcreteRun,
    Edge,
    PropAnd,
    PropAtom,
    PropLoc,
    PropNot,
    PropOr,
    Pta,
    SyntacticRun,
    SystemProperty,
    TIME_DENSE,
    TIME_NAT,
    eval_state_property,
    thresholds,
)
from .parser import parse_model, parse_property
from .polynomials import (
    bivar_eval_p,
    bivar_trim,
    cauchy_root_bound,
    poly_trim,
    square_free_part,
    sturm_chain,
    sturm_root_count,
)
from .scalars import INF, NEG_INF, is_finite
from .semantics import (
    compile_check,
    compile_reach,
    decide,
    grid_oracle,
    guard_run_reachable_set,
    linearize_guard_run,
    linearize_syntactic_run,
    reach_discrete,
    replay_run,
    syntactic_run_reachable_set,
    valuation_key,
)
from .synthesis import (
    _atom_pool,
    _comparisons,
    _reset_constants,
    enumerate_runs,
    region_query,
    synthesize,
)
from .transforms import (
    GuardOnlyRun,
    GuardStep,
    classify_lu,
    encode_property,
    encode_run_property,
    invariants_to_guards,
    negate_property,
    to_dnf_atoms,
    to_nnf,
)
from .twoclock import (
    StructuralWitness,
    TwoOneError,
    TwoOnePta,
    find_oneP3_indices,
    find_oneP5_indices,
    find_oneP6_index,
    find_pigeonhole_pair,
    no_reset_threshold_check,
    periodicity_probe,
    validate_two_one,
)


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        if len(self.failures) < 25:
            self.failures.append(message)
        else:
            self.failures.append("...")

    def render(self) -> str:
        status = "PASS" if self.ok() else "FAIL"
        lines = ["suite %-28s %s  cases=%d" % (self.name, status, self.cases)]
        for n in self.notes:
            lines.append("  note: %s" % n)
        for f in self.failures[:26]:
            lines.append("  FAIL: %s" % f)
        return "\n".join(lines)


# -- random model/run generators -----------------------------------------------

def rand_linear_expr(rng: random.Random, params, max_coeff=2, max_const=5,
                     param_prob=0.75) -> Expression:
    coeffs = {}
    for p in params:
        if rng.random() < param_prob / max(1, len(params)):
            c = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
            coeffs[p] = c
    const = rng.randint(-max_const, max_const)
    return Expression.linear(const, coeffs)


def rand_one_clock_atom(rng, clock, params, max_const=5) -> AtomicConstraint:
    rhs = rand_linear_expr(rng, params, max_const=max_const)
    strict = rng.random() < 0.3
    if rng.random() < 0.5:
        return AtomicConstraint(clock, None, strict, rhs)
    return AtomicConstraint(None, clock, strict, rhs.negated())


def rand_guard_only_run(rng: random.Random, n_params: int, max_len=6,
                        max_const=5, reset_prob=0.25) -> GuardOnlyRun:
    params = tuple("p%d" % i for i in range(1, n_params + 1))
    length = rng.randint(1, max_len)
    steps = []
    for i in range(length):
        atoms = [rand_one_clock_atom(rng, "x", params, max_const)
                 for _ in range(rng.randint(0, 2))]
        updates = {"x": rng.randint(0, 3)} if rng.random() < reset_prob else {}
        steps.append(GuardStep(SimpleConstraint(tuple(atoms)), "a%d" % i, updates,
                               "s%d" % i, "s%d" % (i + 1)))
    return GuardOnlyRun(tuple(steps), SimpleConstraint.true(), ("x",), params)


def rand_pta_one_clock(rng: random.Random, n_params: int, time_domain: str,
                       param_domain: str, n_locs=4, n_edges=6,
                       max_const=5, max_guard_atoms=2) -> Pta:
    params = tuple("p%d" % i for i in range(1, n_params + 1))
    locs = tuple("q%d" % i for i in range(rng.randint(2, n_locs)))
    invariants = {}
    for q in locs:
        if rng.random() < 0.3:
            rhs = rand_linear_expr(rng, params, max_const=max_const)
            invariants[q] = SimpleConstraint.of(
                AtomicConstraint("x", None, rng.random() < 0.3, rhs))
        else:
            invariants[q] = SimpleConstraint.true()
    edges = []
    for i in range(rng.randint(1, n_edges)):
        src = rng.choice(locs)
        dst = rng.choice(locs)
        atoms = [rand_one_clock_atom(rng, "x", params, max_const)
                 for _ in range(rng.randint(0, max_guard_atoms))]
        updates = {"x": rng.choice([0, 0, 0, 1, 2])} if rng.random() < 0.3 else {}
        edges.append(Edge(src, SimpleConstraint(tuple(atoms)), "a%d" % i, updates, dst))
    return Pta(("x",), params, locs, locs[0], invariants, tuple(edges),
               time_domain, param_domain).validate()


def rand_state_property(rng: random.Random, pta: Pta, depth=2):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return PropLoc(rng.choice(pta.locations))
    if roll < 0.6:
        return PropAtom(rand_one_clock_atom(rng, pta.clocks[0], pta.params, 4))
    if roll < 0.75:
        return PropNot(rand_state_property(rng, pta, depth - 1))
    ctor = PropAnd if roll < 0.9 else PropOr
    return ctor(rand_state_property(rng, pta, depth - 1),
                rand_state_property(rng, pta, depth - 1))


def int_grid(n_params: int, lo: int, hi: int) -> List[dict]:
    """Every integer point of ``[lo, hi]^n``; the grid points share one
    ``Fraction`` per coordinate value."""
    params = ["p%d" % i for i in range(1, n_params + 1)]
    values = [Fraction(v) for v in range(lo, hi + 1)]
    return [dict(zip(params, point)) for point in product(values, repeat=n_params)]


# -- feasibility vs exhaustive oracle (criteria 1 and 5) -------------------------

def suite_feasibility_oracle(seed: int, n_runs: int, grid_lo=-5, grid_hi=20,
                             dense_every=10) -> SuiteReport:
    """feasible_with_reset against exhaustive forward closure, nat time,
    over full integer grids; every positive witness replays.

    Also tracks the four lower/upper attainment combinations of the
    witness steps for the reset-free instances (boundary-case coverage).
    """
    rng = random.Random(seed)
    report = SuiteReport("feasibility-oracle")
    coverage = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    _seed_boundary_instances(report, coverage)
    for run_no in range(n_runs):
        n_params = 1 if rng.random() < 0.5 else 2
        grun = rand_guard_only_run(rng, n_params)
        chain, _ = linearize_guard_run(grun, TIME_NAT)
        program = compile_run(grun, TIME_NAT)
        grid = int_grid(n_params, grid_lo, grid_hi)
        for gamma in grid:
            report.cases += 1
            res = feasible_with_reset(program, gamma)
            oracle = guard_run_reachable_set(grun, gamma, TIME_NAT) is not None
            if res.feasible != oracle:
                report.fail("run %d gamma %s: pair test %s oracle %s"
                            % (run_no, gamma, res.feasible, oracle))
                continue
            if res.feasible:
                if res.witness is None:
                    report.fail("run %d gamma %s: feasible without witness" % (run_no, gamma))
                    continue
                rr = replay_run(chain, gamma, res.witness, TIME_NAT)
                if not rr:
                    report.fail("run %d gamma %s: witness does not replay (%s)"
                                % (run_no, gamma, rr.reason))
                    continue
                _track_boundary_cases(grun, gamma, res, coverage)
        if run_no % dense_every == 0:
            program = compile_run(grun, TIME_DENSE)
            for gamma in grid[:: max(1, len(grid) // 8)]:
                report.cases += 1
                res = feasible_with_reset(program, gamma)
                oracle = guard_run_reachable_set(grun, gamma, TIME_DENSE) is not None
                if res.feasible != oracle:
                    report.fail("dense run %d gamma %s: pair test %s oracle %s"
                                % (run_no, gamma, res.feasible, oracle))
                elif res.feasible and res.witness is not None:
                    rr = replay_run(linearize_guard_run(grun, TIME_DENSE)[0],
                                    gamma, res.witness, TIME_DENSE)
                    if not rr:
                        report.fail("dense run %d gamma %s: witness does not replay"
                                    % (run_no, gamma))
    report.notes.append(
        "boundary-case coverage (lower attained, upper attained): " +
        ", ".join("%s=%d" % (k, v) for k, v in sorted(coverage.items())))
    report.notes.append("all four boundary cases seen: %s"
                        % all(v > 0 for v in coverage.values()))
    if not all(v > 0 for v in coverage.values()):
        report.fail("missing boundary-case coverage")
    return report


def _seed_boundary_instances(report: SuiteReport, coverage):
    """Four canonical reset-free runs pinning each attainment combination.

    Random corpora under-produce the "upper bound attained, lower not"
    shape, so the combinations the witness rule must get right are seeded
    deterministically (both time domains)."""

    def atom_ge(c):
        return AtomicConstraint(None, "x", False, Expression.constant(-c))

    def atom_le(c):
        return AtomicConstraint("x", None, False, Expression.constant(c))

    def run_of(*guards):
        steps = tuple(
            GuardStep(SimpleConstraint(tuple(g)), "a%d" % i, {}, "s%d" % i, "s%d" % (i + 1))
            for i, g in enumerate(guards))
        return GuardOnlyRun(steps, SimpleConstraint.true(), ("x",), ())

    instances = [
        run_of([atom_ge(1), atom_le(5)]),               # neither bound attained
        run_of([atom_ge(3)], [atom_le(3)]),             # lower attained
        run_of([atom_ge(4)], [atom_le(4), atom_ge(1)]),  # upper attained
        run_of([atom_ge(2), atom_le(2)]),               # both attained
    ]
    for grun in instances:
        for domain in (TIME_DENSE, TIME_NAT):
            report.cases += 1
            res = feasible_with_reset(grun, {}, domain)
            if not res.feasible or res.witness is None:
                report.fail("canonical boundary instance infeasible")
                continue
            if not replay_run(linearize_guard_run(grun, domain)[0], {}, res.witness, domain):
                report.fail("canonical boundary witness does not replay")
                continue
            _track_boundary_cases(grun, {}, res, coverage)


def _track_boundary_cases(grun: GuardOnlyRun, gamma, res, coverage):
    clock = grun.clocks[0]
    if any(clock in st.updates for st in grun.steps) or res.witness is None:
        return
    x = Fraction(0)
    for delay, idx in res.witness.steps:
        x += Fraction(delay)
        lb, up, _ = split_guard(grun.steps[idx].guard)
        coverage[(x == linf(lb, gamma).value, x == usup(up, gamma).value)] += 1


# -- synthesis vs grid oracle (criterion 2) --------------------------------------

def suite_synthesis_oracle(seed: int, n_models: int, nat_fraction=0.25,
                           grid_lo=-5, grid_hi=20) -> SuiteReport:
    """region_query against the per-point oracle on full integer grids,
    for an exists-eventually property and its forall-always counterpart."""
    rng = random.Random(seed)
    report = SuiteReport("synthesis-oracle")
    n_nat = int(n_models * nat_fraction)
    for model_no in range(n_models):
        nat = model_no < n_nat
        n_params = 1 if (nat or rng.random() < 0.5) else 2
        pta = rand_pta_one_clock(rng, n_params,
                                 TIME_NAT if nat else TIME_DENSE,
                                 "int" if nat else "real")
        phi = rand_state_property(rng, pta)
        grid = int_grid(n_params, grid_lo, grid_hi)
        for mode in (EXISTS_EVENTUALLY, FORALL_ALWAYS):
            psi = SystemProperty(mode, phi)
            try:
                region = synthesize(pta, psi)
            except AssertionError as exc:
                report.fail("model %d %s: synthesize failed: %s" % (model_no, mode, exc))
                continue
            oracle = grid_oracle(pta, psi, grid)
            for gamma in grid:
                report.cases += 1
                want = oracle[valuation_key(gamma)]
                got = region_query(region, gamma)
                if want != got:
                    report.fail("model %d %s gamma %s: region %s oracle %s"
                                % (model_no, mode, gamma, got, want))
                    break
    return report


# -- sign invariance of decompositions (criterion 3) ------------------------------

def suite_sign_invariance(seed: int, n_models: int, samples_per_cell=100) -> SuiteReport:
    """Every cell of the decomposition corpus: random interior points give
    the same sign assignment as the cell's sample, and a 1D point cell's
    ``vanishing`` set is exactly the polynomials that are 0 at its root.

    The corpus models are kept small (few guard atoms) so that every cell
    of every decomposition gets the full number of interior samples."""
    rng = random.Random(seed)
    report = SuiteReport("sign-invariance")
    for model_no in range(n_models):
        poly_model = model_no % 4 == 0
        if poly_model:
            pta, psi = _polynomial_example(rng)
        else:
            n_params = 1 if rng.random() < 0.5 else 2
            pta = rand_pta_one_clock(rng, n_params, TIME_DENSE, "real",
                                     n_locs=3, n_edges=4, max_const=4,
                                     max_guard_atoms=1)
            psi = SystemProperty(EXISTS_EVENTUALLY, rand_state_property(rng, pta))
        region = synthesize(pta, psi)
        if region.method == "cad1":
            # the sign set is the pool's comparisons, recomputed the way the
            # pipeline builds them
            nat = pta.time_domain == TIME_NAT
            pool = project_clock([(e.univariate(pta.params[0]),) for e in _comparisons(
                _atom_pool(pta, psi), _reset_constants(pta), nat)])
            for cv in region.cells:
                base = signs_at_1d(pool, cv.cell.sample)
                # a point cell's provenance is exactly the pool's zeros there
                zeros = {f for f, sign in base.items() if sign == 0}
                if cv.cell.kind == "point" and cv.cell.vanishing != zeros:
                    report.fail("model %d cell %s: vanishing set %s, zeros %s"
                                % (model_no, cv.cell, sorted(cv.cell.vanishing), sorted(zeros)))
                for _ in range(samples_per_cell):
                    report.cases += 1
                    if cv.cell.kind == "point" and not isinstance(cv.cell.sample, Fraction):
                        probe = cv.cell.sample  # sole member of the cell
                    else:
                        probe = random_point_in_cell1d(cv.cell, rng)
                    got = signs_at_1d(pool, probe)
                    if got != base:
                        report.fail("model %d cell %s: signs differ at %s"
                                    % (model_no, cv.cell, probe))
                        break
        else:
            vecs = region.cells[0].cell.planes
            for cv in region.cells:
                base = [_vec_sign(v, cv.cell.sample) for v in vecs]
                sampler = LinearCellSampler(cv.cell)
                for _ in range(samples_per_cell):
                    report.cases += 1
                    point = sampler.draw(rng)
                    got = [_vec_sign(v, point) for v in vecs]
                    if got != base:
                        report.fail("model %d cell signs differ at %s" % (model_no, point))
                        break
    return report


def _vec_sign(vec, point) -> int:
    v = vec[-1] + sum(c * x for c, x in zip(vec, point))
    return (v > 0) - (v < 0)


def _polynomial_example(rng: random.Random):
    c1 = rng.randint(1, 4)
    c2 = rng.randint(0, 3)
    text = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= %d & x <= p^2 - %d ; a ;
""" % (c1, c2)
    pta = parse_model(text)
    return pta, parse_property("EF q1", pta)


# -- invariant folding equivalence (criterion 4) ----------------------------------

def suite_invariant_folding(seed: int, n_cases: int) -> SuiteReport:
    """Realizability of a run equals realizability of its guard-only form
    plus the zero-valuation initial invariant, on random (run, valuation)."""
    rng = random.Random(seed)
    report = SuiteReport("invariant-folding")
    made = 0
    while made < n_cases:
        n_params = 1 if rng.random() < 0.6 else 2
        pta = rand_pta_one_clock(rng, n_params, TIME_NAT, "int")
        runs = _random_runs(rng, pta, max_len=5, count=2)
        if not runs:
            continue
        for tau in runs:
            gamma = {p: Fraction(rng.randint(-3, 8)) for p in pta.params}
            made += 1
            report.cases += 1
            grun = invariants_to_guards(tau)
            zeros = {c: Fraction(0) for c in pta.clocks}
            init_ok = pta.invariants[pta.initial].holds(zeros, gamma)
            lhs = init_ok and guard_run_reachable_set(grun, gamma, TIME_NAT) is not None
            rhs = syntactic_run_reachable_set(tau, gamma, TIME_NAT) is not None
            if lhs != rhs:
                report.fail("model run %s gamma %s: folded %s direct %s"
                            % (tau.edge_indices, gamma, lhs, rhs))
            # cross-check both sides against the chain reachability engine
            if made % 10 == 0:
                chain, final = linearize_syntactic_run(tau)
                direct = reach_discrete(compile_reach(chain, PropLoc(final), TIME_NAT),
                                        gamma).reachable
                if direct != rhs:
                    report.fail("oracle disagreement on run %s gamma %s"
                                % (tau.edge_indices, gamma))
            if made >= n_cases:
                break
    return report


def _random_runs(rng, pta: Pta, max_len: int, count: int) -> List[SyntacticRun]:
    runs = []
    for _ in range(count * 3):
        path = []
        at = pta.initial
        for _ in range(rng.randint(1, max_len)):
            options = [i for i, e in enumerate(pta.edges) if e.source == at]
            if not options:
                break
            idx = rng.choice(options)
            path.append(idx)
            at = pta.edges[idx].target
        if path:
            runs.append(SyntacticRun(pta, tuple(path)))
        if len(runs) >= count:
            break
    return runs


# -- property encoding equivalence -------------------------------------------------

def suite_property_encoding(seed: int, n_cases: int) -> SuiteReport:
    """A run reaches its end satisfying the property iff one of the encoded
    runs is realizable."""
    rng = random.Random(seed)
    report = SuiteReport("property-encoding")
    made = 0
    while made < n_cases:
        pta = rand_pta_one_clock(rng, 1, TIME_NAT, "int")
        runs = _random_runs(rng, pta, max_len=5, count=2)
        if not runs:
            continue
        for tau in runs:
            phi = rand_state_property(rng, pta)
            gamma = {p: Fraction(rng.randint(-2, 8)) for p in pta.params}
            made += 1
            report.cases += 1
            final_set = syntactic_run_reachable_set(tau, gamma, TIME_NAT)
            lhs = _final_set_satisfies(final_set, tau, phi, gamma)
            rhs = False
            for encoded in encode_run_property(tau, phi):
                grun = invariants_to_guards(encoded)
                zeros = {c: Fraction(0) for c in pta.clocks}
                if pta.invariants[pta.initial].holds(zeros, gamma) and \
                        guard_run_reachable_set(grun, gamma, TIME_NAT) is not None:
                    rhs = True
                    break
            if lhs != rhs:
                report.fail("run %s gamma %s: direct %s encoded %s"
                            % (tau.edge_indices, gamma, lhs, rhs))
            if made >= n_cases:
                break
    return report


def _final_set_satisfies(final_set, tau: SyntacticRun, phi, gamma) -> bool:
    """Exhaustively decide whether some final integer clock value satisfies
    the property: atom truth over integers can only change at the evaluated
    atom thresholds, so sampling around every threshold plus the interval
    endpoints is complete."""
    if final_set is None:
        return False

    encoded = encode_property(phi, tau.final_location())
    disjuncts = to_dnf_atoms(to_nnf(encoded))
    lo = math.ceil(final_set.lo)
    hi = None if final_set.hi is INF else math.floor(final_set.hi)
    candidates = {lo}
    if hi is not None:
        candidates.add(hi)
    for conj in disjuncts:
        for atom in conj:
            bound = atom.rhs.evaluate(gamma)
            if not is_finite(bound):
                continue
            for t in (math.floor(bound), math.ceil(bound)):
                for v in (t - 1, t, t + 1):
                    candidates.add(v)
                    candidates.add(-v)
    clock = tau.pta.clocks[0]
    for value in sorted(candidates):
        if value < lo or (hi is not None and value > hi):
            continue
        omega = {c: Fraction(0) for c in tau.pta.clocks}
        omega[clock] = Fraction(value)
        for conj in disjuncts:
            if all(a.holds(omega, gamma) for a in conj):
                return True
    return False


# -- negation -----------------------------------------------------------------------

def suite_negation(seed: int, n_cases: int) -> SuiteReport:
    rng = random.Random(seed)
    report = SuiteReport("negation")
    for _ in range(n_cases):
        pta = rand_pta_one_clock(rng, 1, TIME_DENSE, "real")
        phi = rand_state_property(rng, pta, depth=3)
        loc = rng.choice(pta.locations)
        omega = {"x": Fraction(rng.randint(0, 12), rng.choice([1, 1, 2]))}
        gamma = {p: Fraction(rng.randint(-6, 6)) for p in pta.params}
        report.cases += 1
        a = eval_state_property(phi, loc, omega, gamma)
        b = eval_state_property(negate_property(phi), loc, omega, gamma)
        if a == b:
            report.fail("negation does not flip at %s %s %s" % (loc, omega, gamma))
        double = negate_property(negate_property(phi))
        c = eval_state_property(double, loc, omega, gamma)
        if a != c:
            report.fail("double negation changes the value at %s" % (omega,))
    return report


# -- L/U monotonicity (criterion 8) ---------------------------------------------------

def rand_lu_pta(rng: random.Random, n_params=2) -> Pta:
    params = tuple("p%d" % i for i in range(1, n_params + 1))
    polarity = {p: rng.choice([1, -1]) for p in params}
    locs = tuple("q%d" % i for i in range(rng.randint(2, 4)))
    invariants = {q: SimpleConstraint.true() for q in locs}
    edges = []
    for i in range(rng.randint(1, 5)):
        src, dst = rng.choice(locs), rng.choice(locs)
        atoms = []
        for _ in range(rng.randint(0, 2)):
            coeffs = {}
            for p in params:
                if rng.random() < 0.5:
                    coeffs[p] = polarity[p] * rng.randint(1, 2)
            rhs = Expression.linear(rng.randint(-3, 5), coeffs)
            if rng.random() < 0.5:
                atoms.append(AtomicConstraint("x", None, rng.random() < 0.3, rhs))
            else:
                # lower-bound use flips the required polarity
                neg = rhs.negated()
                atoms.append(AtomicConstraint(None, "x", rng.random() < 0.3, neg))
        updates = {"x": 0} if rng.random() < 0.3 else {}
        edges.append(Edge(src, SimpleConstraint(tuple(atoms)), "a%d" % i, updates, dst))
    pta = Pta(("x",), params, locs, locs[0], invariants, tuple(edges),
              TIME_NAT, "nat").validate()
    return pta


def suite_lu_monotonicity(seed: int, n_models: int, grid_hi=5) -> SuiteReport:
    """On L/U-classified models, enlarging upper parameters and shrinking
    lower ones preserves exists-eventually satisfaction."""
    rng = random.Random(seed)
    report = SuiteReport("lu-monotonicity")
    made = 0
    while made < n_models:
        pta = rand_lu_pta(rng)
        classes = classify_lu(pta)
        if not classes["is_lu"]:
            continue
        made += 1
        psi = SystemProperty(EXISTS_EVENTUALLY, PropLoc(rng.choice(pta.locations)))
        grid = int_grid(len(pta.params), 0, grid_hi)
        program = compile_check(pta, psi, TIME_NAT)
        verdicts = {valuation_key(g): decide(program, g, witness=False).satisfied for g in grid}
        lower, upper = classes["lower"], classes["upper"]
        for g1 in grid:
            if not verdicts[valuation_key(g1)]:
                continue
            for g2 in grid:
                report.cases += 1
                widened = all(
                    (g2[p] <= g1[p] if p in lower else
                     g2[p] >= g1[p] if p in upper else g2[p] == g1[p])
                    for p in pta.params)
                if widened and not verdicts[valuation_key(g2)]:
                    report.fail("monotonicity violated: %s sat but %s unsat"
                                % (g1, g2))
    return report


# -- two-clock structural finder suites (criterion 6) ----------------------------------

def _two_one_base(rng: random.Random, grow: str = "x") -> TwoOnePta:
    """A small randomized two-parametric-clock model: one loop edge resets
    the shrinking clock, an advance edge bounds the growing clock by the
    parameter, and the final edge carries small concrete decorations."""
    shrink = "y" if grow == "x" else "x"
    locs = ("q0", "q1", "q2")
    invariants = {q: SimpleConstraint.true() for q in locs}
    p = Expression.param("p")
    final_guard = [
        # lower bound on the shrinking clock, constant 0..2
        AtomicConstraint(None, shrink, rng.random() < 0.5,
                         Expression.constant(-rng.randint(0, 2))),
        # keeps the shrinking clock parametric too (harmless upper bound)
        AtomicConstraint(shrink, None, False, p),
    ]
    edges = [
        Edge("q0", SimpleConstraint.true(), "loop", {shrink: 0}, "q0"),
        Edge("q0", SimpleConstraint.of(AtomicConstraint(grow, None, False, p)),
             "go", {}, "q1"),
        Edge("q1", SimpleConstraint(tuple(final_guard)), "fin", {}, "q2"),
    ]
    if rng.random() < 0.5:
        edges.append(Edge("q1", SimpleConstraint.true(), "alt", {shrink: 0}, "q2"))
    pta = Pta(("x", "y"), ("p",), locs, "q0", invariants, tuple(edges),
              TIME_NAT, "nat").validate()
    return validate_two_one(pta)


def _gen_drift_run(rng: random.Random, s1: int) -> Tuple[ConcreteRun, dict]:
    """A replayable run of the base model whose growing clock ends at least
    S1 ahead: loop a few times, take one long wait, then advance."""
    lead = s1 + rng.randint(0, 6)
    small = [rng.randint(0, 2) for _ in range(rng.randint(0, 3))]
    steps = []
    for d in small:
        steps.append((Fraction(d), 0))
    steps.append((Fraction(lead), 0))          # the big wait, then reset
    tail_wait = rng.randint(3, 5)              # clears any final lower bound
    steps.append((Fraction(tail_wait), 1))
    steps.append((Fraction(0), 2))
    gamma_value = lead + sum(small) + tail_wait + rng.randint(0, 4)
    gamma = {"p": Fraction(gamma_value)}
    return ConcreteRun(tuple(steps)), gamma


def suite_twoclock_finders(seed: int, n_runs: int) -> List[SuiteReport]:
    """Generate runs meeting each structural hypothesis and require a
    re-validating witness from the matching finder every time."""
    rng = random.Random(seed)
    reports = {name: SuiteReport("finder-%s" % name)
               for name in ("x-drift", "y-drift", "joint-growth", "repeat-pair")}

    for name, grow, shrink, finder in (
            ("x-drift", "x", "y", find_oneP3_indices),
            ("y-drift", "y", "x", find_oneP5_indices)):
        for case in range(n_runs):
            two_one = _two_one_base(rng, grow=grow)
            s0, s1 = thresholds(two_one.pta, SystemProperty(
                EXISTS_EVENTUALLY, PropLoc("q2")))
            run, gamma = _gen_drift_run(rng, s1)
            rep = reports[name]
            rep.cases += 1
            rr = replay_run(two_one.pta, gamma, run, TIME_NAT)
            if not rr:
                rep.fail("case %d: generated run does not replay: %s" % (case, rr.reason))
                continue
            final = rr.states[len(run.steps)][1]
            if final[grow] - final[shrink] < s1:
                rep.fail("case %d: hypothesis not met by generator" % case)
                continue
            w = finder(two_one, run, gamma, s0)
            if w is None:
                rep.fail("case %d: no witness found (falsification candidate): "
                         "run=%s gamma=%s" % (case, run.steps, gamma))
            elif not _revalidate_drift(two_one, run, gamma, s0, w, grow, shrink):
                rep.fail("case %d: witness clauses do not re-validate" % case)

    for case in range(n_runs):
        two_one = _two_one_base(rng)
        s0, s1 = thresholds(two_one.pta, SystemProperty(
            EXISTS_EVENTUALLY, PropLoc("q2")))
        rep = reports["joint-growth"]
        rep.cases += 1
        # both clocks large: no resets on the path, one long wait
        wait = s1 + rng.randint(0, 5)
        small = rng.randint(0, 2)
        steps = ((Fraction(wait), 1), (Fraction(small), 2))
        gamma = {"p": Fraction(wait + small + rng.randint(0, 3))}
        rr = replay_run(two_one.pta, gamma, ConcreteRun(steps), TIME_NAT)
        if not rr:
            rep.fail("case %d: generated run does not replay: %s" % (case, rr.reason))
            continue
        run = ConcreteRun(steps)
        final = rr.states[len(steps)][1]
        if final["x"] < s1 or final["y"] < s1:
            rep.fail("case %d: hypothesis not met by generator" % case)
            continue
        w = find_oneP6_index(two_one, run, gamma, s0)
        if w is None:
            rep.fail("case %d: no witness found (falsification candidate)" % case)
        elif not w.all_clauses_hold():
            rep.fail("case %d: witness clauses do not re-validate" % case)

    for case in range(n_runs):
        two_one = _two_one_base(rng)
        s0, s1 = thresholds(two_one.pta, SystemProperty(
            EXISTS_EVENTUALLY, PropLoc("q2")))
        rep = reports["repeat-pair"]
        rep.cases += 1
        # iterate the y-reset loop with strictly positive waits
        loops = rng.randint(2, 5)
        steps = tuple((Fraction(rng.randint(1, 3)), 0) for _ in range(loops))
        gamma = {"p": Fraction(s1 + rng.randint(0, 5))}
        run = ConcreteRun(steps)
        rr = replay_run(two_one.pta, gamma, run, TIME_NAT)
        if not rr:
            rep.fail("case %d: generated run does not replay" % case)
            continue
        pair = find_pigeonhole_pair(two_one, run, gamma)
        if pair is None:
            rep.fail("case %d: no pair found (falsification candidate)" % case)
            continue
        i, j = pair
        states = rr.states
        edge_i = run.steps[i - 1][1]
        ok = (run.steps[j - 1][1] == edge_i
              and two_one.clock_y in two_one.pta.edges[edge_i].updates
              and states[j][1]["x"] - states[i][1]["x"] > 0)
        if not ok:
            rep.fail("case %d: returned pair does not re-validate" % case)
    return [reports[k] for k in ("x-drift", "y-drift", "joint-growth", "repeat-pair")]


def _revalidate_drift(two_one, run, gamma, s0, witness: StructuralWitness,
                      grow_name: str, shrink_name: str) -> bool:
    """Independent re-check of every clause of a drift witness."""
    grow = two_one.clock_x if grow_name == "x" else two_one.clock_y
    shrink = two_one.clock_y if grow_name == "x" else two_one.clock_x
    rr = replay_run(two_one.pta, gamma, run, TIME_NAT)
    if not rr:
        return False
    ell = len(run.steps)
    omega = [st[1] for st in rr.states[: ell + 1]]
    i, j = witness.indices
    if not (omega[i][grow] < s0 <= omega[i + 1][grow]):
        return False
    if not (omega[j][grow] < 3 * s0 <= omega[j + 1][grow]):
        return False
    saw_shrink_reset = False
    for k in range(i + 1, ell + 1):
        edge = two_one.pta.edges[run.steps[k - 1][1]]
        if shrink in edge.updates:
            saw_shrink_reset = True
        if grow in edge.updates:
            return False
        for atom in edge.guard:
            if atom.pos == grow and atom.neg is None and \
                    not atom.rhs.is_parametric() and not atom.rhs.is_infinite():
                return False
    return saw_shrink_reset and i <= j < ell


# -- decomposition property suites -------------------------------------------------

def suite_decomposition_props(seed: int, n_cases: int) -> SuiteReport:
    """Cover/disjointness of 1D cells, the real-root delineability proxy for
    the projection, and an independent census for the hyperplane cells,
    whose samples must lie in their cells."""
    rng = random.Random(seed)
    report = SuiteReport("decomposition-props")

    # 1D cover and disjointness
    for _ in range(n_cases):
        polys = []
        for _ in range(rng.randint(1, 3)):
            polys.append(tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 4))))
        polys = [p for p in polys if poly_trim(p)]
        cells = decompose_1d([poly_trim(p) for p in polys])
        report.cases += 1
        if cells[0].lo is not NEG_INF or cells[-1].hi is not INF:
            report.fail("1d cells do not span the line")
            continue
        for a, b in zip(cells, cells[1:]):
            if (a.hi if a.kind == "interval" else a.lo) != b.lo:
                report.fail("adjacent 1d cells do not share an endpoint")
                break
            if a.kind == b.kind:
                report.fail("1d cells do not alternate point/interval")
                break

    # projection proxy: within each cell the number of distinct real roots
    # in the clock is constant
    for case in range(max(1, n_cases // 2)):
        fs = []
        for _ in range(rng.randint(1, 2)):
            coeffs = []
            for _ in range(rng.randint(2, 3)):     # degree in the clock <= 2
                coeffs.append(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))))
            f = tuple(coeffs)
            f = bivar_trim(f)
            if len(f) >= 2:
                fs.append(f)
        if not fs:
            continue
        cells = decompose_1d(project_clock(fs))
        for cell in cells:
            report.cases += 1
            counts = set()
            probes = []
            if cell.kind == "point":
                if isinstance(cell.sample, Fraction):
                    probes = [cell.sample]
            else:
                probes = [random_point_in_cell1d(cell, rng) for _ in range(20)]
            for value in probes:
                key = []
                for f in fs:
                    coeffs = bivar_eval_p(f, value)
                    key.append(_real_root_count(coeffs))
                counts.add(tuple(key))
            if len(counts) > 1:
                report.fail("case %d: root counts vary inside a cell: %s" % (case, counts))

    # independent census for the linear decomposition
    for case in range(n_cases):
        m = rng.choice([1, 2])
        params = tuple("p%d" % i for i in range(1, m + 1))
        exprs = [rand_linear_expr(rng, params, max_coeff=2, max_const=3, param_prob=1.5)
                 for _ in range(rng.randint(1, 5))]
        cells = decompose_linear(exprs, params)
        report.cases += 1
        expected = _arrangement_census(exprs, params)
        got = {c.signs for c in cells}
        if expected != got:
            report.fail("case %d: census %d cells, decomposition %d"
                        % (case, len(expected), len(got)))
        if not all(c.contains(c.sample) for c in cells):
            report.fail("case %d: a sample violates its cell" % case)
    return report


def _real_root_count(fraction_coeffs) -> int:
    if not fraction_coeffs:
        return -1          # identically zero: flagged distinctly
    denom = 1
    for c in fraction_coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = poly_trim(tuple(int(c * denom) for c in fraction_coeffs))
    if len(ints) <= 1:
        return 0
    g = square_free_part(ints)
    chain = sturm_chain(g)
    bound = Fraction(cauchy_root_bound(g))
    return sturm_root_count(chain, -bound, bound)


def _arrangement_census(exprs, params):
    """Sign vectors of every arrangement face, found independently of the
    polytope splitting: vertices, points along each line between and beyond
    the vertices, and exact perpendicular offsets from those points."""
    planes = [tuple(map(Fraction, vec)) for vec in canonical_planes(exprs, params)]
    m = len(params)
    if not planes:
        return {()}
    candidates = set()
    if m == 1:
        roots = sorted({-v[-1] / v[0] for v in planes})
        candidates.add((roots[0] - 1,))
        candidates.add((roots[-1] + 1,))
        for r in roots:
            candidates.add((r,))
        for a, b in zip(roots, roots[1:]):
            candidates.add(((a + b) / 2,))
    else:
        line_points = {vec: [] for vec in planes}
        for i in range(len(planes)):
            a1, b1, c1 = planes[i]
            for j in range(i + 1, len(planes)):
                a2, b2, c2 = planes[j]
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue
                x = (-c1 * b2 + c2 * b1) / det
                y = (-a1 * c2 + a2 * c1) / det
                line_points[planes[i]].append((x, y))
                line_points[planes[j]].append((x, y))
                candidates.add((x, y))
        for vec, pts in line_points.items():
            a, b, c = vec
            # direction along the line and a base point on it
            direction = (-b, a)
            if a != 0:
                base = (-c / a, Fraction(0))
            else:
                base = (Fraction(0), -c / b)
            def param_of(q):
                return q[0] * direction[0] + q[1] * direction[1]
            ts = sorted({param_of(q) for q in pts})
            norm2 = direction[0] ** 2 + direction[1] ** 2
            def at(t):
                return (base[0] + direction[0] * (t - param_of(base)) / norm2,
                        base[1] + direction[1] * (t - param_of(base)) / norm2)
            probe_ts = []
            if not ts:
                probe_ts = [param_of(base)]
            else:
                probe_ts.append(ts[0] - norm2)
                probe_ts.append(ts[-1] + norm2)
                for t1, t2 in zip(ts, ts[1:]):
                    probe_ts.append((t1 + t2) / 2)
            for t in probe_ts:
                candidates.add(at(t))
        # perpendicular offsets off every candidate, small enough to stay
        # on the same side of every plane not through the point
        for q in list(candidates):
            for vec in planes:
                a, b, c = vec
                n = (a, b)
                deltas = []
                for other in planes:
                    val = other[0] * q[0] + other[1] * q[1] + other[2]
                    dot = other[0] * n[0] + other[1] * n[1]
                    if val != 0 and dot != 0:
                        deltas.append(abs(val) / abs(dot))
                delta = min(deltas) / 2 if deltas else Fraction(1)
                candidates.add((q[0] + delta * n[0], q[1] + delta * n[1]))
                candidates.add((q[0] - delta * n[0], q[1] - delta * n[1]))
    out = set()
    for q in candidates:
        signs = []
        for vec in planes:
            v = vec[-1] + sum(c * x for c, x in zip(vec, q))
            signs.append((v > 0) - (v < 0))
        out.add(tuple(signs))
    return out


# -- shipped two-one suite probes (criterion 7) --------------------------------------

def shipped_two_one_models():

    base = resources.files("ptasynth").joinpath("data/twoone")
    out = []
    for entry in sorted(base.iterdir(), key=lambda p: p.name):
        if not entry.name.endswith(".pta"):
            continue
        name = entry.name[:-4]
        pta = parse_model(entry.read_text())
        psi = parse_property(base.joinpath(name + ".prop").read_text(), pta)
        out.append((name, pta, psi))
    return out


def suite_periodicity(horizon_mult: int = 3, limit: Optional[int] = None) -> SuiteReport:
    """Probe every shipped model; the found progression must start in
    [S1, S1+S0] with period at most S0 and agree with the full sweep."""

    report = SuiteReport("periodicity-probe")
    models = shipped_two_one_models()
    if limit is not None:
        models = models[:limit]
    for name, pta, psi in models:
        report.cases += 1
        two_one = validate_two_one(pta)
        rep = periodicity_probe(two_one, psi, horizon_mult)
        if rep.found is None:
            report.fail("%s: no consistent progression (window %s)"
                        % (name, rep.counterexample_window))
            continue
        t1, c = rep.found
        if not (rep.s1 <= t1 <= rep.s1 + rep.s0 and 1 <= c <= rep.s0):
            report.fail("%s: progression (%d, %d) outside the stated ranges" % (name, t1, c))
            continue
        if rep.tail_constant_false:
            if any(rep.verdicts[rep.s1:]):
                report.fail("%s: constant-false tail label but tail has a sat point" % name)
            continue
        bad = [v for v in range(t1, rep.horizon + 1, c) if not rep.verdicts[v]]
        if bad:
            report.fail("%s: progression misses at %s" % (name, bad))
        rep2 = periodicity_probe(two_one, psi, horizon_mult)
        if (rep2.found, rep2.verdicts) != (rep.found, rep.verdicts):
            report.fail("%s: probe is not deterministic" % name)
        report.notes.append("%s: S0=%d S1=%d progression=(%d,%d)%s"
                            % (name, rep.s0, rep.s1, t1, c,
                               " constant-false" if rep.tail_constant_false else ""))
    return report


def suite_threshold_checks(seed: int, n_cases: int) -> SuiteReport:
    """Reset-free runs of shipped and generated models keep one verdict for
    all tested values at or above S1."""

    rng = random.Random(seed)
    report = SuiteReport("threshold-stability")
    models = shipped_two_one_models()
    for case in range(n_cases):
        name, pta, psi = models[case % len(models)]
        two_one = validate_two_one_quiet(pta)
        if two_one is None:
            continue
        candidates = [tau for tau in enumerate_runs(pta, 3)
                      if len(tau) and not any(e.updates for e in tau.edges())]
        if not candidates:
            continue
        tau = candidates[rng.randrange(len(candidates))]
        report.cases += 1
        rep = no_reset_threshold_check(two_one, tau)
        if rep.premise_ok and not rep.all_equal:
            report.fail("%s run %s: verdicts differ above S1: %s"
                        % (name, tau.edge_indices, rep.verdicts))
    return report


def validate_two_one_quiet(pta):
    try:
        return validate_two_one(pta)
    except TwoOneError:
        return None


# -- selftest orchestration ------------------------------------------------------------

def run_selftest(seed: int = 42, quick: bool = False):
    """All randomized suites at reduced counts; returns (ok, report text)."""
    if quick:
        counts = dict(feas=6, synth=6, signs=3, sign_samples=10, fold=30, enc=30,
                      neg=30, lu=4, finders=40, decomp=6, thresh=4, probe_limit=3)
    else:
        counts = dict(feas=25, synth=15, signs=6, sign_samples=20, fold=60, enc=60,
                      neg=60, lu=10, finders=120, decomp=12, thresh=8, probe_limit=None)
    reports = [
        suite_feasibility_oracle(seed, counts["feas"]),
        suite_synthesis_oracle(seed + 1, counts["synth"]),
        suite_sign_invariance(seed + 2, counts["signs"], counts["sign_samples"]),
        suite_invariant_folding(seed + 3, counts["fold"]),
        suite_property_encoding(seed + 4, counts["enc"]),
        suite_negation(seed + 5, counts["neg"]),
        suite_lu_monotonicity(seed + 6, counts["lu"]),
    ]
    reports.extend(suite_twoclock_finders(seed + 7, counts["finders"]))
    reports.append(suite_decomposition_props(seed + 8, counts["decomp"]))
    reports.append(suite_threshold_checks(seed + 9, counts["thresh"]))
    reports.append(suite_periodicity(limit=counts["probe_limit"]))
    ok = all(r.ok() for r in reports)
    lines = ["ptasynth selftest (seed=%d%s)" % (seed, ", quick" if quick else "")]
    for r in reports:
        lines.append(r.render())
    lines.append("selftest: %s" % ("PASS" if ok else "FAIL"))
    return ok, "\n".join(lines) + "\n"
