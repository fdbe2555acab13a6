"""The benchmark's workloads: seeded corpus generators, the item each
workload times, and the correctness gate each item's answer must pass.

An item is one user-level command and always starts from text, because a
command-line user pays for parsing on every call:

* ``synth``      -- parse, ``synthesize``, region JSON, ``region_query``
                    over the integer grid ``[-5, 20]^n``;
* ``run-region`` -- parse, ``run_region`` for one syntactic run, region JSON;
* ``analyze2``   -- parse, ``validate_two_one``, ``periodicity_probe`` at
                    the default horizon, report text and JSON.

Everything here is a pure function of the seed.  No drawn model is ever
dropped for its run time or its verdict.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import List, Tuple

from ptasynth import harness, jsonio, parser, synthesis, twoclock
from ptasynth.constraints import AtomicConstraint, SimpleConstraint
from ptasynth.expressions import Expression
from ptasynth.model import (
    EXISTS_EVENTUALLY,
    FORALL_ALWAYS,
    PARAM_INT,
    PARAM_NAT,
    PARAM_REAL,
    TIME_DENSE,
    TIME_NAT,
    Pta,
    SyntacticRun,
    SystemProperty,
    render_system_property,
    thresholds,
)
from ptasynth.scalars import INF, is_finite
from ptasynth.semantics import (
    ClockSet,
    _apply_guard_to_set,
    _clockset_integerize,
    grid_oracle,
    syntactic_run_reachable_set,
    valuation_key,
)
from ptasynth.transforms import encode_property, to_dnf_atoms, to_nnf

GRID_LO, GRID_HI = -5, 20        # the criterion-2 grid of the acceptance tests
RUN_GRID_LO, RUN_GRID_HI = -2, 8  # the range suite_property_encoding draws from
MAX_RUN_LEN = 3
PROBE_HORIZON = 3                # the ``analyze2 --probe-horizon`` default
ANALYZE2_REFERENCE = Path(__file__).resolve().parent / "analyze2_reference.json"
# analyze2-shipped has 12 items, so its median and its tail (the 16.7th
# percentile) each rest on one or two short items of 3-20 ms.  A timed pass
# runs an item of these kinds back to back until it has taken this long,
# so that such an item's figure (``run.usual``) rests on tens of timings,
# not on the six to eight passes a 30 s run makes.
REPEAT_FLOOR_S = {"analyze2": 0.1}

# The generated models are drawn once, from this seed, and are the same on
# every run; ``--seed`` draws the order the items run in.  Models drawn
# afresh per seed make the corpus cost spread by 25-37% between seeds
# (README.md, "Why the models do not change with the seed").
POOL_SEED = 1809
# 2-parameter models are drawn with smaller caps than the harness defaults
# (4 locations, 6 edges, 2 atoms per guard): with those, single items take
# up to 16 s (param=nat) and 63 s (param=int).
LIN2_CAPS = {"n_locs": 3, "n_edges": 3, "max_guard_atoms": 1}
POLY_EDGES = (2, 5)
# Cubic thresholds in nat time put the leftmost int cell at the box edge
# p = -64, where the one-clock search cap is near 10^6 (up to 10 s an item).
POLY_MAX_DEGREE = {TIME_DENSE: 3, TIME_NAT: 2}
# Models per round of a synth pool: 1-parameter linear, 2-parameter linear
# and polynomial.  A pass over either pool of SYNTH_ROUNDS rounds takes
# 3-4 s on a 2-core machine, so that a 30 s run makes about six passes.
SYNTH_MIX = {"lin1": 2, "lin2": 1, "poly": 1}
SYNTH_ROUNDS = 8
# run-region: models in the pool, cycling through these kinds
# (time domain, parameter domain, parameters).
RUN_REGION_MODELS = 140
RUN_REGION_KINDS = (
    (TIME_DENSE, PARAM_REAL, 1),
    (TIME_NAT, PARAM_INT, 1),
    (TIME_DENSE, PARAM_REAL, 2),
    (TIME_NAT, PARAM_NAT, 2),
)


@dataclass(frozen=True)
class Item:
    """One command of a workload: its kind, input texts and extra input."""

    kind: str                    # "synth" | "run-region" | "analyze2"
    label: str
    model_text: str
    prop_text: str
    edges: Tuple[int, ...] = ()  # the syntactic run of a run-region item


# -- generators ----------------------------------------------------------------

def linear_model(rng: random.Random, n_params: int, time_domain: str,
                 param_domain: str) -> Pta:
    """``harness.rand_pta_one_clock`` with its own size ranges, or with
    LIN2_CAPS for 2 parameters."""
    caps = LIN2_CAPS if n_params == 2 else {}
    return harness.rand_pta_one_clock(rng, n_params, time_domain, param_domain, **caps)


def rand_poly_threshold(rng: random.Random, param: str, degree: int) -> Expression:
    """A threshold of the given degree, leading coefficient +-1 and the
    other coefficients in [-3, 3]."""
    terms = {((param, degree),): rng.choice((-1, 1))}
    for e in range(degree):
        terms[((param, e),) if e else ()] = rng.randint(-3, 3)
    return Expression.polynomial(terms)


def poly_model(rng: random.Random, time_domain: str, param_domain: str) -> Pta:
    """A 1-parameter ``harness.rand_pta_one_clock`` model with POLY_EDGES
    edges whose guard thresholds are redrawn as polynomials of degree 1 to
    POLY_MAX_DEGREE; the clock side and strictness of every atom, and the
    invariants, stay as drawn.  The generator draws 1 to n edges, so a
    model with too few is drawn again."""
    lo, hi = POLY_EDGES
    pta = harness.rand_pta_one_clock(rng, 1, time_domain, param_domain, n_edges=hi)
    while len(pta.edges) < lo:
        pta = harness.rand_pta_one_clock(rng, 1, time_domain, param_domain, n_edges=hi)
    top = POLY_MAX_DEGREE[time_domain]

    def redraw(atom: AtomicConstraint) -> AtomicConstraint:
        rhs = rand_poly_threshold(rng, pta.params[0], rng.randint(1, top))
        return replace(atom, rhs=rhs if atom.pos else rhs.negated())

    edges = tuple(replace(e, guard=SimpleConstraint(tuple(map(redraw, e.guard.conjuncts))))
                  for e in pta.edges)
    return replace(pta, edges=edges).validate()


def synth_models(time_domain: str) -> List[Tuple[str, Pta, object]]:
    """(class, model, state property) for every model of a synth pool.  In
    nat time the parameter domain alternates between int and nat, within a
    round and from one round to the next."""
    rng = random.Random(POOL_SEED)
    out = []
    for r in range(SYNTH_ROUNDS):
        for cls, count in SYNTH_MIX.items():
            for _ in range(count):
                pdomain = PARAM_REAL if time_domain == TIME_DENSE else \
                    (PARAM_INT, PARAM_NAT)[(len(out) + r) % 2]
                if cls == "poly":
                    pta = poly_model(rng, time_domain, pdomain)
                else:
                    pta = linear_model(rng, 1 if cls == "lin1" else 2, time_domain, pdomain)
                out.append((cls, pta, harness.rand_state_property(rng, pta)))
    return out


def synth_corpus(seed: int, time_domain: str) -> List[Item]:
    """Every model with EF and with AG of its state property, in an order
    drawn from the seed."""
    items = []
    for n, (cls, pta, phi) in enumerate(synth_models(time_domain)):
        text = pta.render()
        for mode in (EXISTS_EVENTUALLY, FORALL_ALWAYS):
            items.append(Item("synth", "m%03d-%s-%s" % (n, cls, mode), text,
                              render_system_property(SystemProperty(mode, phi))))
    random.Random(seed).shuffle(items)
    return items


def run_region_models() -> List[Tuple[Pta, object]]:
    """Models cycling through RUN_REGION_KINDS, each with its state property."""
    rng = random.Random(POOL_SEED)
    out = []
    for n in range(RUN_REGION_MODELS):
        time_domain, param_domain, n_params = RUN_REGION_KINDS[n % len(RUN_REGION_KINDS)]
        pta = linear_model(rng, n_params, time_domain, param_domain)
        out.append((pta, harness.rand_state_property(rng, pta)))
    return out


def run_region_corpus(seed: int) -> List[Item]:
    """Every syntactic run of length <= 3 of each model, against the
    model's state property, in an order drawn from the seed."""
    items = []
    for n, (pta, phi) in enumerate(run_region_models()):
        text = pta.render()
        prop = render_system_property(SystemProperty(EXISTS_EVENTUALLY, phi))
        for tau in synthesis.enumerate_runs(pta, MAX_RUN_LEN):
            items.append(Item("run-region", "m%03d-run%s" % (n, list(tau.edge_indices)),
                              text, prop, tau.edge_indices))
    random.Random(seed).shuffle(items)
    return items


def analyze2_corpus(seed: int) -> List[Item]:
    """The shipped two-clock models, in an order drawn from the seed."""
    base = resources.files("ptasynth").joinpath("data/twoone")
    names = sorted(e.name[:-4] for e in base.iterdir() if e.name.endswith(".pta"))
    random.Random(seed).shuffle(names)
    return [Item("analyze2", name, base.joinpath(name + ".pta").read_text(),
                 base.joinpath(name + ".prop").read_text()) for name in names]


CORPORA = {
    "synth-dense": lambda seed: synth_corpus(seed, TIME_DENSE),
    "synth-nat": lambda seed: synth_corpus(seed, TIME_NAT),
    "run-region": run_region_corpus,
    "analyze2-shipped": analyze2_corpus,
}


# -- the timed items -------------------------------------------------------------
#
# Each returns ``(answer, detail)``: the command's complete output, which a
# later repetition must reproduce exactly, and the objects behind it that
# the gate inspects.

def domain_grid(pta: Pta, lo: int, hi: int) -> List[dict]:
    """Integer grid points of ``[lo, hi]^n`` inside the parameter domain."""
    return harness.int_grid(len(pta.params), max(lo, 0) if pta.param_domain == PARAM_NAT
                            else lo, hi)


def run_synth(item: Item):
    pta = parser.parse_model(item.model_text)
    psi = parser.parse_property(item.prop_text, pta)
    region = synthesis.synthesize(pta, psi)
    text = jsonio.dumps(jsonio.region_to_json(region))
    grid = domain_grid(pta, GRID_LO, GRID_HI)
    bits = tuple(synthesis.region_query(region, gamma) for gamma in grid)
    return (text, bits), region


def run_run_region(item: Item):
    pta = parser.parse_model(item.model_text)
    psi = parser.parse_property(item.prop_text, pta)
    region = synthesis.run_region(pta, SyntacticRun(pta, item.edges), psi.phi)
    return jsonio.dumps(jsonio.region_to_json(region)), region


def analyze2_payload(report) -> dict:
    """The JSON ``ptasynth analyze2 --out`` writes; a copy of the payload
    built in ``cli.cmd_analyze2``, which must be kept in step with it."""
    payload = {"s0": report.s0, "s1": report.s1, "horizon": report.horizon,
               "experimental": True, "verdicts": list(report.verdicts)}
    if report.found:
        payload["progression"] = {"start": report.found[0], "period": report.found[1],
                                  "constant_false_tail": report.tail_constant_false}
    if report.counterexample_window is not None:
        payload["counterexample_window"] = list(report.counterexample_window)
    return payload


def run_analyze2(item: Item):
    pta = parser.parse_model(item.model_text)
    psi = parser.parse_property(item.prop_text, pta)
    two_one = twoclock.validate_two_one(pta)
    report = twoclock.periodicity_probe(two_one, psi, PROBE_HORIZON)
    return report.render() + "\n" + jsonio.dumps(analyze2_payload(report)), report


RUNNERS = {"synth": run_synth, "run-region": run_run_region, "analyze2": run_analyze2}


def run_item(item: Item):
    """Run one item; returns ``(answer, detail)``."""
    return RUNNERS[item.kind](item)


# -- the correctness gate ----------------------------------------------------------
#
# Each check raises GateError on a wrong answer.  No check looks past
# synthesis.DEFAULT_INT_BOX (64): outside it ROADMAP item 1 has known wrong
# verdicts under integer parameter domains, and every grid here ends at 20.

class GateError(AssertionError):
    pass


def _parsed(item: Item):
    pta = parser.parse_model(item.model_text)
    return pta, parser.parse_property(item.prop_text, pta)


def check_synth(item: Item, answer, region) -> None:
    """The region's JSON passes the schema and its verdicts equal
    ``grid_oracle`` on the criterion-2 grid."""
    text, bits = answer
    jsonio.validate(json.loads(text), jsonio.load_schema("region"))
    pta, psi = _parsed(item)
    grid = domain_grid(pta, GRID_LO, GRID_HI)
    oracle = grid_oracle(pta, psi, grid)
    for gamma, got in zip(grid, bits):
        if oracle[valuation_key(gamma)] != got:
            raise GateError("%s: region says %s at %s, oracle says %s"
                            % (item.label, got, gamma, not got))


def _dense_final_set_satisfies(final_set, tau: SyntacticRun, phi, gamma) -> bool:
    """Whether some real clock value of the final set satisfies the property.

    Atom truth is constant between consecutive evaluated thresholds, so
    testing every threshold, every set end, one point inside each gap
    between them and one past the last is complete."""
    if final_set is None:
        return False
    disjuncts = to_dnf_atoms(to_nnf(encode_property(phi, tau.final_location())))
    marks = {final_set.lo}
    if final_set.hi is not INF:
        marks.add(final_set.hi)
    for conj in disjuncts:
        for atom in conj:
            bound = atom.rhs.evaluate(gamma)
            if is_finite(bound):
                marks.update((bound, -bound))
    marks = sorted(marks)
    candidates = set(marks) | {marks[-1] + 1}
    candidates.update((a + b) / 2 for a, b in zip(marks, marks[1:]))
    clock = tau.pta.clocks[0]
    for value in candidates:
        if value < final_set.lo or (value == final_set.lo and final_set.lo_open):
            continue
        if final_set.hi is not INF and (value > final_set.hi or
                                        (value == final_set.hi and final_set.hi_open)):
            continue
        omega = {c: Fraction(0) for c in tau.pta.clocks}
        omega[clock] = Fraction(value)
        if any(all(a.holds(omega, gamma) for a in conj) for conj in disjuncts):
            return True
    return False


def run_reaches(tau: SyntacticRun, phi, gamma, time_domain: str) -> bool:
    """Exhaustive check that the run reaches its end satisfying the property.

    The end of the empty run is every state reachable by delaying in the
    initial location, as ``transforms.invariants_to_guards`` defines it."""
    final_set = syntactic_run_reachable_set(tau, gamma, time_domain)
    if final_set is not None and not tau.edge_indices:
        pta = tau.pta
        final_set = _apply_guard_to_set(ClockSet(final_set.lo, False, INF, True),
                                        pta.invariants[pta.initial], gamma, pta.clocks[0])
        if final_set is not None and time_domain == TIME_NAT:
            final_set = _clockset_integerize(final_set)
    if time_domain == TIME_NAT:
        return harness._final_set_satisfies(final_set, tau, phi, gamma)
    return _dense_final_set_satisfies(final_set, tau, phi, gamma)


def check_run_region(item: Item, answer, region) -> None:
    """The region's JSON passes the schema and the region agrees with the
    exhaustive run check at every integer point of a small grid."""
    jsonio.validate(json.loads(answer), jsonio.load_schema("region"))
    pta, psi = _parsed(item)
    tau = SyntacticRun(pta, item.edges)
    for gamma in domain_grid(pta, RUN_GRID_LO, RUN_GRID_HI):
        got = synthesis.region_query(region, gamma)
        if run_reaches(tau, psi.phi, gamma, pta.time_domain) != got:
            raise GateError("%s: region says %s at %s, exhaustive check says %s"
                            % (item.label, got, gamma, not got))


def check_analyze2(item: Item, answer, rep) -> None:
    """The checks of ``suite_periodicity``: the progression starts in
    [S1, S1+S0], has period at most S0, and every value on it up to the
    horizon is satisfied in the sweep; a constant-false tail has no
    satisfied value at or above S1.  Then, because those checks only ask
    the probe to agree with itself, the payload must equal the one
    recorded in ANALYZE2_REFERENCE (verdicts and progression of the probe
    when the benchmark was written)."""
    s0, s1 = thresholds(*_parsed(item))
    if (rep.s0, rep.s1, rep.horizon) != (s0, s1, s1 + PROBE_HORIZON * s0):
        raise GateError("%s: wrong thresholds or horizon" % item.label)
    if len(rep.verdicts) != rep.horizon + 1:
        raise GateError("%s: the sweep does not cover 0..horizon" % item.label)
    if rep.found is None:
        raise GateError("%s: no consistent progression" % item.label)
    t1, c = rep.found
    if not (s1 <= t1 <= s1 + s0 and 1 <= c <= s0):
        raise GateError("%s: progression (%d, %d) outside the stated ranges"
                        % (item.label, t1, c))
    if rep.tail_constant_false:
        if any(rep.verdicts[s1:]):
            raise GateError("%s: constant-false tail has a satisfied value" % item.label)
    elif not all(rep.verdicts[v] for v in range(t1, rep.horizon + 1, c)):
        raise GateError("%s: the progression misses a value of the sweep" % item.label)
    reference = json.loads(ANALYZE2_REFERENCE.read_text())
    if analyze2_payload(rep) != reference.get(item.label):
        raise GateError("%s: verdicts or progression differ from %s"
                        % (item.label, ANALYZE2_REFERENCE.name))


CHECKS = {"synth": check_synth, "run-region": check_run_region, "analyze2": check_analyze2}


def check(item: Item, answer, detail) -> None:
    """Raise GateError if the item's answer is wrong."""
    CHECKS[item.kind](item, answer, detail)


def expected_calls(item: Item, answer, detail) -> dict:
    """Calls into traced layers the item is known to make: one parse of the
    model and one of the property, one synthesis per synth item with one
    decision per cell and one query per grid point, one probe per
    analyze2 item with one decision per swept value."""
    calls = {"parser": 2}
    if item.kind == "synth":
        calls.update({"synthesis.synthesize": 1, "synthesis.region_query": len(answer[1]),
                      "semantics.decide": len(detail.cells)})
    elif item.kind == "run-region":
        calls["synthesis.run_region"] = 1
    else:
        calls.update({"twoclock.probe": 1, "semantics.decide": len(detail.verdicts)})
    return calls
