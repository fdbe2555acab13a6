"""Structural analyses for automata with two parametric clocks and one parameter.

Atoms over the two parametric clocks must compare a clock or a clock
difference against the bare parameter or a constant (unit coefficients,
no offsets); the parameter domain is the naturals.  The thresholds
S0 = 2K*max(maxC, maxV)+1 and S1 = 4*S0 bound where the structural
properties of long runs kick in: the finders below locate, in a concrete
run, the threshold-crossing indices, reset patterns, and repeated-edge
pairs that large-parameter runs must exhibit, re-validating every clause.

The periodicity probe is labeled EXPERIMENTAL: it empirically searches
for an eventually-periodic verdict tail, which is a hypothesis this
module tests rather than a guaranteed theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .model import (
    ConcreteRun,
    PARAM_NAT,
    Pta,
    SyntacticRun,
    SystemProperty,
    TIME_NAT,
    thresholds,
)
from .semantics import (
    compile_check,
    compile_reach,
    decide,
    linearize_syntactic_run,
    reach_discrete,
    replay_run,
)
from .model import PropLoc


class TwoOneError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("not a two-clock/one-parameter model:\n  - " +
                         "\n  - ".join(self.violations))


@dataclass(frozen=True)
class TwoOnePta:
    pta: Pta
    clock_x: str
    clock_y: str
    param: str


def validate_two_one(pta: Pta) -> TwoOnePta:
    """Check the two-parametric-clocks/one-parameter shape and atom forms.

    Parametric atoms must be b1*x - b2*y against exactly +param or -param;
    equality-derived atom pairs are rejected (the accepted forms are
    strict/weak inequalities only; write both bounds explicitly if an
    equality is intended).
    """
    violations = []
    if len(pta.params) != 1:
        violations.append("expected exactly one parameter, got %d" % len(pta.params))
    parametric = pta.parametric_clocks()
    if len(parametric) != 2:
        violations.append("expected exactly two parametric clocks, got %s"
                          % (", ".join(parametric) or "none"))
    if pta.param_domain != PARAM_NAT:
        violations.append("parameter domain must be nat (declare 'domain: param=nat')")
    if violations:
        raise TwoOneError(violations)
    param = pta.params[0]
    x, y = parametric
    for atom in pta.atoms():
        if atom.from_equality:
            violations.append(
                "equality-derived atom %s is not an accepted form" % atom.render())
            continue
        e = atom.rhs
        if not e.is_parametric():
            continue
        if not e.is_linear() or e.con() != 0 or e.cf(param) not in (1, -1):
            violations.append(
                "parametric atom %s must compare against %s or -%s exactly"
                % (atom.render(), param, param))
            continue
        bad = [c for c in atom.clocks() if c not in (x, y)]
        if bad:
            violations.append(
                "parametric atom %s uses clock %s (only %s and %s may be parametric)"
                % (atom.render(), ", ".join(bad), x, y))
    if violations:
        raise TwoOneError(violations)
    return TwoOnePta(pta, x, y, param)


@dataclass
class StructuralWitness:
    kind: str
    indices: Tuple[int, ...]
    clauses: Dict[str, bool]

    def all_clauses_hold(self) -> bool:
        return all(self.clauses.values())


def _run_states(two_one: TwoOnePta, gamma, run: ConcreteRun):
    rr = replay_run(two_one.pta, gamma, run, time_domain=TIME_NAT)
    if not rr:
        raise ValueError("run does not replay: %s" % rr.reason)
    return rr.states


def _edge_for_step(run: ConcreteRun, k: int):
    """Edge index fired at step k (1-based)."""
    return run.steps[k - 1][1]


def _is_param_free_upper(atom, clock) -> bool:
    return atom.pos == clock and atom.neg is None and not atom.rhs.is_parametric() \
        and not atom.rhs.is_infinite()


def _suffix_clauses(two_one: TwoOnePta, run: ConcreteRun, i: int, ell: int,
                    grow: str, shrink: str):
    """The reset/guard conditions on steps i+1..ell for a drift witness."""
    pta = two_one.pta
    has_shrink_reset = False
    no_grow_reset = True
    no_grow_upper = True
    for k in range(i + 1, ell + 1):
        edge = pta.edges[_edge_for_step(run, k)]
        if shrink in edge.updates:
            has_shrink_reset = True
        if grow in edge.updates:
            no_grow_reset = False
        if any(_is_param_free_upper(a, grow) for a in edge.guard):
            no_grow_upper = False
    return has_shrink_reset, no_grow_reset, no_grow_upper


def _find_drift_witness(two_one: TwoOnePta, run: ConcreteRun, gamma, s0: int,
                        grow: str, shrink: str, kind: str) -> Optional[StructuralWitness]:
    states = _run_states(two_one, gamma, run)
    ell = len(run.steps)
    omega = [st[1] for st in states[: ell + 1]]
    if omega[ell][grow] - omega[ell][shrink] < 4 * s0:
        return None
    cross_s0 = [i for i in range(ell)
                if omega[i][grow] < s0 <= omega[i + 1][grow]]
    cross_3s0 = [j for j in range(ell)
                 if omega[j][grow] < 3 * s0 <= omega[j + 1][grow]]
    for i in reversed(cross_s0):
        for j in reversed([j for j in cross_3s0 if j >= i]):
            has_sr, no_gr, no_gu = _suffix_clauses(two_one, run, i, ell, grow, shrink)
            clauses = {
                "crosses_s0": omega[i][grow] < s0 <= omega[i + 1][grow],
                "crosses_3s0": omega[j][grow] < 3 * s0 <= omega[j + 1][grow],
                "suffix_resets_%s" % shrink: has_sr,
                "suffix_never_resets_%s" % grow: no_gr,
                "suffix_has_no_concrete_upper_on_%s" % grow: no_gu,
            }
            if all(clauses.values()):
                return StructuralWitness(kind, (i, j), clauses)
    return None


def find_oneP3_indices(two_one: TwoOnePta, run: ConcreteRun, gamma,
                       s0: int) -> Optional[StructuralWitness]:
    """Witness pair for runs whose final x value outruns y by at least 4*S0."""
    return _find_drift_witness(two_one, run, gamma, s0,
                               two_one.clock_x, two_one.clock_y, "x-drift")


def find_oneP5_indices(two_one: TwoOnePta, run: ConcreteRun, gamma,
                       s0: int) -> Optional[StructuralWitness]:
    """Symmetric witness with the roles of the two clocks swapped."""
    return _find_drift_witness(two_one, run, gamma, s0,
                               two_one.clock_y, two_one.clock_x, "y-drift")


def find_oneP6_index(two_one: TwoOnePta, run: ConcreteRun, gamma,
                     s0: int) -> Optional[StructuralWitness]:
    """Witness index for runs where both clocks end at or above 4*S0."""
    x, y = two_one.clock_x, two_one.clock_y
    states = _run_states(two_one, gamma, run)
    ell = len(run.steps)
    omega = [st[1] for st in states[: ell + 1]]
    if omega[ell][x] < 4 * s0 or omega[ell][y] < 4 * s0:
        return None
    pta = two_one.pta
    for i in range(ell - 1, -1, -1):
        if omega[i + 1][x] < 3 * s0 or omega[i + 1][y] < 3 * s0:
            continue
        ok_resets = True
        ok_uppers = True
        for k in range(i + 1, ell + 1):
            edge = pta.edges[_edge_for_step(run, k)]
            if x in edge.updates or y in edge.updates:
                ok_resets = False
            if any(_is_param_free_upper(a, x) or _is_param_free_upper(a, y)
                   for a in edge.guard):
                ok_uppers = False
        clauses = {
            "both_above_3s0": omega[i + 1][x] >= 3 * s0 and omega[i + 1][y] >= 3 * s0,
            "suffix_never_resets_either": ok_resets,
            "suffix_has_no_concrete_uppers": ok_uppers,
        }
        if all(clauses.values()):
            return StructuralWitness("joint-growth", (i,), clauses)
    return None


def _is_banned_lower_form(atom, x: str, y: str, param: str) -> bool:
    """Guard conjuncts ruled out between a repeated pair: the normalized
    forms of x > p, x-y > p, y > p, y-x > p."""
    e = atom.rhs
    if not e.is_parametric() or not e.is_linear() or e.cf(param) >= 0:
        return False
    # pure upper atoms on a single clock (x < -p shapes) are not in the list
    return not (atom.pos is not None and atom.neg is None)


def find_pigeonhole_pair(two_one: TwoOnePta, run: ConcreteRun, gamma
                         ) -> Optional[Tuple[int, int]]:
    """Least step pair (i, j), i < j, firing the same edge, where step i
    resets y, x strictly grows between them, and no parametric lower-bound
    form occurs on the guards in between."""
    states = _run_states(two_one, gamma, run)
    ell = len(run.steps)
    omega = [st[1] for st in states[: ell + 1]]
    x, y = two_one.clock_x, two_one.clock_y
    pta = two_one.pta
    for i in range(1, ell + 1):
        edge_i = _edge_for_step(run, i)
        if y not in pta.edges[edge_i].updates:
            continue
        for j in range(i + 1, ell + 1):
            if _edge_for_step(run, j) != edge_i:
                continue
            if not omega[j][x] - omega[i][x] > 0:
                continue
            banned = False
            for k in range(i + 1, j + 1):
                edge = pta.edges[_edge_for_step(run, k)]
                if any(_is_banned_lower_form(a, x, y, two_one.param)
                       for a in edge.guard):
                    banned = True
                    break
            if not banned:
                return (i, j)
    return None


def pigeonhole_hypotheses_report(two_one: TwoOnePta, run: ConcreteRun,
                                 gamma_value: int) -> dict:
    """Record the large-parameter hypotheses without interpreting them.

    Reports, for each step, whether the guard also holds one unit of the
    parameter higher, plus whether the run automaton is realizable at
    gamma+1 at all.
    """
    pta = two_one.pta
    param = two_one.param
    gamma = {param: Fraction(gamma_value)}
    gamma_up = {param: Fraction(gamma_value + 1)}
    rr = replay_run(pta, gamma, run, time_domain=TIME_NAT)
    if not rr:
        raise ValueError("run does not replay: %s" % rr.reason)
    per_step = []
    omega = {c: Fraction(0) for c in pta.clocks}
    for delay, eidx in run.steps:
        omega = {c: v + Fraction(delay) for c, v in omega.items()}
        edge = pta.edges[eidx]
        per_step.append({
            "edge": eidx,
            "guard_at_gamma": edge.guard.holds(omega, gamma),
            "guard_at_gamma_plus_one": edge.guard.holds(omega, gamma_up),
        })
        for clock, b in edge.updates.items():
            omega = dict(omega)
            omega[clock] = Fraction(b)
    edge_indices = tuple(eidx for _, eidx in run.steps)
    syntactic = SyntacticRun(pta, edge_indices)
    chain, final = linearize_syntactic_run(syntactic)
    up_reach = reach_discrete(compile_reach(chain, PropLoc(final), TIME_NAT), gamma_up,
                              witness=False)
    return {
        "gamma": gamma_value,
        "steps": per_step,
        "prefix_holds_at_gamma_plus_one": all(s["guard_at_gamma_plus_one"]
                                              for s in per_step[:-1]),
        "run_realizable_at_gamma_plus_one": up_reach.reachable,
    }


# -- reset-free threshold stability -------------------------------------------

@dataclass
class ThresholdReport:
    s0: int
    s1: int
    premise_ok: bool
    premise_note: str
    verdicts: Dict[int, bool] = field(default_factory=dict)
    all_equal: bool = False
    clamp_note: str = ""

    def render(self) -> str:
        lines = ["thresholds: S0=%d S1=%d" % (self.s0, self.s1)]
        if not self.premise_ok:
            lines.append("premise violated: %s" % self.premise_note)
            return "\n".join(lines)
        for t in sorted(self.verdicts):
            lines.append("p=%d: %s" % (t, "realizable" if self.verdicts[t] else "empty"))
        lines.append("all verdicts equal: %s" % self.all_equal)
        if self.clamp_note:
            lines.append(self.clamp_note)
        return "\n".join(lines)


def no_reset_threshold_check(two_one: TwoOnePta, tau: SyntacticRun) -> ThresholdReport:
    """Empirically check that reset-free run realizability is constant for
    parameter values at or above S1.

    Also exercises the clamped-witness construction: a witness found at the
    first realizable value is capped at S1-1 and replayed at the others.
    """
    pta = two_one.pta
    param = two_one.param
    for e in tau.edges():
        if e.updates:
            raise ValueError("threshold check needs a reset-free run")
    s0, s1 = thresholds(pta, SystemProperty("EF", PropLoc(pta.initial)))
    x, y = two_one.clock_x, two_one.clock_y
    for e in tau.edges():
        for atom in e.guard:
            if _is_banned_lower_form(atom, x, y, param) and \
                    atom.pos is not None and atom.neg is not None:
                return ThresholdReport(
                    s0, s1, False,
                    "guard %s bounds the clock difference from below by the parameter"
                    % atom.render())
    chain, final = linearize_syntactic_run(tau)
    targets = [s1, s1 + 1, s1 + 7, 2 * s1]
    verdicts = {}
    witness = None
    witness_at = None
    program = compile_reach(chain, PropLoc(final), TIME_NAT)
    for t in targets:
        v = reach_discrete(program, {param: Fraction(t)})
        verdicts[t] = v.reachable
        if v.reachable and witness is None:
            witness, witness_at = v.witness, t
    all_equal = len(set(verdicts.values())) == 1
    clamp_note = ""
    if witness is not None:
        cap = Fraction(s1 - 1)
        elapsed = Fraction(0)
        clamped_steps = []
        for delay, eidx in witness.steps:
            before = min(elapsed, cap)
            elapsed += Fraction(delay)
            clamped_steps.append((min(elapsed, cap) - before, eidx))
        clamped = ConcreteRun(tuple(clamped_steps))
        results = []
        for t in targets:
            ok = bool(replay_run(chain, {param: Fraction(t)}, clamped, TIME_NAT))
            results.append("p=%d:%s" % (t, "ok" if ok else "fails"))
        clamp_note = ("witness from p=%d capped at S1-1 replays: %s"
                      % (witness_at, " ".join(results)))
    return ThresholdReport(s0, s1, True, "", verdicts, all_equal, clamp_note)


# -- periodicity probe ----------------------------------------------------------

@dataclass
class PeriodicityReport:
    s0: int
    s1: int
    horizon: int
    verdicts: List[bool]
    found: Optional[Tuple[int, int]]          # (T1, period)
    tail_constant_false: bool
    counterexample_window: Optional[List[bool]]

    def render(self) -> str:
        lines = ["EXPERIMENTAL periodicity probe",
                 "thresholds: S0=%d S1=%d horizon=%d" % (self.s0, self.s1, self.horizon)]
        bits = "".join("1" if v else "0" for v in self.verdicts)
        lines.append("verdicts p=0..%d: %s" % (self.horizon, bits))
        if self.found:
            t1, c = self.found
            suffix = " (constant-false tail)" if self.tail_constant_false else ""
            lines.append("progression: T1=%d period=%d%s" % (t1, c, suffix))
        else:
            lines.append("no consistent progression found; window above is the "
                         "counterexample evidence")
        return "\n".join(lines)


def periodicity_probe(two_one: TwoOnePta, psi: SystemProperty,
                      horizon_mult: int = 3) -> PeriodicityReport:
    """Sweep the parameter, then search for an arithmetic progression of
    satisfied values starting in [S1, S1+S0] with period at most S0.

    A constant-false tail reports (T1=S1, period=1) flagged as such; the
    underlying eventual-periodicity claim is unproven, so a miss is
    reported as evidence, not an error.
    """
    pta = two_one.pta
    param = two_one.param
    s0, s1 = thresholds(pta, psi)
    horizon = s1 + horizon_mult * s0
    program = compile_check(pta, psi, TIME_NAT)
    verdicts = [decide(program, {param: v}, witness=False).satisfied
                for v in range(horizon + 1)]
    tail = verdicts[s1:]
    if not any(tail):
        return PeriodicityReport(s0, s1, horizon, verdicts, (s1, 1), True, None)
    for t1 in range(s1, s1 + s0 + 1):
        if t1 > horizon or not verdicts[t1]:
            continue
        for c in range(1, s0 + 1):
            if all(verdicts[v] for v in range(t1, horizon + 1, c)):
                return PeriodicityReport(s0, s1, horizon, verdicts, (t1, c), False, None)
    return PeriodicityReport(s0, s1, horizon, verdicts, None, False, tail)
