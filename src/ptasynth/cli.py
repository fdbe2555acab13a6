"""Command-line front end.

Subcommands: parse, transform, check, oracle, feasible, runs, run-region,
decompose, synth, analyze2, scan-run, selftest.  Exit codes: 0 success,
2 usage or parse error, 3 empty region (synth), 4 internal invariant
violation or selftest failure.  Output is byte-stable for fixed inputs
and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import jsonio
from .feasibility import feasible_with_reset
from .model import (
    EXISTS_EVENTUALLY,
    ConcreteRun,
    PropLoc,
    SyntacticRun,
    SystemProperty,
    UnsupportedError,
    render_system_property,
    thresholds,
)
from .parser import ParseError, parse_model, parse_property
from .polynomials import PolynomialError
from .scalars import format_fraction, parse_fraction
from .semantics import compile_check, decide, grid_oracle, linearize_guard_run, replay_run
from .synthesis import enumerate_runs, run_region, synthesize
from .transforms import encode_run_property, invariants_to_guards
from .twoclock import (
    TwoOneError,
    find_oneP3_indices,
    find_oneP5_indices,
    find_oneP6_index,
    find_pigeonhole_pair,
    periodicity_probe,
    validate_two_one,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY = 3
EXIT_INVARIANT = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def _load_model(path: str):
    return parse_model(_read(path))


def _load_property(path: str, pta):
    return parse_property(_read(path), pta)


def _param(name: str, pta) -> str:
    if name not in pta.params:
        raise CliError("unknown parameter %r" % name)
    return name


def _set_values(pairs, pta, gamma: dict) -> dict:
    """``gamma`` updated with the ``--set name=value`` pairs."""
    for item in pairs or ():
        if "=" not in item:
            raise CliError("--set needs name=value, got %r" % item)
        name, _, value = item.partition("=")
        gamma[_param(name, pta)] = parse_fraction(value)
    return gamma


def _valuation(pairs, pta):
    gamma = _set_values(pairs, pta, {})
    missing = set(pta.params) - set(gamma)
    if missing:
        raise CliError("missing --set for parameter(s): %s" % ", ".join(sorted(missing)))
    return gamma


def _grid(specs, pta):
    from itertools import product

    ranges = {}
    for item in specs or ():
        name, _, span = item.partition("=")
        if name not in pta.params:
            raise CliError("unknown parameter %r in --grid" % name)
        lo, sep, hi = span.partition("..")
        if not sep:
            raise CliError("--grid needs name=lo..hi, got %r" % item)
        ranges[name] = range(int(lo), int(hi) + 1)
    missing = set(pta.params) - set(ranges)
    if missing:
        raise CliError("missing --grid for parameter(s): %s" % ", ".join(sorted(missing)))
    names = list(pta.params)
    return [dict(zip(names, (Fraction(v) for v in point)))
            for point in product(*(ranges[n] for n in names))]


def _edge_list(text: str, pta) -> SyntacticRun:
    indices = []
    for token in text.split():
        try:
            indices.append(int(token))
        except ValueError:
            raise CliError("run files list edge indices, got %r" % token)
    for i in indices:
        if not 0 <= i < len(pta.edges):
            raise CliError("edge index %d out of range" % i)
    try:
        return SyntacticRun(pta, tuple(indices))
    except ValueError as exc:
        raise CliError(str(exc))


def _write_out(args, payload: dict):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(payload))


def _trace(path: str, pta):
    data = json.loads(_read(path))
    if not (isinstance(data, dict) and isinstance(data.get("steps", []), list)
            and isinstance(data.get("valuation", {}), dict)):
        raise CliError("malformed trace: expected an object with a \"steps\" list "
                       "and a \"valuation\" object")
    steps = []
    for step in data.get("steps", ()):
        if not isinstance(step, dict) or "delay" not in step or "edge" not in step:
            raise CliError("malformed trace: a step needs \"delay\" and \"edge\", got %s"
                           % json.dumps(step))
        edge = step["edge"]
        if type(edge) is not int:
            raise CliError("malformed trace: a step's \"edge\" must be an integer, got %s"
                           % json.dumps(edge))
        steps.append((parse_fraction(str(step["delay"])), edge))
    run = ConcreteRun(tuple(steps), parse_fraction(str(data.get("final_delay", "0"))))
    gamma = {_param(name, pta): parse_fraction(str(v))
             for name, v in data.get("valuation", {}).items()}
    return run, gamma


def _format_witness(pta, run: ConcreteRun) -> str:
    parts = []
    for delay, eidx in run.steps:
        parts.append("wait %s, fire edge %d (%s)"
                     % (format_fraction(delay), eidx, pta.edges[eidx].action))
    if run.final_delay:
        parts.append("wait %s" % format_fraction(run.final_delay))
    return "; ".join(parts) if parts else "(stay at the initial state)"


# -- subcommands -----------------------------------------------------------------

def cmd_parse(args):
    pta = _load_model(args.model)
    if args.render:
        sys.stdout.write(pta.render())
        return EXIT_OK
    print("locations: %d (initial %s)" % (len(pta.locations), pta.initial))
    print("clocks: %s" % (", ".join(pta.clocks) or "(none)"))
    print("params: %s" % (", ".join(pta.params) or "(none)"))
    print("edges: %d" % len(pta.edges))
    print("domains: time=%s param=%s" % (pta.time_domain, pta.param_domain))
    print("parametric clocks: %s" % (", ".join(pta.parametric_clocks()) or "(none)"))
    return EXIT_OK


def cmd_transform(args):
    pta = _load_model(args.model)
    tau = _edge_list(_read(args.run), pta)
    if args.prop:
        psi = _load_property(args.prop, pta)
        encoded = encode_run_property(tau, psi.phi)
        if not encoded:
            print("property is unsatisfiable at the run's final location")
            return EXIT_OK
        for n, er in enumerate(encoded):
            print("branch %d extra final guard: %s" % (n, er.extra_final.render()))
            grun = invariants_to_guards(er)
            _print_guard_run(grun)
    else:
        grun = invariants_to_guards(tau)
        _print_guard_run(grun)
    return EXIT_OK


def _print_guard_run(grun):
    print("initial condition: %s" % grun.initial_condition.render())
    for i, st in enumerate(grun.steps):
        resets = ""
        if st.updates:
            resets = " reset " + ", ".join("%s:=%d" % kv for kv in sorted(st.updates.items()))
        print("step %d: %s ; %s ;%s" % (i + 1, st.guard.render(), st.action, resets))


def cmd_check(args):
    pta = _load_model(args.model)
    psi = _load_property(args.prop, pta)
    gamma = _valuation(args.set, pta)
    result = decide(compile_check(pta, psi, args.time), gamma)
    domain = args.time or pta.time_domain
    print("property: %s" % render_system_property(psi))
    print("valuation: %s" % ", ".join(
        "%s=%s" % (p, format_fraction(gamma[p])) for p in pta.params))
    print("verdict: %s" % ("sat" if result.satisfied else "unsat"))
    if result.witness is not None:
        print("%s: %s" % (result.witness_kind, _format_witness(pta, result.witness)))
    _write_out(args, jsonio.check_to_json(result.satisfied, result.witness,
                                          result.witness_kind, gamma, domain))
    return EXIT_OK


def cmd_oracle(args):
    pta = _load_model(args.model)
    psi = _load_property(args.prop, pta)
    grid = _grid(args.grid, pta)
    result = grid_oracle(pta, psi, grid, args.time)
    for key in sorted(result):
        pretty = ", ".join("%s=%s" % (p, format_fraction(v)) for p, v in key)
        print("%s: %s" % (pretty, "sat" if result[key] else "unsat"))
    _write_out(args, jsonio.oracle_to_json(result, pta.params))
    return EXIT_OK


def cmd_feasible(args):
    pta = _load_model(args.model)
    tau = _edge_list(_read(args.run), pta)
    gamma = _valuation(args.set, pta)
    domain = args.time or pta.time_domain
    grun = invariants_to_guards(tau)
    res = feasible_with_reset(grun, gamma, domain)
    print("feasible: %s" % res.feasible)
    if res.failing_pair:
        print("failing pair: steps %d and %d" % res.failing_pair)
    if res.reason and not res.feasible:
        print("reason: %s" % res.reason)
    if res.witness is not None:
        chain, _ = linearize_guard_run(grun, domain)
        ok = replay_run(chain, gamma, res.witness, domain)
        print("witness: %s" % _format_witness(chain, res.witness))
        print("witness replays: %s" % bool(ok))
    return EXIT_OK


def cmd_runs(args):
    pta = _load_model(args.model)
    for tau in enumerate_runs(pta, args.max_len):
        locs = tau.locations()
        print("%s  (%s)" % (" ".join(str(i) for i in tau.edge_indices) or "-",
                            " -> ".join(locs)))
    return EXIT_OK


def cmd_run_region(args):
    pta = _load_model(args.model)
    tau = _edge_list(_read(args.run), pta)
    psi = _load_property(args.prop, pta)
    region = run_region(pta, tau, psi.phi, args.time, args.param_domain)
    _print_region(region)
    _write_out(args, jsonio.region_to_json(region))
    return EXIT_OK


def cmd_decompose(args):
    pta = _load_model(args.model)
    psi = _load_property(args.prop, pta)
    region = synthesize(pta, psi, args.time, args.param_domain)
    _print_region(region)
    _write_out(args, jsonio.region_to_json(region))
    return EXIT_OK


def _print_region(region):
    print("method: %s  params: %s  time=%s param=%s"
          % (region.method, ", ".join(region.params) or "(none)",
             region.time_domain, region.param_domain))
    for cv in region.cells:
        if region.method == "cad1":
            shape = "%s [%s, %s]" % (cv.cell.kind, jsonio.scalar_to_json(cv.cell.lo),
                                     jsonio.scalar_to_json(cv.cell.hi))
            sample = jsonio.scalar_to_json(cv.cell.sample)
        else:
            shape = " & ".join("%s %s 0" % (e.render(), rel)
                               for e, rel in cv.cell.constraints) or "(everything)"
            sample = "(" + ", ".join(jsonio.scalar_to_json(x) for x in cv.cell.sample) + ")"
        marker = "sat " if cv.verdict else "unsat"
        extra = ""
        if cv.integer_witness is not None:
            extra = "  integer point %s" % (cv.integer_witness,)
        print("%s  %s  sample %s%s" % (marker, shape, sample, extra))


def cmd_synth(args):
    pta = _load_model(args.model)
    psi = _load_property(args.prop, pta)
    region = synthesize(pta, psi, args.time, args.param_domain)
    print("property: %s" % render_system_property(psi))
    _print_region(region)
    _write_out(args, jsonio.region_to_json(region))
    if region.is_empty():
        print("feasible region is empty")
        return EXIT_EMPTY
    return EXIT_OK


def cmd_analyze2(args):
    pta = _load_model(args.model)
    psi = _load_property(args.prop, pta)
    two_one = validate_two_one(pta)
    s0, s1 = thresholds(pta, psi)
    print("two-clock/one-parameter model: clocks %s, %s; parameter %s"
          % (two_one.clock_x, two_one.clock_y, two_one.param))
    print("thresholds: S0=%d S1=%d" % (s0, s1))
    report = periodicity_probe(two_one, psi, args.probe_horizon)
    print(report.render())
    _write_out(args, jsonio.probe_to_json(report))
    return EXIT_OK


def cmd_scan_run(args):
    pta = _load_model(args.model)
    two_one = validate_two_one(pta)
    run, gamma = _trace(args.trace, pta)
    _set_values(args.set, pta, gamma)
    missing = set(pta.params) - set(gamma)
    if missing:
        raise CliError("trace or --set must give parameter(s): %s" % ", ".join(sorted(missing)))
    if args.lemma in ("oneP3", "oneP5", "oneP6"):
        s0, _ = thresholds(pta, SystemProperty(EXISTS_EVENTUALLY, PropLoc(pta.initial)))
        finder = {"oneP3": find_oneP3_indices, "oneP5": find_oneP5_indices,
                  "oneP6": find_oneP6_index}[args.lemma]
        witness = finder(two_one, run, gamma, s0)
        if witness is None:
            print("no witness (hypothesis unmet or no qualifying indices)")
        else:
            print("witness indices: %s" % (witness.indices,))
            for clause, ok in witness.clauses.items():
                print("  %s: %s" % (clause, ok))
    elif args.lemma == "oneP4":
        pair = find_pigeonhole_pair(two_one, run, gamma)
        if pair is None:
            print("no repeated-edge pair found")
        else:
            print("pair: steps %d and %d" % pair)
    else:
        raise CliError("unknown --lemma %r" % args.lemma)
    return EXIT_OK


def cmd_selftest(args):
    from .harness import run_selftest

    ok, text = run_selftest(seed=args.seed, quick=args.quick)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ptasynth",
        description="Parameter synthesis and analysis for parametric timed automata")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, prop=True, needs_time=True, needs_pdomain=False, out=True):
        p.add_argument("--model", required=True, help="model file")
        if prop:
            p.add_argument("--prop", required=True, help="property file")
        if needs_time:
            p.add_argument("--time", choices=["nat", "dense"],
                           help="override the model's time domain")
        if needs_pdomain:
            p.add_argument("--param-domain", choices=["real", "int", "nat"],
                           help="override the model's parameter domain")
        if out:
            p.add_argument("--out", help="also write machine-readable JSON here")

    p = sub.add_parser("parse", help="parse and validate a model")
    p.add_argument("--model", required=True)
    p.add_argument("--render", action="store_true", help="print the normalized model")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("transform", help="show the property-encoded, guard-only run")
    p.add_argument("--model", required=True)
    p.add_argument("--run", required=True, help="file listing edge indices")
    p.add_argument("--prop", help="property file (optional)")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("check", help="decide a property at a concrete valuation")
    common(p)
    p.add_argument("--set", action="append", metavar="p=V", help="parameter value")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="decide a property over an integer grid")
    common(p)
    p.add_argument("--grid", action="append", metavar="p=LO..HI", required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("feasible", help="per-run feasibility at a valuation")
    common(p, prop=False, out=False)
    p.add_argument("--run", required=True, help="file listing edge indices")
    p.add_argument("--set", action="append", metavar="p=V")
    p.set_defaults(fn=cmd_feasible)

    p = sub.add_parser("runs", help="enumerate syntactic runs")
    p.add_argument("--model", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(fn=cmd_runs)

    p = sub.add_parser("run-region", help="parameter region of one run")
    common(p, needs_pdomain=True)
    p.add_argument("--run", required=True, help="file listing edge indices")
    p.set_defaults(fn=cmd_run_region)

    p = sub.add_parser("decompose", help="print the parameter-space cells")
    common(p, needs_pdomain=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("synth", help="compute the feasible parameter region")
    common(p, needs_pdomain=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("analyze2", help="two-clock/one-parameter analyses")
    common(p)
    p.add_argument("--probe-horizon", type=int, default=3,
                   help="periodicity probe horizon multiplier (default 3)")
    p.set_defaults(fn=cmd_analyze2)

    p = sub.add_parser("scan-run", help="check a stored trace for structural witnesses")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True, help="JSON trace file")
    p.add_argument("--lemma", required=True, choices=["oneP3", "oneP4", "oneP5", "oneP6"])
    p.add_argument("--set", action="append", metavar="p=V")
    p.set_defaults(fn=cmd_scan_run)

    p = sub.add_parser("selftest", help="run the randomized suites at reduced counts")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quick", action="store_true", help="smallest counts")
    p.set_defaults(fn=cmd_selftest)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (ParseError, TwoOneError, UnsupportedError, PolynomialError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
