"""Parameter synthesis for parametric timed automata, in exact arithmetic."""

from .constraints import AtomicConstraint, SimpleConstraint
from .expressions import Expression
from .model import (
    ConcreteRun,
    Edge,
    Pta,
    SyntacticRun,
    SystemProperty,
    max_c,
    max_v,
    thresholds,
)
from .parser import ParseError, parse_constraint, parse_model, parse_property
from .semantics import (
    compile_check,
    compile_reach,
    decide,
    grid_oracle,
    reach_dense_one_clock,
    reach_discrete,
    replay_run,
)
from .transforms import (
    EncodedRun,
    GuardOnlyRun,
    classify_lu,
    encode_property,
    encode_run_property,
    invariants_to_guards,
    negate_property,
)
from .feasibility import (
    FeasibilityResult,
    feasible_no_reset,
    feasible_with_reset,
    linf,
    pair_satisfiable,
    split_guard,
    usup,
)
from .synthesis import (
    FeasibleRegion,
    enumerate_runs,
    region_query,
    run_region,
    synthesize,
)
from .twoclock import (
    TwoOnePta,
    find_oneP3_indices,
    find_oneP5_indices,
    find_oneP6_index,
    find_pigeonhole_pair,
    no_reset_threshold_check,
    periodicity_probe,
    validate_two_one,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicConstraint",
    "SimpleConstraint",
    "Expression",
    "ConcreteRun",
    "Edge",
    "Pta",
    "SyntacticRun",
    "SystemProperty",
    "max_c",
    "max_v",
    "thresholds",
    "ParseError",
    "parse_constraint",
    "parse_model",
    "parse_property",
    "compile_check",
    "compile_reach",
    "decide",
    "grid_oracle",
    "reach_dense_one_clock",
    "reach_discrete",
    "replay_run",
    "EncodedRun",
    "GuardOnlyRun",
    "classify_lu",
    "encode_property",
    "encode_run_property",
    "invariants_to_guards",
    "negate_property",
    "FeasibilityResult",
    "feasible_no_reset",
    "feasible_with_reset",
    "linf",
    "pair_satisfiable",
    "split_guard",
    "usup",
    "FeasibleRegion",
    "enumerate_runs",
    "region_query",
    "run_region",
    "synthesize",
    "TwoOnePta",
    "find_oneP3_indices",
    "find_oneP5_indices",
    "find_oneP6_index",
    "find_pigeonhole_pair",
    "no_reset_threshold_check",
    "periodicity_probe",
    "validate_two_one",
]
