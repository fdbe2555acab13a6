import random

import pytest

from ptasynth.harness import rand_pta_one_clock, rand_state_property
from ptasynth.model import (
    Edge,
    Pta,
    SystemProperty,
    UnsupportedError,
    max_c,
    thresholds,
)
from ptasynth.constraints import SimpleConstraint
from ptasynth.parser import parse_model, parse_property


def build(guards):
    text = ["clocks: x", "params: p", "loc q0 init inv: true"]
    for g in guards:
        text.append("edge q0 -> q0 : %s ; a ;" % g)
    return parse_model("\n".join(text))


def test_max_c_examples():
    assert max_c(build(["x <= p + 3", "x <= 2*p - 5", "x <= 7"])) == 7
    assert max_c(build([])) == 0
    assert max_c(build(["x <= p"])) == 0


def test_max_c_rejects_polynomials():
    with pytest.raises(UnsupportedError):
        max_c(build(["x <= p^2"]))


def test_thresholds_examples():
    # K=4, maxC=2, maxV=1
    pta = build(["x <= p + 2", "x <= p", "x <= p", "x <= p"])
    psi = parse_property("EF (x <= p + 1)", pta)
    assert thresholds(pta, psi) == (17, 68)
    # K=0
    empty = build([])
    assert thresholds(empty, parse_property("EF q0", empty)) == (1, 4)
    # K=3, maxC=5, maxV=2
    pta3 = build(["x <= p + 5", "x <= p", "x <= p"])
    psi3 = parse_property("EF (x <= p - 2)", pta3)
    assert thresholds(pta3, psi3) == (31, 124)


def test_thresholds_monotone_in_transitions():
    rng = random.Random(3)
    for _ in range(40):
        pta = rand_pta_one_clock(rng, 1, "nat", "int")
        psi = SystemProperty("EF", rand_state_property(rng, pta))
        base, _ = thresholds(pta, psi)
        extended = Pta(pta.clocks, pta.params, pta.locations, pta.initial,
                       pta.invariants,
                       pta.edges + (Edge(pta.initial, SimpleConstraint.true(), "extra",
                                         {}, pta.initial),),
                       pta.time_domain, pta.param_domain)
        grown, _ = thresholds(extended, psi)
        assert grown >= base


def test_parametric_clock_detection(two_param):
    assert two_param.parametric_clocks() == ("x",)
