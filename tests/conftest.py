import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ptasynth.parser import parse_model, parse_property

GATE = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= 2 & x <= p ; a ;
"""

SQUARE_GATE = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= 2 & x <= p^2 ; a ;
"""

TWO_PARAM = """
clocks: x
params: p1, p2
loc q0 init inv: true
loc q1 inv: x <= p2
loc q2 inv: true
edge q0 -> q1 : x >= p1 ; a ; reset x:=0
edge q1 -> q2 : x >= 1 & x <= p2 ; b ;
"""


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def synth_pools():
    """``(time domain, class, model, state property)`` for every model of
    the benchmark's two synth pools, as ``perfbench/workloads.py`` draws
    them; the class is ``lin1``, ``lin2`` or ``poly``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(domain, cls, pta, phi) for domain in ("dense", "nat")
            for cls, pta, phi in workloads.synth_models(domain)]


@pytest.fixture
def gate():
    return parse_model(GATE)


@pytest.fixture
def gate_ef(gate):
    return parse_property("EF q1", gate)


@pytest.fixture
def square_gate():
    return parse_model(SQUARE_GATE)


@pytest.fixture
def two_param():
    return parse_model(TWO_PARAM)


def frac(a, b=1):
    return Fraction(a, b)
