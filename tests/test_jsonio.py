"""``jsonio.dumps`` against the standard library's encoder.

``dumps`` writes what ``json.dumps(obj, indent=2, sort_keys=True)`` and a
newline would; these tests hold it to that, byte for byte, on seeded
random payloads and on the payloads the four builders make.
"""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from ptasynth import jsonio
from ptasynth.model import UnsupportedError
from ptasynth.parser import parse_model, parse_property
from ptasynth.semantics import compile_check, decide, grid_oracle
from ptasynth.synthesis import enumerate_runs, run_region, synthesize
from ptasynth.twoclock import periodicity_probe, validate_two_one

TWOONE = resources.files("ptasynth").joinpath("data/twoone")
MODELS = sorted(e.name[:-4] for e in TWOONE.iterdir() if e.name.endswith(".pta"))


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


CHARS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\U0001d11e",
         "a", "Z", " ", "{", ":"]


def rand_text(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def rand_value(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rand_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, rng.randrange(-10 ** 40, 10 ** 40)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(["", "inf", "-3/4"])
    if kind in (5, 6):
        return {rand_text(rng): rand_value(rng, depth + 1) for _ in range(rng.randrange(4))}
    items = [rand_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return tuple(items) if kind == 7 else items


def test_dumps_matches_json_on_random_payloads():
    rng = random.Random(20241019)
    for n in range(500):
        obj = rand_value(rng, 0)
        assert jsonio.dumps(obj) == reference(obj), (n, obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, True, False, None, -(10 ** 30), [[]], {"a": {}}, [{}, []],
    {"b": 1, "a": [True, None, "x"], "": ()}, [1, [2, [3, [4]]]],
])
def test_dumps_matches_json_on_edge_cases(obj):
    assert jsonio.dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [1.5, Fraction(1, 2), {1, 2}, [object()]])
def test_dumps_rejects_other_types(obj):
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


def _model(name):
    pta = parse_model(TWOONE.joinpath(name + ".pta").read_text())
    return pta, parse_property(TWOONE.joinpath(name + ".prop").read_text(), pta)


@pytest.mark.parametrize("name", MODELS)
def test_builders_on_shipped_models(name):
    pta, psi = _model(name)
    payloads = [jsonio.probe_to_json(periodicity_probe(validate_two_one(pta), psi, 24))]
    grid = [{"p": Fraction(v)} for v in range(6)]
    payloads.append(jsonio.oracle_to_json(grid_oracle(pta, psi, grid), pta.params))
    program = compile_check(pta, psi)
    for gamma in grid:
        result = decide(program, gamma)
        payloads.append(jsonio.check_to_json(result.satisfied, result.witness,
                                             result.witness_kind, gamma, pta.time_domain))
    for tau in enumerate_runs(pta, 2):
        try:
            region = run_region(pta, tau, psi.phi)
        except UnsupportedError:
            continue
        payloads.append(jsonio.region_to_json(region))
    for payload in payloads:
        assert jsonio.dumps(payload) == reference(payload)


IRRATIONAL = """
clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= 2 & x <= p^2 & x <= 7 - p ; a ;
"""

LINEAR2 = """
clocks: x
params: p1, p2
loc q0 init inv: true
loc q1 inv: x <= p2
loc q2 inv: true
edge q0 -> q1 : x > p1 ; a ; reset x:=0
edge q1 -> q2 : x >= 1 & x <= p2 - p1 ; b ;
"""


@pytest.mark.parametrize("text, prop", [(IRRATIONAL, "EF q1"), (LINEAR2, "EF q2")],
                         ids=["cad1", "linear"])
def test_region_payloads(text, prop):
    pta = parse_model(text)
    region = synthesize(pta, parse_property(prop, pta))
    payload = jsonio.region_to_json(region)
    if region.method == "cad1":
        # some endpoint is an irrational root, written as an object
        assert any(isinstance(e, dict) for c in payload["cells"] for e in c["endpoints"])
    assert jsonio.dumps(payload) == reference(payload)
