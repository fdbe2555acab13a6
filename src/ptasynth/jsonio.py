"""JSON rendering of results plus a small structural schema validator.

All exact values serialize as strings ("7", "3/4", "inf"); algebraic
numbers as {"poly": [...], "lo": "a/b", "hi": "a/b"}.  The shipped
schemas under data/schemas describe these shapes; validate() checks the
subset of JSON Schema they use (type, properties, required, items, enum).

:func:`dumps` writes, byte for byte, what ``json.dumps(obj, indent=2,
sort_keys=True)`` and a newline would, without the pure-Python encoder
that ``indent`` selects in json.  It is a short recursive emitter over the
types the payloads hold (dicts with str keys, lists, tuples, str, bool,
int and None), dispatched on the exact type.  Strings and keys go through
json's C ``encode_basestring_ascii``, dict keys are sorted, and the items
of a container are joined in one join, with a comma, a newline and the
indentation between them.  Any other type raises ``TypeError``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from importlib import resources

from .decomposition import plane_constraint
from .polynomials import AlgebraicNumber
from .scalars import INF, NEG_INF, format_fraction
from .synthesis import FeasibleRegion
from .model import ConcreteRun, render_system_property
from .twoclock import PeriodicityReport


def scalar_to_json(v):
    if v is INF:
        return "inf"
    if v is NEG_INF:
        return "-inf"
    if isinstance(v, AlgebraicNumber):
        if v.is_rational():
            return format_fraction(v.to_fraction())
        return {"poly": list(v.poly), "lo": format_fraction(v.lo),
                "hi": format_fraction(v.hi)}
    return format_fraction(v)


def run_to_json(run: ConcreteRun):
    steps = [{"delay": format_fraction(d), "edge": e} for d, e in run.steps]
    out = {"steps": steps}
    if run.final_delay:
        out["final_delay"] = format_fraction(run.final_delay)
    return out


def region_to_json(region: FeasibleRegion) -> dict:
    cells = []
    # (plane, sign) -> (expr text, rel): the cells of a linear region share
    # their planes, and a plane has one rendering per sign
    rendered = {}
    for cv in region.cells:
        if region.method == "cad1":
            cell = {
                "kind": cv.cell.kind,
                "endpoints": [scalar_to_json(cv.cell.lo), scalar_to_json(cv.cell.hi)],
                "sample": [scalar_to_json(cv.cell.sample)],
            }
        else:
            constraints = []
            for key in zip(cv.cell.planes, cv.cell.signs):
                text = rendered.get(key)
                if text is None:
                    expr, rel = plane_constraint(*key, cv.cell.params)
                    text = rendered[key] = (expr.render(), rel)
                constraints.append({"expr": text[0], "rel": text[1]})
            cell = {
                "kind": "system",
                "constraints": constraints,
                "signs": list(cv.cell.signs),
                "sample": [scalar_to_json(x) for x in cv.cell.sample],
            }
        cell["verdict"] = cv.verdict
        cell["decided_at"] = cv.decided_at
        if cv.integer_witness is not None:
            cell["integer_witness"] = list(cv.integer_witness)
        cells.append(cell)
    out = {
        "params": list(region.params),
        "method": region.method,
        "time_domain": region.time_domain,
        "param_domain": region.param_domain,
        "cells": cells,
        "empty": region.is_empty(),
    }
    if region.psi is not None:
        out["property"] = render_system_property(region.psi)
    return out


def oracle_to_json(result: dict, params) -> dict:
    points = []
    for key in sorted(result):
        valuation = {p: format_fraction(v) for p, v in key}
        points.append({"valuation": valuation, "satisfied": result[key]})
    return {"params": list(params), "points": points}


def check_to_json(satisfied: bool, witness, kind: str, gamma, time_domain) -> dict:
    out = {
        "satisfied": satisfied,
        "time_domain": time_domain,
        "valuation": {p: format_fraction(v) for p, v in sorted(gamma.items())},
    }
    if witness is not None:
        out["witness_kind"] = kind
        out["witness"] = run_to_json(witness)
    return out


def probe_to_json(report: PeriodicityReport) -> dict:
    """The ``probe`` payload ``analyze2 --out`` writes."""
    out = {"s0": report.s0, "s1": report.s1, "horizon": report.horizon,
           "experimental": True, "verdicts": list(report.verdicts)}
    if report.found:
        out["progression"] = {"start": report.found[0], "period": report.found[1],
                              "constant_false_tail": report.tail_constant_false}
    if report.counterexample_window is not None:
        out["counterexample_window"] = list(report.counterexample_window)
    return out


def dumps(obj) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``."""
    return _emit(obj, "\n") + "\n"


def _emit(v, newline: str) -> str:
    """The text of ``v``; ``newline`` is a newline followed by the
    indentation of the line ``v`` starts on."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is dict:
        if not v:
            return "{}"
        inner = newline + "  "
        parts = [_quote(k) + ": " + (_quote(x) if type(x) is str else _emit(x, inner))
                 for k, x in sorted(v.items())]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = newline + "  "
        parts = [_quote(x) if type(x) is str else _emit(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if t is int:
        return str(v)
    if t is bool:
        return "true" if v else "false"
    if v is None:
        return "null"
    raise TypeError("Object of type %s is not JSON serializable" % t.__name__)


# -- schema validation ---------------------------------------------------------

class SchemaError(ValueError):
    pass


def load_schema(name: str) -> dict:
    with resources.files("ptasynth").joinpath("data/schemas/%s.json" % name).open() as fh:
        return json.load(fh)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def validate(instance, schema, path="$"):
    """Check an instance against the subset of JSON Schema the shipped
    schemas use; raises SchemaError with a path on the first violation."""
    if "enum" in schema:
        if instance not in schema["enum"]:
            raise SchemaError("%s: %r not in %r" % (path, instance, schema["enum"]))
        return
    kind = schema.get("type")
    if kind is not None:
        expected = _TYPES[kind]
        if kind == "integer" and isinstance(instance, bool):
            raise SchemaError("%s: expected integer, got bool" % path)
        if kind == "boolean" and not isinstance(instance, bool):
            raise SchemaError("%s: expected boolean" % path)
        elif not isinstance(instance, expected):
            raise SchemaError("%s: expected %s, got %s"
                              % (path, kind, type(instance).__name__))
    if "oneOf" in schema:
        errors = []
        for i, option in enumerate(schema["oneOf"]):
            try:
                validate(instance, option, path)
                break
            except SchemaError as exc:
                errors.append(str(exc))
        else:
            raise SchemaError("%s: no alternative matched (%s)" % (path, "; ".join(errors)))
    if kind == "object":
        for key in schema.get("required", ()):
            if key not in instance:
                raise SchemaError("%s: missing required key %r" % (path, key))
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                validate(instance[key], sub, "%s.%s" % (path, key))
    if kind == "array" and "items" in schema:
        for i, item in enumerate(instance):
            validate(item, schema["items"], "%s[%d]" % (path, i))
