"""Parser outcomes on seeded, mutated model and property texts.

``tests/golden/parse_corpus.json`` holds a few hundred texts, each a
shipped ``data/twoone`` model or property, or a rendered
``rand_pta_one_clock`` / ``rand_state_property`` one, with one to three
token-level mutations, and each text's outcome: the rendered model
or property, or the error's message, line and column.  A property text
is parsed against its unmutated model, stored beside it.

Run this file as a script to write the corpus again:

    PYTHONPATH=src python tests/test_parse_corpus.py
"""

import ast
import json
import random
import re
from importlib import resources
from pathlib import Path

from ptasynth.harness import rand_pta_one_clock, rand_state_property
from ptasynth.model import SystemProperty, render_system_property
from ptasynth.parser import ParseError, parse_model, parse_property

CORPUS = Path(__file__).parent / "golden" / "parse_corpus.json"

_PIECE = re.compile(r"\s+|[A-Za-z_0-9]+|<=|>=|->|:=|&&|\|\||\S")
_VOCABULARY = (
    "x", "y", "z", "p", "p1", "p2", "q", "q0", "q1", "bad", "0", "2", "10",
    "<", "<=", ">", ">=", "=", "&", "&&", "||", "!", "(", ")", "+", "-", "*",
    "^", ";", ",", ":", ":=", "->", "true", "false", "init", "inv:", "reset",
    "loc", "edge", "clocks:", "params:", "domain:", "time=nat", "param=int",
    "EF", "AG", "$", "#", "@", "{",
)


def _kin(token: str) -> str:
    """The class a "kin" mutation keeps: number, name, relation, or the token."""
    if token.isdigit():
        return "number"
    if token[0].isalpha():
        return "name"
    return "relation" if token in ("<", "<=", ">", ">=", "=") else token


def _heads(pieces):
    """Indices of each line's head: its pieces up to the first ':', or its
    first piece when it has none."""
    heads, line = set(), []
    for k, piece in enumerate(pieces + ["\n"]):
        if "\n" in piece:
            solid = [m for m in line if not pieces[m].isspace()]
            colon = [m for m in solid if pieces[m] == ":"]
            heads.update(m for m in solid if m <= (colon or solid or [-1])[0])
            line = []
        else:
            line.append(k)
    return heads


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with one to three token-level mutations (a token deleted,
    replaced by any token or by one of its class, inserted, doubled or
    swapped with the next), each in a line's head (see :func:`_heads`)
    one time in five and after it otherwise."""
    pieces = _PIECE.findall(text)
    for _ in range(rng.randint(1, 3)):
        solid = [k for k, piece in enumerate(pieces) if not piece.isspace()]
        if not solid:
            break
        heads = _heads(pieces)
        body = [k for k in solid if k not in heads]
        k = rng.choice(body if body and rng.random() < 0.8 else solid)
        kind = rng.choice(("delete", "replace", "kin", "insert", "double", "swap"))
        if kind == "delete":
            del pieces[k]
        elif kind == "kin":
            pieces[k] = rng.choice([t for t in _VOCABULARY if _kin(t) == _kin(pieces[k])]
                                   or _VOCABULARY)
        elif kind == "replace":
            pieces[k] = rng.choice(_VOCABULARY)
        elif kind == "insert":
            pad = rng.choice(("", " "))
            pieces.insert(k, pad + rng.choice(_VOCABULARY) + pad)
        elif kind == "double":
            pieces.insert(k, pieces[k])
        else:
            later = [m for m in solid if m > k]
            if later:
                m = later[0]
                pieces[k], pieces[m] = pieces[m], pieces[k]
    return "".join(pieces)


def _shipped():
    """(model text, property text) of every shipped two-clock model."""
    data = resources.files("ptasynth").joinpath("data/twoone")
    names = sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".pta"))
    return [(data.joinpath(n + ".pta").read_text(), data.joinpath(n + ".prop").read_text())
            for n in names]


def _random(rng: random.Random):
    pta = rand_pta_one_clock(rng, rng.choice([1, 2]), rng.choice(["nat", "dense"]),
                             rng.choice(["real", "int", "nat"]))
    mode = rng.choice(["EF", "AG"])
    return pta.render(), render_system_property(SystemProperty(mode, rand_state_property(rng, pta)))


# messages whose quotes are syntax, not text taken from the source
_SYNTAX = {
    "expected '+' or '-' between terms",
    "expected factor after '*'",
    "expected integer exponent after '^'",
    "missing ')'",
    "edge needs '<guard> ; <action> ;'",
    "bad location line (expected 'loc <id> [init] inv: ...')",
    "bad edge line (expected 'edge <src> -> <dst> : ...')",
}
_QUOTE = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")


def quote_is_at_column(entry: dict) -> bool:
    """Whether the source text an error message quotes starts at the
    error's column (true for a message that quotes none)."""
    message, line, column = entry["error"]
    quote = _QUOTE.search(message)
    if quote is None or message in _SYNTAX:
        return True
    text = entry["text"] if entry["kind"] == "property" else entry["text"].splitlines()[line - 1]
    return column >= 1 and text[column - 1:].startswith(ast.literal_eval(quote.group()))


def _message(err: ParseError) -> str:
    text = str(err)
    return text[:text.rindex(" at line ")] if err.line else text


def outcome(entry: dict) -> dict:
    """The rendered model or property, or the error as [message, line, column]."""
    try:
        if entry["kind"] == "model":
            return {"parsed": parse_model(entry["text"]).render()}
        pta = parse_model(entry["model"])
        return {"parsed": render_system_property(parse_property(entry["text"], pta))}
    except ParseError as err:
        return {"error": [_message(err), err.line, err.column]}


def texts(seed: int, shipped_rounds: int, random_models: int):
    """Mutated texts without outcomes: every shipped model ``shipped_rounds``
    times and its property half as often, then ``random_models`` random
    models and properties."""
    rng = random.Random(seed)
    entries = []
    for round_ in range(shipped_rounds):
        for model, prop in _shipped():
            entries.append({"kind": "model", "text": mutate(rng, model)})
            if round_ % 2 == 0:
                entries.append({"kind": "property", "model": model, "text": mutate(rng, prop)})
    for _ in range(random_models):
        model, prop = _random(rng)
        entries.append({"kind": "model", "text": mutate(rng, model)})
        entries.append({"kind": "property", "model": model, "text": mutate(rng, prop)})
    return entries


def build_corpus():
    return [dict(entry, **outcome(entry)) for entry in texts(20230, 8, 130)]


def test_corpus_outcomes_are_pinned():
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) > 300
    for entry in corpus:
        want = {k: entry[k] for k in ("parsed", "error") if k in entry}
        assert outcome(entry) == want, entry["text"]


def test_corpus_models_that_parse_are_valid():
    corpus = json.loads(CORPUS.read_text())
    parsed = [e for e in corpus if e["kind"] == "model" and "parsed" in e]
    assert len(parsed) > 20
    for entry in parsed:
        parse_model(entry["text"]).validate()


def test_corpus_errors_point_at_what_they_quote():
    corpus = json.loads(CORPUS.read_text())
    errors = [e for e in corpus if "error" in e]
    quoting = [e for e in errors if _QUOTE.search(e["error"][0]) and e["error"][0] not in _SYNTAX]
    assert len(quoting) > 200
    assert [e for e in errors if not quote_is_at_column(e)] == []


def test_mutated_texts_parse_or_raise_parse_error():
    # any other exception (KeyError, IndexError, ...) fails the test, and
    # so do a parsed model that Pta.validate rejects and an error that
    # quotes text away from its column
    entries = texts(777, 16, 900)
    assert len(entries) > 1900
    for entry in entries:
        entry.update(outcome(entry))
        if "error" in entry:
            assert quote_is_at_column(entry), entry
        elif entry["kind"] == "model":
            parse_model(entry["text"]).validate()


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(build_corpus(), indent=1, ensure_ascii=False) + "\n")
    print("wrote", CORPUS)
