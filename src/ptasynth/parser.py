"""Line-oriented model parser and the property-formula parser.

Model files
    clocks: x, y
    params: p, q
    domain: time=(nat|dense) param=(int|real|nat)     # optional
    loc q0 init inv: true
    edge q0 -> q1 : x >= 2 & x <= p ; a ; reset x:=0
with '#' comments to the end of a line; property files are ``EF <phi>``
or ``AG <phi>``.  Invariants, guards and properties are read from one
token stream.  A token is a run of digits, a name ``[A-Za-z_][A-Za-z_0-9]*``,
``<=``, ``>=``, ``&&``, ``||`` or any other single non-blank character:

    constraint = "true" | atom { "&" atom }
    atom       = side rel expr         side = x | -x | x-y,  rel = < <= > >= =
    expr       = [signs] term { signs term }      signs = a run of + and -
    term       = (number | power) { ["*"] power | "*" number }
    power      = name ["^" number]
    phi        = conj { "||" conj }    conj = unary { "&&" unary }
    unary      = "!" unary | "(" phi ")" | leaf
    leaf       = atom | location | "true" | "false"

A leaf runs to the next ``&&``, ``||`` or unmatched ``)``.  Factors side
by side multiply (``2p`` is ``2*p``); exponents are nonnegative integers
and ``p^0`` is 1, so ``3*p^0*q`` is ``3*q``.

A ``ParseError`` has the 1-based line and column of the token it is
about: the name or character its message quotes, else the atom's first
token or the token where something else was expected, or one past the
last token when the text ends too soon.  A property text starts at line
1, column 1, and may span lines.  Errors about the whole text (no
locations, no ``EF``/``AG``) have no line or column.  A clock or
parameter name may be declared once, and not as both.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Dict, List, Optional

from .constraints import SimpleConstraint, atom_from_relation
from .expressions import Expression
from .model import (
    EXISTS_EVENTUALLY,
    FORALL_ALWAYS,
    Edge,
    PropAnd,
    PropAtom,
    PropConst,
    PropLoc,
    PropNot,
    PropOr,
    Pta,
    SystemProperty,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = ""
        if line:
            where = " at line %d" % line
            if column:
                where += ", column %d" % column
        super().__init__(message + where)


_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|<=|>=|&&|\|\||\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_RELATIONS = frozenset(("<", "<=", ">", ">=", "="))
_EXPR_OPERATORS = frozenset("^*+-")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_WORD_RE = re.compile(r"\S+")
_LOC_RE = re.compile(r"loc\s+([A-Za-z_][A-Za-z_0-9]*)\s*(init)?\s*inv:\s*(.*)$")
_EDGE_RE = re.compile(
    r"edge\s+([A-Za-z_][A-Za-z_0-9]*)\s*->\s*([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(.*)$")
_UPDATE_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*:=\s*(\d+)\s*")


class _Tokens:
    """The tokens of ``text[start:end]``, ``text[k]`` being at column ``base + k``
    of ``line`` when no newline precedes it; token positions are found again
    only for an error."""

    __slots__ = ("text", "start", "end", "base", "line", "toks", "i", "context")

    def __init__(self, text: str, start: int, end: int, base: int, line: int):
        self.text, self.start, self.end, self.base, self.line = text, start, end, base, line
        self.toks = _TOKEN.findall(text, start, end)
        self.i = 0

    def _spans(self):
        return [m.span() for m in _TOKEN.finditer(self.text, self.start, self.end)]

    def error(self, message: str, k: int) -> ParseError:
        """The error about token ``k``, or about the end of the text, at its
        line and its column in that line."""
        spans = self._spans()
        at = spans[k][0] if k < len(spans) else spans[-1][1] if spans else self.start
        newline = self.text.rfind("\n", 0, at)
        if newline < 0:
            return ParseError(message, self.line, self.base + at)
        return ParseError(message, self.line + self.text.count("\n", 0, at), at - newline)

    def source(self, a: int, b: int) -> str:
        """The text of tokens ``a`` to ``b - 1``, inner blanks kept."""
        spans = self._spans()
        return self.text[spans[a][0]:spans[b - 1][1]] if b > a else ""

    # -- expressions, atoms, constraints ------------------------------------

    def _expr_error(self, message: str, k: int, a: int, b: int) -> ParseError:
        """The error about token ``k`` of the expression in tokens ``a`` to
        ``b - 1``, or about its first token that no expression has."""
        for m in range(a, b):
            t = self.toks[m]
            if t[0] not in _NAME_START and t not in _EXPR_OPERATORS and not t.isdecimal():
                return self.error("unexpected character %r in expression" % t[0], m)
        return self.error(message, k)

    def expression(self, a: int, b: int, params) -> Expression:
        toks = self.toks
        if a == b:
            raise self.error("empty expression", a)
        terms: Dict[tuple, int] = {}
        i = a
        while i < b:
            sign, first = 1, i
            while toks[i] == "+" or toks[i] == "-":
                sign = -sign if toks[i] == "-" else sign
                i += 1
                if i == b:
                    raise self._expr_error("dangling sign in expression", i - 1, a, b)
            if i == first > a:
                raise self._expr_error("expected '+' or '-' between terms", i, a, b)
            powers: Dict[str, int] = {}
            saw_factor = toks[i].isdecimal()
            coeff = int(toks[i]) if saw_factor else 1
            i += saw_factor
            while i < b:
                t = toks[i]
                if t == "*" and saw_factor:
                    i += 1
                    if i < b and toks[i].isdecimal():
                        coeff *= int(toks[i])
                        i += 1
                        continue
                    if i == b or toks[i][0] not in _NAME_START:
                        raise self._expr_error("expected factor after '*'", i - 1, a, b)
                    t = toks[i]
                elif t[0] not in _NAME_START:
                    break
                if t not in params:
                    raise self._expr_error("undeclared parameter %r" % t, i, a, b)
                i += 1
                exp = 1
                if i < b and toks[i] == "^":
                    i += 1
                    if i == b or not toks[i].isdecimal():
                        raise self._expr_error("expected integer exponent after '^'", i - 2, a, b)
                    exp = int(toks[i])
                    i += 1
                if exp:
                    powers[t] = powers.get(t, 0) + exp
                saw_factor = True
            if not saw_factor:
                raise self._expr_error("expected a term", i, a, b)
            mono = tuple(sorted(powers.items()))
            terms[mono] = terms.get(mono, 0) + sign * coeff
        return Expression.polynomial(terms)

    def atom(self, a: int, b: int, clocks, params):
        """The normalized atoms of tokens ``a`` to ``b - 1`` (two for ``=``)."""
        toks = self.toks
        r = a
        while r < b and toks[r] not in _RELATIONS:
            r += 1
        if r == b:
            raise self.error("expected a relation (<, <=, >, >=, =) in atom", a)
        # the side's shape: its tokens with every name written as "x"
        shape = tuple("x" if t[0] in _NAME_START else t for t in toks[a:r])
        if shape == ("x",):
            pos, neg = toks[a], None
        elif shape == ("-", "x"):
            pos, neg = None, toks[a + 1]
        elif shape == ("x", "-", "x"):
            pos, neg = toks[a], toks[a + 2]
        elif shape == ("-", "x", "-", "x"):
            raise self.error("atom left side must be x, -x or x-y", a)
        else:
            raise self.error("atom left side must be x, -x or x-y (got %r)"
                             % self.source(a, r), a)
        for k in range(a, r):
            if shape[k - a] == "x" and toks[k] not in clocks:
                raise self.error("undeclared clock %r" % toks[k], k)
        if pos == neg:
            raise self.error("atom compares a clock with itself", a)
        return atom_from_relation(pos, neg, toks[r], self.expression(r + 1, b, params))

    def constraint(self, clocks, params) -> SimpleConstraint:
        """The whole text as a constraint; ``&&`` reads as two ``&``."""
        toks = self.toks
        n = len(toks)
        if n == 0 or (n == 1 and toks[0] == "true"):
            return SimpleConstraint.true()
        atoms, a = [], 0
        for b in [k for k in range(n) if toks[k] == "&" or toks[k] == "&&"] + [n]:
            if b == a:
                raise self.error("empty conjunct", a)
            atoms.extend(self.atom(a, b, clocks, params))
            if b < n and toks[b] == "&&":
                raise self.error("empty conjunct", b)
            a = b + 1
        return SimpleConstraint(tuple(atoms))

    # -- state properties ---------------------------------------------------

    def _take(self, token: str) -> bool:
        """Step over the next token if it is ``token``."""
        if self.i < len(self.toks) and self.toks[self.i] == token:
            self.i += 1
            return True
        return False

    def disjunction(self):
        node = self.conjunction()
        while self._take("||"):
            node = PropOr(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self._take("&&"):
            node = PropAnd(node, self.unary())
        return node

    def unary(self):
        if self._take("!"):
            return PropNot(self.unary())
        if not self._take("("):
            return self.leaf()
        node = self.disjunction()
        if not self._take(")"):
            raise self.error("missing ')'", self.i)
        return node

    def leaf(self):
        toks = self.toks
        a = b = self.i
        depth = 0
        while b < len(toks):
            t = toks[b]
            if depth == 0 and (t == ")" or t == "&&" or t == "||"):
                break
            depth += (t == "(") - (t == ")")
            b += 1
        self.i = b
        if b == a:
            raise self.error("expected an atom or location name", a)
        clocks, params, locations = self.context
        if any(toks[k] in _RELATIONS for k in range(a, b)):
            return reduce(PropAnd, map(PropAtom, self.atom(a, b, clocks, params)))
        name = toks[a]
        if b > a + 1 or name[0] not in _NAME_START:
            raise self.error("expected an atom or location name, got %r" % self.source(a, b), a)
        if name in ("true", "false"):
            return PropConst(name == "true")
        if name not in locations:
            raise self.error("undeclared location %r" % name, a)
        return PropLoc(name)


def parse_expression(text: str, params, line: int = 0, col0: int = 1) -> Expression:
    """An integer polynomial over ``params``; ``text[0]`` is at column ``col0``."""
    tokens = _Tokens(text, 0, len(text), col0, line)
    return tokens.expression(0, len(tokens.toks), params)


def parse_constraint(text: str, clocks, params, line: int = 0, col0: int = 1) -> SimpleConstraint:
    """``true`` or a conjunction of atoms; ``text[0]`` is at column ``col0``."""
    return _Tokens(text, 0, len(text), col0, line).constraint(clocks, params)


def _lead(text: str) -> int:
    return len(text) - len(text.lstrip())


def _stripped(line: str, a: int, b: int):
    """``line[a:b]`` without blanks around it, and the index it starts at."""
    return line[a:b].strip(), a + _lead(line[a:b])


def _names(line: str, at: int, base: int, lineno: int, what: str, declared) -> List[str]:
    """The comma-separated names after ``line[:at]``, each added to
    ``declared``, the clock and parameter names so far."""
    names = []
    for piece in line[at:].split(","):
        name = piece.strip()
        if name:
            column = base + at + _lead(piece)
            if not _IDENT_RE.fullmatch(name):
                raise ParseError("bad %s name %r" % (what, name), lineno, column)
            if name in declared:
                raise ParseError("duplicate name %r" % name, lineno, column)
            declared.add(name)
            names.append(name)
        at += len(piece) + 1
    return names


_DOMAINS = {"time": (("nat", "dense"), "time domain must be nat or dense"),
            "param": (("int", "real", "nat"), "param domain must be int, real or nat")}


def parse_model(text: str) -> Pta:
    """Parse a model file; raises ParseError with positions."""
    clocks: List[str] = []
    params: List[str] = []
    declared = set()
    locations: List[str] = []
    initial: Optional[str] = None
    domains = {"time": "dense", "param": "real"}
    pending_inv = []
    pending_edges = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        content = raw if cut < 0 else raw[:cut]
        line = content.strip()
        if not line:
            continue
        base = _lead(content) + 1          # the column of line[0]
        if line.startswith(("clocks:", "params:")):
            names, what = (clocks, "clock") if line[0] == "c" else (params, "parameter")
            names.extend(_names(line, len("clocks:"), base, lineno, what, declared))
        elif line.startswith("domain:"):
            for m in _WORD_RE.finditer(line, len("domain:")):
                key, eq, value = m.group().partition("=")
                if not eq or key not in _DOMAINS:
                    raise ParseError("bad domain setting %r" % m.group(), lineno, base + m.start())
                if value not in _DOMAINS[key][0]:
                    raise ParseError(_DOMAINS[key][1], lineno, base + m.start())
                domains[key] = value
        elif line.startswith("loc "):
            m = _LOC_RE.match(line)
            if not m:
                raise ParseError("bad location line (expected 'loc <id> [init] inv: ...')",
                                 lineno, base)
            name = m.group(1)
            if name in locations:
                raise ParseError("duplicate location %r" % name, lineno, base + m.start(1))
            locations.append(name)
            if m.group(2):
                if initial is not None:
                    raise ParseError("multiple init locations", lineno, base + m.start(2))
                initial = name
            pending_inv.append((name, _Tokens(line, m.start(3), len(line), base, lineno)))
        elif line.startswith("edge "):
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError("bad edge line (expected 'edge <src> -> <dst> : ...')",
                                 lineno, base)
            semi = line.find(";", m.start(3))
            if semi < 0:
                raise ParseError("edge needs '<guard> ; <action> ;'", lineno, base + len(line))
            guard = _Tokens(line, m.start(3), semi, base, lineno)
            semi2 = line.find(";", semi + 1)
            semi2 = len(line) if semi2 < 0 else semi2
            action, at = _stripped(line, semi + 1, semi2)
            if not _IDENT_RE.fullmatch(action):
                raise ParseError("bad action name %r" % action, lineno, base + at)
            tail, at = _stripped(line, semi2 + 1, len(line))
            updates: Dict[str, int] = {}
            resets = []
            if tail and not tail.startswith("reset"):
                raise ParseError("unexpected trailing text %r on edge" % tail, lineno, base + at)
            at += len("reset")
            for item in tail[len("reset"):].split(",") if tail else ():
                um = _UPDATE_RE.fullmatch(line, at, at + len(item))
                if not um:
                    raise ParseError("malformed update %r (expected clock:=nat)" % item.strip(),
                                     lineno, base + at + _lead(item))
                if um.group(1) in updates:
                    raise ParseError("clock %r reset twice on one edge" % um.group(1),
                                     lineno, base + um.start(1))
                updates[um.group(1)] = int(um.group(2))
                resets.append(um)
                at += len(item) + 1
            pending_edges.append((m, guard, action, updates, resets))
        else:
            raise ParseError("unrecognized line %r" % line, lineno, base)

    if not locations:
        raise ParseError("model declares no locations")

    clockset, paramset = set(clocks), set(params)
    invariants = {name: inv.constraint(clockset, paramset) for name, inv in pending_inv}
    edges = []
    for m, guard, action, updates, resets in pending_edges:
        for k in (1, 2):
            if m.group(k) not in locations:
                raise ParseError("undeclared location %r" % m.group(k), guard.line,
                                 guard.base + m.start(k))
        for um in resets:
            if um.group(1) not in clockset:
                raise ParseError("reset of undeclared clock %r" % um.group(1), guard.line,
                                 guard.base + um.start(1))
        edges.append(Edge(m.group(1), guard.constraint(clockset, paramset), action, updates,
                          m.group(2)))
    return Pta(clocks=tuple(clocks), params=tuple(params), locations=tuple(locations),
               initial=initial or locations[0], invariants=invariants, edges=tuple(edges),
               time_domain=domains["time"], param_domain=domains["param"])


def parse_property(text: str, pta: Pta) -> SystemProperty:
    """Parse "EF <phi>" or "AG <phi>" against a model's declarations."""
    mode = text.strip()[:2]
    if mode not in (EXISTS_EVENTUALLY, FORALL_ALWAYS):
        raise ParseError("property must start with EF or AG")
    body = _Tokens(text, _lead(text) + 2, len(text), 1, 1)
    body.context = (set(pta.clocks), set(pta.params), pta.locations)
    phi = body.disjunction()
    if body.i < len(body.toks):
        raise body.error("trailing text in property", body.i)
    return SystemProperty(mode, phi)
