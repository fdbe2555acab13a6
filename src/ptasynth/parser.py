"""Line-oriented model parser and the property-formula parser.

Model files
    clocks: x, y
    params: p, q
    domain: time=(nat|dense) param=(int|real|nat)     # optional
    loc q0 init inv: true
    edge q0 -> q1 : x >= 2 & x <= p ; a ; reset x:=0
with '#' comments.  Atoms are ``t rel e`` with t in {x, -x, x-y},
rel in {<, <=, >, >=, =}, and e an integer linear/polynomial parameter
expression such as ``2p+3``, ``p^2-1`` or ``p*q``.  Exponents are
nonnegative integers; ``p^0`` is 1, so ``3*p^0*q`` is ``3*q``.

Property files are ``EF <phi>`` or ``AG <phi>`` where phi combines atoms
and location names with !, &&, || and parentheses.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .constraints import AtomicConstraint, SimpleConstraint, atom_from_relation
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


_REL_RE = re.compile(r"(<=|>=|<|>|=)")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_EXPR_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-)|(.))")
_ATOM_LHS_RE = re.compile(
    r"(-)?\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:-\s*([A-Za-z_][A-Za-z_0-9]*))?")
_LOC_RE = re.compile(r"loc\s+([A-Za-z_][A-Za-z_0-9]*)\s*(init)?\s*inv:\s*(.*)$")
_EDGE_RE = re.compile(
    r"edge\s+([A-Za-z_][A-Za-z_0-9]*)\s*->\s*([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(.*)$")
_UPDATE_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*:=\s*(\d+)\s*")


def _tokenize_expr(text: str, line: int, col0: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m:
            break
        num, ident, caret, star, plus, minus, bad = m.groups()
        col = col0 + m.start() + (len(m.group(0)) - len(m.group(0).lstrip()))
        if num is not None:
            tokens.append(("num", int(num), col))
        elif ident is not None:
            tokens.append(("id", ident, col))
        elif caret:
            tokens.append(("^", "^", col))
        elif star:
            tokens.append(("*", "*", col))
        elif plus:
            tokens.append(("+", "+", col))
        elif minus:
            tokens.append(("-", "-", col))
        elif bad and bad.strip():
            raise ParseError("unexpected character %r in expression" % bad, line, col)
        pos = m.end()
    return tokens


def parse_expression(text: str, params, line: int = 0, col0: int = 1) -> Expression:
    """Parse an integer linear/polynomial expression over declared parameters."""
    tokens = _tokenize_expr(text, line, col0)
    if not tokens:
        raise ParseError("empty expression", line, col0)
    terms: Dict[tuple, int] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] in "+-":
            if tokens[i][0] == "-":
                sign = -sign
            i += 1
        if not first and sign == 1 and (i == 0 or tokens[i - 1][0] not in "+-"):
            raise ParseError("expected '+' or '-' between terms", line,
                             tokens[i][2] if i < len(tokens) else col0)
        first = False
        if i >= len(tokens):
            raise ParseError("dangling sign in expression", line, tokens[-1][2])
        coeff = 1
        powers: Dict[str, int] = {}
        saw_factor = False
        if tokens[i][0] == "num":
            coeff = tokens[i][1]
            saw_factor = True
            i += 1
            # implicit multiplication: 2p means 2*p
        while i < len(tokens) and tokens[i][0] in ("id", "*"):
            if tokens[i][0] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] not in ("id", "num"):
                    raise ParseError("expected factor after '*'", line, tokens[i - 1][2])
                if tokens[i][0] == "num":
                    coeff *= tokens[i][1]
                    i += 1
                    continue
            name = tokens[i][1]
            pcol = tokens[i][2]
            if name not in params:
                raise ParseError("undeclared parameter %r" % name, line, pcol)
            i += 1
            exp = 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise ParseError("expected integer exponent after '^'", line, pcol)
                exp = tokens[i][1]
                i += 1
            if exp:
                powers[name] = powers.get(name, 0) + exp
            saw_factor = True
        if not saw_factor:
            raise ParseError("expected a term", line, tokens[i][2] if i < len(tokens) else col0)
        mono = tuple(sorted(powers.items()))
        terms[mono] = terms.get(mono, 0) + sign * coeff
    return Expression.polynomial(terms)


def _parse_atom_text(text: str, clocks, params, line: int, col0: int):
    m = _REL_RE.search(text)
    if not m:
        raise ParseError("expected a relation (<, <=, >, >=, =) in atom", line, col0)
    lhs_text = text[: m.start()].strip()
    rel = m.group(1)
    rhs_text = text[m.end():].strip()
    lm = _ATOM_LHS_RE.fullmatch(lhs_text)
    if not lm:
        raise ParseError("atom left side must be x, -x or x-y (got %r)" % lhs_text, line, col0)
    negated, first, second = lm.groups()
    if negated and second:
        raise ParseError("atom left side must be x, -x or x-y", line, col0)
    for name in (first, second):
        if name is not None and name not in clocks:
            raise ParseError("undeclared clock %r" % name, line, col0)
    if second is not None and first == second:
        raise ParseError("atom compares a clock with itself", line, col0)
    pos, neg = (None, first) if negated else (first, second)
    rhs = parse_expression(rhs_text, params, line, col0 + m.end())
    return atom_from_relation(pos, neg, rel, rhs)


def parse_constraint(text: str, clocks, params, line: int = 0, col0: int = 1) -> SimpleConstraint:
    text = text.strip()
    if text == "true" or not text:
        return SimpleConstraint.true()
    atoms: List[AtomicConstraint] = []
    offset = 0
    for piece in text.split("&"):
        stripped = piece.strip()
        if not stripped:
            raise ParseError("empty conjunct", line, col0 + offset)
        atoms.extend(_parse_atom_text(stripped, clocks, params, line, col0 + offset))
        offset += len(piece) + 1
    return SimpleConstraint(tuple(atoms))


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_model(text: str) -> Pta:
    """Parse and validate a model file; raises ParseError with positions."""
    clocks: List[str] = []
    params: List[str] = []
    locations: List[str] = []
    initial: Optional[str] = None
    invariants: Dict[str, SimpleConstraint] = {}
    edges: List[Edge] = []
    time_domain = "dense"
    param_domain = "real"
    declared = set()
    pending_inv: List[Tuple[str, str, int, int]] = []
    pending_edges = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("clocks:"):
            names = [s.strip() for s in line[len("clocks:"):].split(",") if s.strip()]
            for n in names:
                if not _IDENT_RE.fullmatch(n):
                    raise ParseError("bad clock name %r" % n, lineno)
            clocks.extend(names)
        elif line.startswith("params:"):
            names = [s.strip() for s in line[len("params:"):].split(",") if s.strip()]
            for n in names:
                if not _IDENT_RE.fullmatch(n):
                    raise ParseError("bad parameter name %r" % n, lineno)
            params.extend(names)
        elif line.startswith("domain:"):
            for part in line[len("domain:"):].split():
                if part.startswith("time="):
                    value = part[len("time="):]
                    if value not in ("nat", "dense"):
                        raise ParseError("time domain must be nat or dense", lineno)
                    time_domain = value
                    declared.add("time")
                elif part.startswith("param="):
                    value = part[len("param="):]
                    if value not in ("int", "real", "nat"):
                        raise ParseError("param domain must be int, real or nat", lineno)
                    param_domain = value
                    declared.add("param")
                else:
                    raise ParseError("bad domain setting %r" % part, lineno)
        elif line.startswith("loc "):
            m = _LOC_RE.match(line)
            if not m:
                raise ParseError("bad location line (expected 'loc <id> [init] inv: ...')", lineno)
            name, init_flag, inv_text = m.groups()
            if name in locations:
                raise ParseError("duplicate location %r" % name, lineno)
            locations.append(name)
            if init_flag:
                if initial is not None:
                    raise ParseError("multiple init locations", lineno)
                initial = name
            pending_inv.append((name, inv_text, lineno, line.index("inv:") + 5))
        elif line.startswith("edge "):
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError("bad edge line (expected 'edge <src> -> <dst> : ...')", lineno)
            src, dst, rest = m.groups()
            parts = rest.split(";")
            if len(parts) < 2:
                raise ParseError("edge needs '<guard> ; <action> ;'", lineno)
            guard_text = parts[0].strip()
            action = parts[1].strip()
            if not _IDENT_RE.fullmatch(action):
                raise ParseError("bad action name %r" % action, lineno)
            updates: Dict[str, int] = {}
            tail = ";".join(parts[2:]).strip()
            if tail:
                if not tail.startswith("reset"):
                    raise ParseError("unexpected trailing text %r on edge" % tail, lineno)
                for item in tail[len("reset"):].split(","):
                    um = _UPDATE_RE.fullmatch(item)
                    if not um:
                        raise ParseError("malformed update %r (expected clock:=nat)" % item.strip(),
                                         lineno)
                    clock, b = um.group(1), int(um.group(2))
                    if clock in updates:
                        raise ParseError("clock %r reset twice on one edge" % clock, lineno)
                    updates[clock] = b
            pending_edges.append((src, dst, guard_text, action, updates, lineno))
        else:
            raise ParseError("unrecognized line %r" % line, lineno)

    if not locations:
        raise ParseError("model declares no locations")
    if initial is None:
        initial = locations[0]

    clockset, paramset = set(clocks), set(params)
    for name, inv_text, lineno, col in pending_inv:
        invariants[name] = parse_constraint(inv_text, clockset, paramset, lineno, col)
    for src, dst, guard_text, action, updates, lineno in pending_edges:
        if src not in locations:
            raise ParseError("undeclared location %r" % src, lineno)
        if dst not in locations:
            raise ParseError("undeclared location %r" % dst, lineno)
        for clock in updates:
            if clock not in clockset:
                raise ParseError("reset of undeclared clock %r" % clock, lineno)
        guard = parse_constraint(guard_text, clockset, paramset, lineno)
        edges.append(Edge(src, guard, action, updates, dst))

    try:
        return Pta(
            clocks=tuple(clocks),
            params=tuple(params),
            locations=tuple(locations),
            initial=initial,
            invariants=invariants,
            edges=tuple(edges),
            time_domain=time_domain,
            param_domain=param_domain,
        ).validate()
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- properties -------------------------------------------------------------

class _PropParser:
    def __init__(self, text: str, pta: Pta):
        self.text = text
        self.pta = pta
        self.pos = 0

    def error(self, message):
        return ParseError(message, 1, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def eat(self, token: str) -> bool:
        if self.peek(token):
            self.pos += len(token)
            return True
        return False

    def parse_or(self):
        node = self.parse_and()
        while self.eat("||"):
            node = PropOr(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.eat("&&"):
            node = PropAnd(node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.eat("!"):
            return PropNot(self.parse_unary())
        if self.eat("("):
            node = self.parse_or()
            if not self.eat(")"):
                raise self.error("missing ')'")
            return node
        return self.parse_leaf()

    def parse_leaf(self):
        self.skip_ws()
        rest = self.text[self.pos:]
        # an atom runs up to the next top-level connective; find its extent
        end = len(self.text)
        depth = 0
        for i in range(self.pos, len(self.text)):
            ch = self.text[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    end = i
                    break
                depth -= 1
            elif self.text.startswith("&&", i) or self.text.startswith("||", i):
                if depth == 0:
                    end = i
                    break
        chunk = self.text[self.pos:end].strip()
        if not chunk:
            raise self.error("expected an atom or location name")
        if _REL_RE.search(chunk):
            atoms = _parse_atom_text(chunk, set(self.pta.clocks), set(self.pta.params),
                                     1, self.pos + 1)
            self.pos = end
            node = PropAtom(atoms[0])
            for extra in atoms[1:]:
                node = PropAnd(node, PropAtom(extra))
            return node
        m = _IDENT_RE.match(chunk)
        if not m or m.group(0) != chunk:
            raise self.error("expected an atom or location name, got %r" % chunk)
        name = chunk
        self.pos = end
        if name == "true":
            return PropConst(True)
        if name == "false":
            return PropConst(False)
        if name not in self.pta.locations:
            raise self.error("undeclared location %r" % name)
        return PropLoc(name)


def parse_property(text: str, pta: Pta) -> SystemProperty:
    """Parse "EF <phi>" or "AG <phi>" against a model's declarations."""
    stripped = text.strip()
    if stripped.startswith("EF"):
        mode, body = EXISTS_EVENTUALLY, stripped[2:]
    elif stripped.startswith("AG"):
        mode, body = FORALL_ALWAYS, stripped[2:]
    else:
        raise ParseError("property must start with EF or AG")
    parser = _PropParser(body, pta)
    phi = parser.parse_or()
    parser.skip_ws()
    if parser.pos != len(body):
        raise parser.error("trailing text in property")
    return SystemProperty(mode, phi)
