"""Problem-file parsing: ring stanzas, generator expressions, weights.

The format is line oriented::

    ring: weyl 2
    ideal: y1^2 - y2; x1*y1 + 2*x2*y2
    weight: 1,1,1,3
    order: grevlex

Ring kinds are ``weyl n``, ``commutative m [n]``, ``sl2`` and
``custom m n`` followed by relation lines ``q1 i j: expr`` /
``q2 i j: expr``.  Expressions use +, -, *, ^ and parentheses over the
variables x1..xm, y1..yn with integer or p/q rational coefficients;
implicit juxtaposition (``2x1``) is rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import ParseError, PresentationError
from .orders import KINDS
from .ring import (
    RingPresentation,
    SkewPoly,
    commutative_presentation,
    sl2_presentation,
    validate_presentation,
    weyl_presentation,
)
from .weights import WeightVector

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[xy]\d+)|(?P<op>[-+*^()])|(?P<bad>\S))"
)


class _Token:
    __slots__ = ("kind", "value", "column")

    def __init__(self, kind, value, column):
        self.kind = kind
        self.value = value
        self.column = column


def _tokenize(text: str, line: int) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ParseError(
                f"unexpected character {m.group('bad')!r}", line, m.start("bad") + 1
            )
        if m.group("num"):
            tokens.append(_Token("num", Fraction(m.group("num")), m.start("num") + 1))
        elif m.group("var"):
            tokens.append(_Token("var", m.group("var"), m.start("var") + 1))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive descent over +, -, *, ^ and parentheses."""

    def __init__(self, P: RingPresentation, tokens: List[_Token], line: int):
        self.P = P
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line, 0)
        self.pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        col = tok.column if tok else 0
        return ParseError(message, self.line, col)

    def parse(self) -> SkewPoly:
        result = self._expr()
        if self._peek() is not None:
            raise self._error(f"trailing input {self._peek().value!r}")
        return result

    def _expr(self) -> SkewPoly:
        tok = self._peek()
        negate = False
        if tok is not None and tok.kind == "op" and tok.value in "+-":
            self._next()
            negate = tok.value == "-"
        acc = self._term()
        if negate:
            acc = -acc
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.value not in "+-":
                break
            self._next()
            rhs = self._term()
            acc = acc - rhs if tok.value == "-" else acc + rhs
        return acc

    def _term(self) -> SkewPoly:
        acc = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.value != "*":
                if tok is not None and tok.kind in ("num", "var"):
                    raise self._error(
                        "implicit juxtaposition is not allowed; use '*'"
                    )
                break
            self._next()
            acc = acc * self._factor()
        return acc

    def _factor(self) -> SkewPoly:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.value == "^":
            self._next()
            exp = self._next()
            if exp.kind != "num" or exp.value.denominator != 1:
                raise ParseError("exponent must be an integer", self.line, exp.column)
            return base ** int(exp.value)
        return base

    def _atom(self) -> SkewPoly:
        tok = self._next()
        if tok.kind == "num":
            return self.P.constant(tok.value)
        if tok.kind == "var":
            index = int(tok.value[1:])
            limit = self.P.m if tok.value[0] == "x" else self.P.n
            if not 1 <= index <= limit:
                raise ParseError(
                    f"variable {tok.value} out of range for this ring",
                    self.line,
                    tok.column,
                )
            return self.P.x(index) if tok.value[0] == "x" else self.P.y(index)
        if tok.kind == "op" and tok.value == "(":
            inner = self._expr()
            close = self._next()
            if close.kind != "op" or close.value != ")":
                raise ParseError("expected ')'", self.line, close.column)
            return inner
        if tok.kind == "op" and tok.value == "-":
            return -self._factor()
        raise ParseError(f"unexpected token {tok.value!r}", self.line, tok.column)


def parse_expression(P: RingPresentation, text: str, line: int = 0) -> SkewPoly:
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line, 0)
    return _ExprParser(P, tokens, line).parse()


class Problem:
    """A parsed problem file: ring, generators, weights, order kind."""

    __slots__ = ("ring", "generators", "weights", "order_kind")

    def __init__(self, ring, generators, weights, order_kind):
        self.ring = ring
        self.generators = list(generators)
        self.weights = list(weights)
        self.order_kind = order_kind


def parse_weight_entries(text: str, line: Optional[int] = None) -> List[Fraction]:
    """The rational entries of a comma-separated weight such as ``1,1/2,-1``."""
    entries = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            entries.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight entry {tok!r}", line, 0)
    return entries


def parse_weight(
    ring: RingPresentation, text: str, line: Optional[int] = None
) -> WeightVector:
    """A comma-separated weight for ``ring``; a wrong length is a parse error."""
    entries = parse_weight_entries(text, line)
    if len(entries) != ring.m + ring.n:
        raise ParseError(
            f"weight has {len(entries)} entries, ring needs {ring.m + ring.n}",
            line,
            0,
        )
    return WeightVector.for_ring(ring, entries)


def _parse_ring_header(value: str, line: int):
    parts = value.split()
    if not parts:
        raise ParseError("empty ring specification", line, 0)
    kind = parts[0]
    try:
        if kind == "weyl":
            (n,) = (int(parts[1]),)
            return weyl_presentation(n), False
        if kind == "commutative":
            m = int(parts[1])
            n = int(parts[2]) if len(parts) > 2 else 0
            return commutative_presentation(m, n), False
        if kind == "sl2":
            return sl2_presentation(), False
        if kind == "custom":
            # the relation-free ring on the same generators, in which the
            # relation lines are parsed
            return commutative_presentation(int(parts[1]), int(parts[2])), True
    except (IndexError, ValueError):
        raise ParseError(f"malformed ring specification {value!r}", line, 0)
    except PresentationError as exc:
        raise ParseError(str(exc), line, 0)
    raise ParseError(f"unknown ring kind {kind!r}", line, 0)


_Q_RE = re.compile(r"^q([12])\s+(\d+)\s+(\d+)$")


def parse_problem(text: str) -> Problem:
    """Parse a stanza problem description into a Problem."""
    ring = None
    custom: Optional[RingPresentation] = None
    q1: Dict[Tuple[int, int], str] = {}
    q2: Dict[Tuple[int, int], str] = {}
    gen_specs: List[Tuple[str, int]] = []
    weight_specs: List[Tuple[str, int]] = []
    order_kind = "grevlex"
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError("expected 'key: value'", lineno, 0)
        key, _sep, value = stripped.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "ring":
            parsed, is_custom = _parse_ring_header(value, lineno)
            if is_custom:
                custom = parsed
            else:
                ring = parsed
        elif _Q_RE.match(key):
            which, i, j = _Q_RE.match(key).groups()
            if custom is None:
                raise ParseError("relation line outside a custom ring", lineno, 0)
            target = q1 if which == "1" else q2
            target[(int(i), int(j))] = (value, lineno)
        elif key == "ideal":
            for chunk in value.split(";"):
                chunk = chunk.strip()
                if chunk:
                    gen_specs.append((chunk, lineno))
        elif key == "weight":
            weight_specs.append((value, lineno))
        elif key == "order":
            if value not in KINDS:
                raise ParseError(f"unknown order kind {value!r}", lineno, 0)
            order_kind = value
        else:
            raise ParseError(f"unknown stanza {key!r}", lineno, 0)
    if ring is None and custom is None:
        raise ParseError("missing ring stanza", 0, 0)
    if custom is not None:
        ring = _build_custom(custom, q1, q2)
    generators = [parse_expression(ring, spec, lineno) for spec, lineno in gen_specs]
    weights = [parse_weight(ring, spec, lineno) for spec, lineno in weight_specs]
    return Problem(ring, generators, weights, order_kind)


def _build_custom(scratch, q1_specs, q2_specs) -> RingPresentation:
    m, n = scratch.m, scratch.n
    q1 = {}
    for (i, j), (spec, lineno) in q1_specs.items():
        if not (1 <= i <= n and 1 <= j <= m):
            raise ParseError(f"q1 index ({i}, {j}) out of range 1..{n} x 1..{m}", lineno, 0)
        poly = parse_expression(scratch, spec, lineno)
        for (_a, b) in poly.terms:
            if any(b):
                raise ParseError("q1 entries must involve only x variables", lineno, 0)
        q1[(i, j)] = {a: c for (a, _b), c in poly.terms.items()}
    q2 = {}
    for (i, j), (spec, lineno) in q2_specs.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"q2 index ({i}, {j}) out of range 1..{n} x 1..{n}", lineno, 0)
        poly = parse_expression(scratch, spec, lineno)
        for (_a, b) in poly.terms:
            if sum(b) > 1:
                raise ParseError("q2 entries must have y-degree at most 1", lineno, 0)
        q2[(i, j)] = dict(poly.terms)
    ring = RingPresentation(m, n, q1=q1, q2=q2, name=f"custom({m},{n})")
    if not validate_presentation(ring):
        raise ParseError("custom relations give a non-associative product")
    return ring


def parse_problem_file(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())
