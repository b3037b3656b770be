"""Text grammar and JSON wire format for resource inequalities.

ASCII grammar::

    ri          :=  vector ('>=' | '>=!') vector        # '>=!' is exact
    vector      :=  term ('+' term)*
    term        :=  [coefficient] resource
    resource    :=  '[c->c]' | '[q->q]' | '[qq]' | '[q->qq]'
                  | '{qq}' | '{q->q}' | '{qq:NAME}' | '{q->q:NAME}'
    coefficient :=  atom | '(' signed_sum ')'
    signed_sum  :=  ['-'] atom (('+' | '-') atom)*
    atom        :=  rational | [rational '*'] symbol
    symbol      :=  'H(A)' | 'H(B)' | 'H(E)' | 'H(AB)' | 'H(AE)' | 'H(BE)'
                  | 'H(ABE)' | 'I(A:B)' | 'I(A:E)' | 'Ic(A>B)'
    rational    :=  INT | INT '/' INT

so e.g. ``1/2*I(A:E) [q->q] + {qq} >= 1/2*I(A:B) [qq]``; parentheses never
nest.  `parse_expr` reads a signed sum of coefficients.  Formatting picks
the shortest faithful spelling (a named symbol when the expression is a
rational multiple of one, a parenthesized signed sum otherwise) so that
``parse_ri(format_ri(ri))`` reproduces the statement exactly.

JSON format for an inequality, the whole wire format, traces included::

    {"name": str, "mode": "exact"|"asymptotic",
     "lhs": [{"kind": "[q->q]", "coeff": {"H_A": "1/2", ...}}, ...],
     "rhs": [...],
     "flags": {"rule_I_ok": bool, "rule_O_ok": bool},
     "trace": [{"kind": "APPEND", "tool": str, "multiplier": {...},
                "before": {...}, "after": {...}}, ...]}

A coefficient maps the generators CONST, H_A, H_B, H_E to rationals spelled
"p" or "p/q": ASCII digits, an optional leading '-', a nonzero denominator.
A trace entry is one `DerivationStep`: a `StepKind` value, its tool and
multiplier, and the inequality before and after it, each without a trace.
Only "trace" may be absent, and any other input raises `ParseError`.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from math import gcd
from typing import Iterator, NamedTuple

from .algebra import (
    AlgebraError,
    DerivationStep,
    EntropicExpr,
    Gen,
    Mode,
    ResourceInequality,
    ResourceKind,
    ResourceTag,
    ResourceVector,
    RuleFlags,
    SYMBOLS,
    StepKind,
    ZERO,
    canonicalize,
    rational_from_text,
)


class ParseError(ValueError):
    """Syntax or vocabulary error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

# Each distinct expansion in `SYMBOLS`, spelled by its first symbol there, in table order.
_SPELLINGS: dict[EntropicExpr, str] = {}
for _symbol, _expr in SYMBOLS.items():
    _SPELLINGS.setdefault(_expr, _symbol)
# Named spellings, tried in table order: H(A), H(B), H(E), I(A:B), I(A:E),
# Ic(A>B); each with its coefficients as `as_pairs` gives them.
_NAMED_EXPRS = [(name, expr.as_pairs()) for expr, name in _SPELLINGS.items()
                if expr.as_constant() is None]
_GEN_NAMES = {gen: _SPELLINGS[EntropicExpr.from_pairs({gen: (1, 1)})] for gen in Gen}


def format_rational(value: tuple[int, int]) -> str:
    """A reduced (numerator, positive denominator) as "p" or "p/q"."""
    p, q = value
    return str(p) if q == 1 else f"{p}/{q}"


def format_expr(expr: EntropicExpr) -> str:
    """Shortest faithful spelling of a canonical entropic expression.

    Negative-leading spellings are parenthesized so that terms always join
    with '+' in vector context.
    """
    pairs = expr.as_pairs()
    if not pairs:
        return "0"
    constant = pairs.get(Gen.CONST) if len(pairs) == 1 else None
    if constant is not None:
        text = format_rational(constant)
        return text if constant[0] >= 0 else f"({text})"
    for name, base in _NAMED_EXPRS:
        ratio = _multiple_of(pairs, base)
        if ratio is not None:
            if ratio == (1, 1):
                return name
            text = f"{format_rational(ratio)}*{name}"
            return text if ratio[0] > 0 else f"({text})"
    parts: list[str] = []
    for gen, (p, q) in pairs.items():
        sign = "-" if p < 0 else "+"
        magnitude = (abs(p), q)
        if gen is Gen.CONST:
            body = format_rational(magnitude)
        elif magnitude == (1, 1):
            body = _GEN_NAMES[gen]
        else:
            body = f"{format_rational(magnitude)}*{_GEN_NAMES[gen]}"
        parts.append(f"{sign} {body}" if parts else (f"-{body}" if sign == "-" else body))
    return "(" + " ".join(parts) + ")"


def _multiple_of(pairs: dict, base: dict) -> tuple[int, int] | None:
    """The rational r with pairs == r*base, as a reduced pair, if one exists;
    both map generators to nonzero reduced pairs, as `as_pairs` gives them."""
    if pairs.keys() != base.keys():
        return None
    (p0, q0), (r0, s0) = next(zip(pairs.values(), base.values()))
    num, den = p0 * s0, q0 * r0  # r = (p0/q0) / (r0/s0)
    if any(p * s * den != num * q * r for (p, q), (r, s) in zip(pairs.values(), base.values())):
        return None
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def format_vector(vector: ResourceVector) -> str:
    if vector.is_empty:
        return "0"
    parts = []
    for kind, coeff in vector.terms:
        if coeff == SYMBOLS["1"]:
            parts.append(kind.token)
        else:
            parts.append(f"{format_expr(coeff)} {kind.token}")
    return " + ".join(parts)


def format_ri(ri: ResourceInequality) -> str:
    op = ">=!" if ri.mode is Mode.EXACT else ">="
    return f"{format_vector(ri.lhs)} {op} {format_vector(ri.rhs)}"


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


_RESOURCE_RE = re.compile(
    r"\[c->c\]|\[q->qq\]|\[q->q\]|\[qq\]"
    r"|\{qq(?::[A-Za-z_][\w.-]*)?\}|\{q->q(?::[A-Za-z_][\w.-]*)?\}"
)

# The entropies of `SYMBOLS` (no constant part), ':' also matching ';'.
# Every name ends in ')', so none is a prefix of another.
_SYMBOL_PATTERN = "|".join(re.escape(name).replace(":", "[:;]")
                           for name, expr in SYMBOLS.items() if not expr.coeff(Gen.CONST))

_TOKEN_RE = re.compile(
    rf"""
    (?P<WS>\s+)
  | (?P<RESOURCE>{_RESOURCE_RE.pattern})
  | (?P<SYMBOL>{_SYMBOL_PATTERN})
  | (?P<CMP>>=!|>=)
  | (?P<NUMBER>[0-9]+(?:/[0-9]+)?)
  | (?P<PLUS>\+)
  | (?P<MINUS>-)
  | (?P<STAR>\*)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
    """,
    re.VERBOSE,
)

_RESOURCE_BY_TOKEN = {tag.value: ResourceKind(tag) for tag in ResourceTag}


def resource_from_token(text: str) -> ResourceKind:
    """The resource kind that one token such as `[qq]` or `{qq:bell}` names."""
    if not (isinstance(text, str) and _RESOURCE_RE.fullmatch(text)):
        raise ParseError(f"unknown resource token {text!r}", 0)
    if text in _RESOURCE_BY_TOKEN:
        return _RESOURCE_BY_TOKEN[text]
    body, handle = text[1:-1].split(":", 1)
    tag = ResourceTag.NOISY_STATE if body == "qq" else ResourceTag.NOISY_CHANNEL
    return ResourceKind(tag, handle)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unrecognized input {text[pos:pos + 12]!r}", pos)
        kind = match.lastgroup
        if kind != "WS":
            yield _Token(kind, match.group(), pos)
        pos = match.end()
    yield _Token("EOF", "", len(text))


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(
                f"expected {kind}, found {self.current.text or 'end of input'!r}",
                self.current.position,
            )
        return self.advance()

    # coefficient := atom | '(' signed_sum ')'; inside parentheses, an atom only
    def parse_coefficient(self, in_parens: bool = False) -> EntropicExpr:
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            value = EntropicExpr.from_pairs({Gen.CONST: _rational(token.text, token.position)})
            if self.current.kind == "STAR":
                self.advance()
                symbol = self.expect("SYMBOL")
                return canonicalize({symbol.text: 1}) * value
            return value
        if token.kind == "SYMBOL":
            self.advance()
            return canonicalize({token.text: 1})
        if token.kind == "LPAREN":
            if in_parens:
                raise ParseError("nested parentheses", token.position)
            self.advance()
            expr = self.parse_signed_sum(in_parens=True)
            self.expect("RPAREN")
            return expr
        raise ParseError(f"expected a coefficient, found {token.text!r}", token.position)

    def parse_signed_sum(self, in_parens: bool = False) -> EntropicExpr:
        total = ZERO
        negative = self.current.kind == "MINUS"
        if negative:
            self.advance()
        while True:
            term = self.parse_coefficient(in_parens)
            total = total - term if negative else total + term
            if self.current.kind not in ("PLUS", "MINUS"):
                return total
            negative = self.advance().kind == "MINUS"

    # term := [coefficient] resource
    def parse_term(self) -> tuple[ResourceKind, EntropicExpr]:
        coeff = SYMBOLS["1"] if self.current.kind == "RESOURCE" else self.parse_coefficient()
        return resource_from_token(self.expect("RESOURCE").text), coeff

    def parse_vector(self, allow_zero: bool = True) -> ResourceVector:
        if allow_zero and self.current.kind == "NUMBER" and self.current.text == "0":
            lookahead = self.tokens[self.index + 1]
            if lookahead.kind in ("EOF", "CMP"):
                self.advance()
                return ResourceVector()
        terms = [self.parse_term()]
        while self.current.kind == "PLUS":
            self.advance()
            terms.append(self.parse_term())
        return ResourceVector(tuple(terms))

    def parse_ri(self, name: str) -> ResourceInequality:
        lhs = self.parse_vector()
        cmp_token = self.expect("CMP")
        if self.current.kind == "EOF":
            raise ParseError("empty right-hand side", self.current.position)
        rhs = self.parse_vector(allow_zero=False)
        self.expect("EOF")
        if rhs.is_empty:
            raise ParseError("empty right-hand side", cmp_token.position)
        mode = Mode.EXACT if cmp_token.text == ">=!" else Mode.ASYMPTOTIC
        return ResourceInequality(name=name, lhs=lhs, rhs=rhs, mode=mode)


def parse_expr(text: str) -> EntropicExpr:
    """Parse a coefficient expression such as '1/2*I(A:B) + H(E)'."""
    parser = _Parser(text)
    expr = parser.parse_signed_sum()
    parser.expect("EOF")
    return expr


def parse_vector(text: str) -> ResourceVector:
    parser = _Parser(text)
    vector = parser.parse_vector()
    parser.expect("EOF")
    return vector


def parse_ri(text: str, name: str = "parsed") -> ResourceInequality:
    """Parse 'lhs >= rhs' / 'lhs >=! rhs'.  Round-trips format_ri statements."""
    return _Parser(text).parse_ri(name)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def expr_to_json(expr: EntropicExpr) -> dict[str, str]:
    return {gen.value: format_rational(pair) for gen, pair in expr.as_pairs().items()}


@lru_cache(maxsize=1024)
def _rational(text: str, position: int) -> tuple[int, int]:
    """`rational_from_text` with a ParseError at `position`; parsed once per
    spelling."""
    try:
        return rational_from_text(text)
    except AlgebraError as exc:
        raise ParseError(str(exc), position) from None


def _field(data, key: str, kind: type):
    """`data[key]` of a JSON object, which must hold a `kind`, or for an enum
    `kind` the value of one of its members."""
    value = data.get(key) if isinstance(data, dict) else None
    if isinstance(value, kind):
        return value
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            pass
    raise ParseError(f"expected a {kind.__name__} at {key!r}, got {value!r}", 0)


def expr_from_json(data: dict) -> EntropicExpr:
    try:
        return EntropicExpr.from_pairs({Gen[key]: _rational(value, 0) for key, value in data.items()})
    except (KeyError, TypeError, ValueError):  # a key naming no generator, a value no "p"/"p/q" string
        raise ParseError(f"bad coefficient map {data!r}", 0) from None


def vector_to_json(vector: ResourceVector) -> list[dict]:
    return [{"kind": kind.token, "coeff": expr_to_json(coeff)} for kind, coeff in vector.terms]


def vector_from_json(data: list) -> ResourceVector:
    terms = [(resource_from_token(_field(entry, "kind", str)), expr_from_json(_field(entry, "coeff", dict)))
             for entry in data]
    try:
        return ResourceVector(tuple(terms))
    except AlgebraError as exc:
        raise ParseError(str(exc), 0) from None


def ri_to_json(ri: ResourceInequality, include_trace: bool = True) -> dict:
    data = {
        "name": ri.name,
        "mode": ri.mode.value,
        "lhs": vector_to_json(ri.lhs),
        "rhs": vector_to_json(ri.rhs),
        "flags": {"rule_I_ok": ri.flags.rule_I_ok, "rule_O_ok": ri.flags.rule_O_ok},
    }
    if include_trace:
        data["trace"] = [{"kind": step.kind.value, "tool": step.tool,
                          "multiplier": expr_to_json(step.multiplier),
                          "before": ri_to_json(step.before, include_trace=False),
                          "after": ri_to_json(step.after, include_trace=False)} for step in ri.trace]
    return data


def ri_from_json(data: dict) -> ResourceInequality:
    """The inequality `ri_to_json` wrote; any other input raises ParseError."""
    flags = _field(data, "flags", dict)
    steps = _field(data, "trace", list) if "trace" in data else []
    return ResourceInequality(
        name=_field(data, "name", str),
        lhs=vector_from_json(_field(data, "lhs", list)),
        rhs=vector_from_json(_field(data, "rhs", list)),
        mode=_field(data, "mode", Mode),
        flags=RuleFlags(_field(flags, "rule_I_ok", bool), _field(flags, "rule_O_ok", bool)),
        trace=tuple(DerivationStep(_field(step, "kind", StepKind), _field(step, "tool", str),
                                   expr_from_json(_field(step, "multiplier", dict)),
                                   ri_from_json(_field(step, "before", dict)),
                                   ri_from_json(_field(step, "after", dict))) for step in steps),
    )
