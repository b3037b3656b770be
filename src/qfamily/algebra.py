"""Exact symbolic algebra for two-party information resources.

Six resource kinds (classical bits, qubit channels, ebits, coherent bits,
noisy states, noisy channels) with entropic-expression coefficients form
linear resource vectors, and a pair of vectors plus a mode forms a resource
inequality: the statement that the left side can simulate the right side,
either exactly or asymptotically, with its trace of `DerivationStep`s.

Coefficients live in a four-dimensional rational space spanned by
{1, H(A), H(B), H(E)}, the independent one-party entropies of a tripartite
pure state.  All derived quantities (two-party entropies, mutual
informations, coherent information) are eliminated at construction using
the pure-state relations H(AB)=H(E), H(AE)=H(B), H(BE)=H(A), H(ABE)=0,
which makes identities such as

    1/2 I(A:B) + 1/2 I(A:E) = H(A)
    1/2 I(A:B) - 1/2 I(A:E) = Ic(A>B)

hold by construction.  An `EntropicExpr` stores its coefficients in the
fixed slot order (1, H(A), H(B), H(E)) as four integer numerators over one
positive denominator, gcd-reduced, so the form is unique: equality is tuple
equality, arithmetic runs on integers, and evaluation is one dot product.
Only this module relies on that layout; other modules read coefficients by
generator, as `Fraction`s (`coeff`) or reduced integer pairs (`as_pairs`).
Everything here is an immutable value with exact rational arithmetic; no
floats enter the symbolic layer.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple, Union


class AlgebraError(ValueError):
    """Invalid construction or arithmetic in the resource algebra."""


class SymbolError(AlgebraError):
    """An entropic symbol outside the supported raw vocabulary."""


class LinearityError(AlgebraError):
    """Product of two non-constant entropic expressions."""


RationalLike = Union[int, Fraction, str]

# The one text spelling of an exact rational: "p" or "p/q", ASCII digits, an
# optional leading '-' and q > 0.
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def rational_from_text(text: str) -> tuple[int, int]:
    """The pair (p, q) that a "p" or "p/q" spelling names, else an AlgebraError."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        raise AlgebraError(f'{text!r} is not a rational "p" or "p/q" with q > 0')
    try:
        return int(match[1]), int(match[2] or 1)
    except ValueError:  # more digits than `int` reads from text
        raise AlgebraError(f"rational {text[:12]}... of {len(text)} characters "
                           f"exceeds the integer digit limit") from None


def _as_pair(x: RationalLike) -> tuple[int, int]:
    """An exact rational as (numerator, positive denominator); floats are
    rejected to keep the layer exact, and a string must be "p" or "p/q"."""
    if isinstance(x, bool) or isinstance(x, float):
        raise AlgebraError(f"symbolic coefficients must be exact rationals, got {x!r}")
    if isinstance(x, str):
        return rational_from_text(x)
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    raise AlgebraError(f"cannot interpret {x!r} as a rational")


class Gen(Enum):
    """Canonical generators of the entropic coefficient space."""

    CONST = "CONST"
    H_A = "H_A"
    H_B = "H_B"
    H_E = "H_E"

    __hash__ = object.__hash__  # identity, as for `ResourceTag`


# Slot order of an expression's four numerators.
_GENS = tuple(Gen)
_ZERO_KEY = (0, 0, 0, 0, 1)


def _norm(c: int, a: int, b: int, e: int, d: int) -> tuple:
    """The key of (c + a*H(A) + b*H(B) + e*H(E)) / d, for any d != 0."""
    g = gcd(c, a, b, e, d) if d > 0 else -gcd(c, a, b, e, d)
    return c // g, a // g, b // g, e // g, d // g


def _scaled(x: tuple, p: int, q: int) -> tuple:
    """The key of x * p/q, for q != 0."""
    c, a, b, e, d = x
    return _norm(c * p, a * p, b * p, e * p, d * q)


class Record:
    """A frozen dataclass with the fields `_fields`, written out: the subclass's
    `__init__` sets them into `__dict__`, and pickle and deepcopy copy them.
    Classes on hot paths write out their own `__eq__` and `__hash__`."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _kept(self, slot: str, compute):
        """compute(), made on the first call and kept in `slot` of this
        record.  It cannot go stale, as no field can be reassigned.  It is
        no field, so ==, hash, repr, pickle and deepcopy do not see it."""
        kept = vars(self)
        if slot not in kept:
            kept[slot] = compute()
        return kept[slot]

    def __getstate__(self) -> dict:
        """The fields alone: what `_kept` holds is not copied."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def _built(cls, value):
    """An instance of the one-field record `cls` holding `value` as is: how
    arithmetic builds results whose field is already in normal form (an
    expression's key, or normalized terms), skipping the coercion."""
    built = object.__new__(cls)
    object.__setattr__(built, cls._fields[0], value)
    return built


class EntropicExpr(Record):
    """Rational linear combination of {1, H(A), H(B), H(E)}.

    Built from four exact rationals, the coefficients of 1, H(A), H(B) and
    H(E) in that order, and kept in `_key` as integer numerators over one
    positive denominator, (c, a, b, e, d) reduced by their gcd: equal
    expressions have equal keys, and zero is (0, 0, 0, 0, 1).  Other modules
    read coefficients by generator (`coeff`, `as_pairs`).
    """

    _fields = ("_key",)

    def __init__(self, coeffs: Tuple[RationalLike, ...] = (0, 0, 0, 0)):
        if not isinstance(coeffs, tuple) or len(coeffs) != 4:
            raise AlgebraError(f"an entropic expression has four slots, got {coeffs!r}")
        built = EntropicExpr.from_pairs(dict(zip(_GENS, map(_as_pair, coeffs))))
        object.__setattr__(self, "_key", built._key)

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self._key,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Mapping[Gen, tuple[int, int]]) -> "EntropicExpr":
        """The inverse of `as_pairs`, for any nonzero denominators; absent generators are 0."""
        c, a, b, e = [pairs.get(gen, (0, 1)) for gen in _GENS]
        d = lcm(c[1], a[1], b[1], e[1])
        return _built(EntropicExpr, _norm(c[0] * (d // c[1]), a[0] * (d // a[1]),
                                          b[0] * (d // b[1]), e[0] * (d // e[1]), d))

    # -- inspection --------------------------------------------------------

    def coeff(self, gen: Gen) -> Fraction:
        return Fraction(self._key[_GENS.index(gen)], self._key[4])

    def as_pairs(self) -> dict[Gen, tuple[int, int]]:
        """The nonzero coefficients as reduced (numerator, denominator), in slot order."""
        d = self._key[4]
        return {gen: (p // gcd(p, d), d // gcd(p, d)) for gen, p in zip(_GENS, self._key) if p}

    @property
    def is_zero(self) -> bool:
        return self._key == _ZERO_KEY

    def as_constant(self) -> Fraction | None:
        """The value if this expression is a pure constant, else None."""
        c, a, b, e, d = self._key
        return None if a or b or e else Fraction(c, d)

    def is_definitely_negative(self) -> bool:
        """True when the expression is nonzero and <= 0 on every state.

        On pure states of ABE, H(A) <= H(B) + H(E) and its two permutations
        hold (Araki-Lieb), and the entropy triples (H(A), H(B), H(E)) fill,
        up to closure, the cone these cut out, with extreme rays (1,1,0),
        (1,0,1) and (0,1,1).  So c + a*H(A) + b*H(B) + e*H(E) is <= 0 on
        every state exactly when c, a + b, a + e and b + e are all <= 0:
        -I(A:B) is flagged, the coherent information is not.
        """
        c, a, b, e, _ = self._key
        return self._key != _ZERO_KEY and max(c, a + b, a + e, b + e) <= 0

    # -- arithmetic (module over the rationals) ----------------------------

    def __add__(self, other: "EntropicExpr") -> "EntropicExpr":
        if not isinstance(other, EntropicExpr):
            return NotImplemented
        (c, a, b, e, d), (c2, a2, b2, e2, d2) = self._key, other._key
        return _built(EntropicExpr, _norm(c * d2 + c2 * d, a * d2 + a2 * d, b * d2 + b2 * d,
                                          e * d2 + e2 * d, d * d2))

    def __sub__(self, other: "EntropicExpr") -> "EntropicExpr":
        if not isinstance(other, EntropicExpr):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "EntropicExpr":
        return _built(EntropicExpr, _scaled(self._key, -1, 1))

    def __mul__(self, other) -> "EntropicExpr":
        if isinstance(other, EntropicExpr):
            if any(other._key[1:4]):
                if any(self._key[1:4]):
                    raise LinearityError(
                        "product of two non-constant entropic expressions; "
                        "the calculus is linear"
                    )
                return other * self
            return _built(EntropicExpr, _scaled(self._key, other._key[0], other._key[4]))
        return _built(EntropicExpr, _scaled(self._key, *_as_pair(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "EntropicExpr":
        p, q = _as_pair(other)
        if not p:
            raise ZeroDivisionError("entropic expression divided by zero")
        return _built(EntropicExpr, _scaled(self._key, q, p))

    def value(self, h_a: float, h_b: float, h_e: float) -> float:
        """Numeric value given the three one-party entropies (in bits)."""
        c, a, b, e, d = self._key
        return c / d + a / d * h_a + b / d * h_b + e / d * h_e

    def __str__(self) -> str:
        from . import grammar

        return grammar.format_expr(self)


ZERO = EntropicExpr()

# The raw vocabulary, the one list of entropic spellings: each symbol's
# canonical expansion.  The two-party entropies collapse via purity of
# |psi>^ABE; information quantities expand by definition.  `grammar` spells
# each expansion by its first symbol here.
SYMBOLS: Mapping[str, EntropicExpr] = MappingProxyType({
    "1": EntropicExpr((1, 0, 0, 0)),
    "CONST": EntropicExpr((1, 0, 0, 0)),
    "H(A)": EntropicExpr((0, 1, 0, 0)),
    "H(B)": EntropicExpr((0, 0, 1, 0)),
    "H(E)": EntropicExpr((0, 0, 0, 1)),
    "H(AB)": EntropicExpr((0, 0, 0, 1)),
    "H(AE)": EntropicExpr((0, 0, 1, 0)),
    "H(BE)": EntropicExpr((0, 1, 0, 0)),
    "H(ABE)": EntropicExpr((0, 0, 0, 0)),
    "I(A:B)": EntropicExpr((0, 1, 1, -1)),
    "I(A:E)": EntropicExpr((0, 1, -1, 1)),
    "Ic(A>B)": EntropicExpr((0, 0, 1, -1)),
})


def canonicalize(raw: Union["EntropicExpr", Mapping[str, RationalLike]]) -> EntropicExpr:
    """Project a raw entropic expression onto the canonical generator set.

    `raw` maps symbol names of `SYMBOLS` (';' is accepted for ':') to
    rational coefficients.  Canonical expressions pass through unchanged,
    making the map idempotent.
    """
    if isinstance(raw, EntropicExpr):
        return raw
    total = ZERO
    for symbol, coeff in raw.items():
        name = symbol.replace(";", ":").replace(" ", "")
        if name not in SYMBOLS:
            raise SymbolError(f"unknown entropic symbol: {symbol!r}")
        total = total + _built(EntropicExpr, _scaled(SYMBOLS[name]._key, *_as_pair(coeff)))
    return total


H_A, H_B, H_E = SYMBOLS["H(A)"], SYMBOLS["H(B)"], SYMBOLS["H(E)"]
I_AB, I_AE, I_COH = SYMBOLS["I(A:B)"], SYMBOLS["I(A:E)"], SYMBOLS["Ic(A>B)"]
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Resource kinds
# ---------------------------------------------------------------------------


class ResourceTag(Enum):
    CBIT = "[c->c]"
    QUBIT_CHANNEL = "[q->q]"
    EBIT = "[qq]"
    COBIT = "[q->qq]"
    NOISY_STATE = "{qq}"
    NOISY_CHANNEL = "{q->q}"

    # Members are singletons compared by identity, so the identity hash
    # agrees with `==` and, unlike Enum's, runs in C.
    __hash__ = object.__hash__


_TAG_ORDER = {tag: i for i, tag in enumerate(ResourceTag)}
_NOISY_TAGS = frozenset({ResourceTag.NOISY_STATE, ResourceTag.NOISY_CHANNEL})
_DUAL_TAG = {
    ResourceTag.CBIT: ResourceTag.CBIT,
    ResourceTag.COBIT: ResourceTag.COBIT,
    ResourceTag.EBIT: ResourceTag.QUBIT_CHANNEL,
    ResourceTag.QUBIT_CHANNEL: ResourceTag.EBIT,
    ResourceTag.NOISY_STATE: ResourceTag.NOISY_CHANNEL,
    ResourceTag.NOISY_CHANNEL: ResourceTag.NOISY_STATE,
}


class ResourceKind:
    """One of the six resource kinds; noisy kinds may carry an object handle.

    Handles are opaque names resolved against a concrete state/channel
    registry only at numeric-evaluation time.  Kinds are interned, one
    immutable instance per (tag, handle), so they compare and hash by
    identity, like `ResourceTag`.
    """

    __slots__ = ("tag", "handle", "token", "is_noisy", "sort_key")

    def __new__(cls, tag: ResourceTag, handle: str | None = None):
        kind = _KINDS.get((tag, handle))
        if kind is None:
            if handle is not None and tag not in _NOISY_TAGS:
                raise AlgebraError(f"{tag.value} cannot carry a handle")
            kind = _KINDS[tag, handle] = object.__new__(cls)
            token = tag.value if handle is None else f"{tag.value[:-1]}:{handle}{tag.value[-1]}"
            for name, value in zip(cls.__slots__, (tag, handle, token, tag in _NOISY_TAGS,
                                                   (_TAG_ORDER[tag], handle or ""))):
                object.__setattr__(kind, name, value)
        return kind

    def __setattr__(self, name, value):
        raise AttributeError(f"resource kinds are immutable; cannot set {name!r}")

    def __reduce__(self):
        return ResourceKind, (self.tag, self.handle)

    def __repr__(self) -> str:
        return f"ResourceKind({self.tag}, {self.handle!r})"

    def __str__(self) -> str:
        return self.token


_KINDS: dict[tuple[ResourceTag, str | None], ResourceKind] = {}


CBIT = ResourceKind(ResourceTag.CBIT)
QUBIT_CHANNEL = ResourceKind(ResourceTag.QUBIT_CHANNEL)
EBIT = ResourceKind(ResourceTag.EBIT)
COBIT = ResourceKind(ResourceTag.COBIT)
NOISY_STATE = ResourceKind(ResourceTag.NOISY_STATE)
NOISY_CHANNEL = ResourceKind(ResourceTag.NOISY_CHANNEL)


# ---------------------------------------------------------------------------
# Resource vectors
# ---------------------------------------------------------------------------

CoeffLike = Union[EntropicExpr, RationalLike]


def as_expr(value: CoeffLike) -> EntropicExpr:
    if isinstance(value, EntropicExpr):
        return value
    return EntropicExpr((value, 0, 0, 0))


class ResourceVector(Record):
    """Formal linear combination of resource kinds with entropic coefficients.

    Normalized: zero terms dropped, terms in canonical kind order.  Noisy
    kinds count whole protocol copies and must carry nonnegative integer
    coefficients; noiseless coefficients are arbitrary entropic expressions.
    """

    _fields = ("terms",)

    def __init__(self, terms: Tuple[Tuple[ResourceKind, EntropicExpr], ...] = ()):
        object.__setattr__(self, "terms", _merged({}, ((k, as_expr(c)) for k, c in terms)))

    def __eq__(self, other):
        return self.terms == other.terms if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.terms,))

    def coeff(self, kind: ResourceKind) -> EntropicExpr:
        for k, v in self.terms:
            if k == kind:
                return v
        return ZERO

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return _built(ResourceVector, _merged(dict(self.terms), other.terms))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Termwise difference; like `+`, terms merge before the noisy counts
        are validated, so taking copies a side does not hold raises."""
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return _built(ResourceVector, _merged(dict(self.terms), ((k, -c) for k, c in other.terms)))

    def scale(self, k: CoeffLike) -> "ResourceVector":
        """Multiply every coefficient by k (rational, or entropic when no
        noisy resources are present — whole copies cannot be fractional)."""
        k = as_expr(k)
        if any(k._key[1:4]) and any(kind.is_noisy for kind, _ in self.terms):
            raise AlgebraError(
                "scaling a vector with noisy resources requires a rational "
                "constant; entropic multiples of whole copies are undefined"
            )
        return _built(ResourceVector, _merged({}, ((kind, coeff * k) for kind, coeff in self.terms)))

    def __str__(self) -> str:
        from . import grammar

        return grammar.format_vector(self)


def _merged(merged: dict, terms: Iterable) -> tuple:
    """Normal form of `merged` plus `terms`, every coefficient an
    expression: nonzero terms in kind order, once the noisy counts are
    checked in merge order, so an error names the first bad term met.
    Kinds hash by identity, and sums of expressions need no coercion."""
    for kind, coeff in terms:
        merged[kind] = merged[kind] + coeff if kind in merged else coeff
    for kind, coeff in merged.items():
        if kind.is_noisy:
            c, a, b, e, d = coeff._key
            if a or b or e or d != 1 or c < 0:
                raise AlgebraError(
                    f"noisy resource {kind.token} requires a nonnegative "
                    f"integer coefficient, got {coeff}"
                )
    return tuple(sorted((term for term in merged.items() if term[1]._key != _ZERO_KEY),
                        key=lambda term: term[0].sort_key))


def vec(coeff: CoeffLike, kind: ResourceKind) -> ResourceVector:
    """Single-term vector, e.g. vec(2, CBIT) for 2 [c->c]."""
    return ResourceVector(((kind, as_expr(coeff)),))


# ---------------------------------------------------------------------------
# Resource inequalities
# ---------------------------------------------------------------------------


class Mode(Enum):
    EXACT = "exact"          # '>=!': single-shot, zero-error simulation
    ASYMPTOTIC = "asymptotic"  # '>=': vanishing trace-distance error per copy

    __hash__ = object.__hash__  # identity, as for `ResourceTag`


class RuleFlags(Record):
    """Certifications supplied per protocol, never inferred.

    rule_I_ok: some implementing protocol has its classical message almost
    uniformly distributed and almost decoupled at the end (the uniformity
    condition may be relaxed to n^-1 log p_x ~ const for n-letter protocols;
    that refinement is documentation only and not modeled here).
    rule_O_ok: some implementing protocol leaves the classical message
    almost decoupled from the remaining quantum system (private output).
    """

    _fields = ("rule_I_ok", "rule_O_ok")

    def __init__(self, rule_I_ok: bool = False, rule_O_ok: bool = False):
        if type(rule_I_ok) is not bool or type(rule_O_ok) is not bool:
            raise AlgebraError(f"rule flags must be bools, got rule_I_ok={rule_I_ok!r}, rule_O_ok={rule_O_ok!r}")
        vars(self).update(rule_I_ok=rule_I_ok, rule_O_ok=rule_O_ok)


class ResourceInequality(Record):
    """lhs >= rhs (asymptotic) or lhs >=! rhs (exact): inputs simulate outputs."""

    _fields = ("name", "lhs", "rhs", "mode", "flags", "trace")

    def __init__(self, name: str, lhs: ResourceVector, rhs: ResourceVector,
                 mode: Mode = Mode.ASYMPTOTIC, flags: RuleFlags = RuleFlags(),
                 trace: Tuple[DerivationStep, ...] = ()):  # empty for primitives
        vars(self).update(name=name, lhs=lhs, rhs=rhs, mode=mode, flags=flags, trace=trace)

    def same_statement(self, other: "ResourceInequality") -> bool:
        """Equality of the mathematical statement, ignoring name/flags/trace."""
        return (
            self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.mode == other.mode
        )

    def bare(self) -> "ResourceInequality":
        """Copy without its trace (used for snapshots inside traces)."""
        return ResourceInequality(self.name, self.lhs, self.rhs, self.mode, self.flags)

    def with_name(self, name: str) -> "ResourceInequality":
        return ResourceInequality(name, self.lhs, self.rhs, self.mode, self.flags, self.trace)

    def with_flags(self, rule_I_ok: bool = False, rule_O_ok: bool = False) -> "ResourceInequality":
        return ResourceInequality(self.name, self.lhs, self.rhs, self.mode,
                                  RuleFlags(rule_I_ok, rule_O_ok), self.trace)

    def __str__(self) -> str:
        from . import grammar

        return grammar.format_ri(self)


class StepKind(Enum):
    APPEND = "APPEND"
    PREPEND = "PREPEND"
    CANCEL = "CANCEL"
    RULE_I = "RULE_I"
    RULE_O = "RULE_O"
    APPLY_QE_FRACTION = "APPLY_QE_FRACTION"
    WASTE = "WASTE"

    __hash__ = object.__hash__  # identity, as for `ResourceTag`


class DerivationStep(Record):
    """One rewrite: `after` is obtained from `before` by the named operation.

    `tool` identifies what was used: a primitive's name for APPEND/PREPEND/
    APPLY_QE_FRACTION, a resource token for CANCEL, a vector in grammar text
    for WASTE, and "" for the rules.  `before`/`after` are trace-free
    snapshots, so replaying a trace reproduces the stored inequality.
    """

    _fields = ("kind", "tool", "multiplier", "before", "after")

    def __init__(self, kind: StepKind, tool: str, multiplier: EntropicExpr,
                 before: ResourceInequality, after: ResourceInequality):
        vars(self).update(kind=kind, tool=tool, multiplier=multiplier, before=before, after=after)


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dual(x):
    """Static/dynamic duality: swaps [qq] <-> [q->q] and {qq} <-> {q->q},
    fixes [c->c] and [q->qq].  Involutive; applies termwise to vectors and
    sidewise to inequalities (mode and flags carried along)."""
    if isinstance(x, ResourceKind):
        return ResourceKind(_DUAL_TAG[x.tag], x.handle)
    if isinstance(x, ResourceVector):
        return ResourceVector(tuple((dual(k), v) for k, v in x.terms))
    if isinstance(x, ResourceInequality):
        name = x.name[5:-1] if x.name.startswith("dual(") and x.name.endswith(")") else f"dual({x.name})"
        return ResourceInequality(
            name=name,
            lhs=dual(x.lhs),
            rhs=dual(x.rhs),
            mode=x.mode,
            flags=x.flags,
        )
    raise AlgebraError(f"dual is not defined for {type(x).__name__}")
