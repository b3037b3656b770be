"""`EntropicExpr`'s integer normal form against four-`Fraction` arithmetic.

An expression keeps its coefficients as four integer numerators over one
positive denominator, reduced by their common gcd.  The reference here is
the arithmetic that form replaced: four `Fraction` slots in the order
(1, H(A), H(B), H(E)), combined slot by slot and evaluated as
``float(c) + float(a)*h_a + float(b)*h_b + float(e)*h_e``.  Random
arithmetic and random rewrite scripts must keep every key normalized, agree
with the reference value for value, and round-trip through JSON and text.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import EntropicExpr, Gen, LinearityError, canonicalize
from qfamily.derivation import DerivationError
from qfamily.grammar import (
    expr_from_json,
    expr_to_json,
    format_expr,
    format_ri,
    parse_expr,
    parse_ri,
    ri_from_json,
    ri_to_json,
)
from test_derivation import SCRIPT_STEPS, STARTS, _run_step

ZERO_KEY = (0, 0, 0, 0, 1)


class Slots:
    """The reference: four `Fraction`s, combined slot by slot."""

    def __init__(self, slots):
        self.slots = tuple(map(Fraction, slots))

    def __add__(self, other):
        return Slots(a + b for a, b in zip(self.slots, other.slots))

    def __sub__(self, other):
        return Slots(a - b for a, b in zip(self.slots, other.slots))

    def __neg__(self):
        return Slots(-a for a in self.slots)

    def scaled(self, r):
        return Slots(a * r for a in self.slots)

    def constant(self):
        return None if any(self.slots[1:]) else self.slots[0]

    def value(self, h_a, h_b, h_e):
        c, a, b, e = self.slots
        return float(c) + float(a) * h_a + float(b) * h_b + float(e) * h_e

    def as_dict(self):
        return {gen: c for gen, c in zip(Gen, self.slots) if c}


def assert_normal(expr: EntropicExpr, ref: Slots):
    """The key is gcd-reduced over a positive denominator, zero has one
    spelling, and every reading of the expression is the reference's."""
    key = expr._key
    assert len(key) == 5 and all(type(n) is int for n in key), key
    assert key[4] > 0 and math.gcd(*key) == 1, key
    assert (key == ZERO_KEY) == (not any(ref.slots)) == expr.is_zero
    assert tuple(Fraction(n, key[4]) for n in key[:4]) == ref.slots
    assert tuple(expr.coeff(gen) for gen in Gen) == ref.slots
    assert {gen: Fraction(*pair) for gen, pair in expr.as_pairs().items()} == ref.as_dict()
    assert expr.as_constant() == ref.constant()
    assert expr.is_definitely_negative() == (max(ref.slots) <= 0 and min(ref.slots) < 0)


def assert_round_trips(expr: EntropicExpr, ref: Slots):
    wire = expr_to_json(expr)
    assert wire == {gen.value: str(c) for gen, c in ref.as_dict().items()}
    assert expr_from_json(json.loads(json.dumps(wire))) == expr
    assert parse_expr(format_expr(expr)) == expr


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
large = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
rationals = st.one_of(small, small, large)
slots = st.tuples(*[st.one_of(st.just(Fraction(0)), rationals)] * 4)
scalars = st.one_of(rationals, st.integers(-4, 4), rationals.map(str))
entropies = st.floats(min_value=-50, max_value=50, allow_nan=False)
# An op makes a new expression from earlier ones, picked by index modulo
# the pool size; `rescale` and `return` reach equal values by other routes.
ops = st.one_of(
    st.tuples(st.sampled_from(["add", "sub", "return"]), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("neg"), st.integers(0, 99), st.none()),
    st.tuples(st.sampled_from(["mul", "rmul", "div", "rescale"]), st.integers(0, 99), scalars),
    st.tuples(st.just("product"), st.integers(0, 99), st.integers(0, 99)),
)


def _apply(op, pool):
    name, i, j = op
    x, rx = pool[i % len(pool)]
    if name in ("add", "sub", "return", "product"):
        y, ry = pool[j % len(pool)]
    if name == "add":
        return x + y, rx + ry
    if name == "sub":
        return x - y, rx - ry
    if name == "return":
        return (x + y) - y, rx
    if name == "neg":
        return -x, -rx
    r = Fraction(j)
    if name == "mul":
        return x * j, rx.scaled(r)
    if name == "rmul":
        return j * x, rx.scaled(r)
    if name in ("div", "rescale"):
        if not r:
            with pytest.raises(ZeroDivisionError):
                x / j
            return None
        if name == "div":
            return x / j, rx.scaled(1 / r)
        return (x * j) / j, rx
    # product: defined when one side is constant
    if rx.constant() is None and ry.constant() is None:
        with pytest.raises(LinearityError):
            x * y
        return None
    return x * y, (ry.scaled(rx.constant()) if rx.constant() is not None else rx.scaled(ry.constant()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(slots, min_size=1, max_size=4), st.lists(ops, max_size=12), entropies, entropies, entropies)
def test_random_arithmetic_matches_the_fraction_reference(starts, program, h_a, h_b, h_e):
    pool = [(EntropicExpr(s), Slots(s)) for s in starts]
    for op in program:
        made = _apply(op, pool)
        if made is not None:
            pool.append(made)
    for expr, ref in pool:
        assert_normal(expr, ref)
        assert_round_trips(expr, ref)
        assert expr.value(h_a, h_b, h_e).hex() == ref.value(h_a, h_b, h_e).hex()
    for x, rx in pool:
        for y, ry in pool:
            assert (x == y) == (rx.slots == ry.slots)
            if x == y:
                assert hash(x) == hash(y)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(["1", "H(A)", "H(AB)", "H(ABE)", "I(A:B)", "I(A;E)", "Ic(A>B)"]),
                       rationals, max_size=5))
def test_canonical_expansions_are_normal(raw):
    expr = canonicalize(raw)
    ref = Slots((0, 0, 0, 0))
    for symbol, c in raw.items():
        ref = ref + Slots(canonicalize({symbol: 1}).coeff(gen) for gen in Gen).scaled(c)
    assert_normal(expr, ref)
    assert_round_trips(expr, ref)


def _coefficients(ri):
    for side in (ri.lhs, ri.rhs):
        for _, coeff in side.terms:
            yield coeff


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(sorted(STARTS)), st.lists(SCRIPT_STEPS, max_size=6))
def test_random_rewrite_scripts_keep_every_coefficient_normal(start, script):
    ri = STARTS[start]
    for step in script:
        try:
            ri = _run_step(ri, step)
        except DerivationError:
            continue
    exprs = list(_coefficients(ri))
    for step in ri.trace:
        exprs += [step.multiplier, *_coefficients(step.before), *_coefficients(step.after)]
    for expr in exprs:
        assert_normal(expr, Slots(expr.coeff(gen) for gen in Gen))
        assert_round_trips(expr, Slots(expr.coeff(gen) for gen in Gen))
    wired = ri_from_json(json.loads(json.dumps(ri_to_json(ri))))
    assert wired.same_statement(ri) and wired.trace == ri.trace
    assert parse_ri(format_ri(ri)).same_statement(ri)


def test_the_constructor_coerces_every_exact_spelling_to_one_key():
    half = EntropicExpr((Fraction(1, 2), Fraction(-1, 2), 4, 0))
    assert EntropicExpr(("3/6", Fraction(-2, 4), 4, 0)) == half
    assert half._key == (1, -1, 8, 0, 2)
    assert EntropicExpr.from_pairs({Gen.CONST: (-3, -6), Gen.H_A: (2, -4), Gen.H_B: (8, 2)}) == half
    assert EntropicExpr((0, 0, 0, 0))._key == ZERO_KEY


def test_expressions_are_immutable_and_pickle():
    import copy
    import pickle

    expr = EntropicExpr((1, Fraction(-3, 4), 0, 2))
    with pytest.raises(AttributeError):
        expr._key = ZERO_KEY
    assert pickle.loads(pickle.dumps(expr)) == expr and copy.deepcopy(expr) == expr
