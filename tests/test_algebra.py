import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import (
    CBIT,
    COBIT,
    EBIT,
    AlgebraError,
    EntropicExpr,
    Gen,
    HALF,
    H_A,
    H_B,
    H_E,
    I_AB,
    I_AE,
    I_COH,
    LinearityError,
    NOISY_CHANNEL,
    NOISY_STATE,
    QUBIT_CHANNEL,
    ResourceKind,
    ResourceTag,
    ResourceVector,
    RuleFlags,
    SymbolError,
    as_expr,
    canonicalize,
    dual,
    vec,
)
from qfamily.derivation import PRIMITIVES

RAW_SYMBOLS = [
    "1", "H(A)", "H(B)", "H(E)", "H(AB)", "H(AE)", "H(BE)", "H(ABE)",
    "I(A:B)", "I(A:E)", "Ic(A>B)",
]

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
raw_exprs = st.dictionaries(st.sampled_from(RAW_SYMBOLS), rationals, max_size=6)


# -- canonicalization -------------------------------------------------------


def test_half_sum_of_mutual_informations_is_marginal_entropy():
    assert canonicalize({"I(A:B)": HALF, "I(A:E)": HALF}) == H_A


def test_global_entropy_vanishes():
    assert canonicalize({"H(ABE)": 1}).is_zero


def test_coherent_information_plus_half_environment_information():
    lhs = canonicalize({"Ic(A>B)": 1, "I(A:E)": HALF})
    expected = EntropicExpr((0, Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)))
    assert lhs == expected
    assert lhs == I_AB * HALF


def test_expression_is_four_exact_slots():
    expr = EntropicExpr((1, Fraction(1, 2), 0, -2))
    assert expr.coeff(Gen.CONST) == 1 and expr.coeff(Gen.H_B) == 0
    assert expr.as_pairs() == {Gen.CONST: (1, 1), Gen.H_A: (1, 2), Gen.H_E: (-2, 1)}
    assert EntropicExpr.from_pairs(expr.as_pairs()) == expr


@pytest.mark.parametrize("slots", [
    (0.5, 0, 0, 0),
    (0, True, 0, 0),
    (1, 0, 0),
    (1, 0, 0, 0, 0),
    [1, 0, 0, 0],
    (None, 0, 0, 0),
])
def test_expression_rejects_anything_but_four_exact_slots(slots):
    with pytest.raises(AlgebraError):
        EntropicExpr(slots)


def test_two_party_entropies_collapse_by_purity():
    assert canonicalize({"H(AB)": 1}) == H_E
    assert canonicalize({"H(AE)": 1}) == H_B
    assert canonicalize({"H(BE)": 1}) == H_A


def test_unknown_symbol_is_named_in_the_error():
    with pytest.raises(SymbolError, match="H\\(Q\\)"):
        canonicalize({"H(Q)": 1})


def test_float_coefficients_rejected():
    with pytest.raises(AlgebraError):
        canonicalize({"H(A)": 0.5})


@pytest.mark.parametrize("text", ["0.5", "1e-3", " 1/2 ", "\u0663"])
def test_a_string_coefficient_is_spelled_p_or_p_over_q(text):
    """Strings take the one spelling the JSON reader takes: a decimal, an
    exponent, surrounding blanks or a non-ASCII digit is no rational."""
    message = f"^{re.escape(repr(text))} is not a rational"
    with pytest.raises(AlgebraError, match=message):
        EntropicExpr((text, 0, 0, 0))
    with pytest.raises(AlgebraError, match=message):
        vec(text, CBIT)
    with pytest.raises(AlgebraError, match=message):
        canonicalize({"H(A)": text})
    assert EntropicExpr(("-3/6", 0, 0, 0)) == EntropicExpr((Fraction(-1, 2), 0, 0, 0))


@settings(derandomize=True, max_examples=80)
@given(raw_exprs)
def test_canonicalize_idempotent(raw):
    once = canonicalize(raw)
    assert canonicalize(once) == once


@settings(derandomize=True, max_examples=80)
@given(raw_exprs, raw_exprs)
def test_canonicalize_additive(a, b):
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, Fraction(0)) + value
    assert canonicalize(merged) == canonicalize(a) + canonicalize(b)


def test_nonlinear_product_rejected():
    with pytest.raises(LinearityError):
        _ = H_A * H_B
    assert H_A * EntropicExpr((3, 0, 0, 0)) == H_A * 3


# -- vectors ----------------------------------------------------------------


def test_vec_add_merges_and_drops_zeros():
    assert vec(1, EBIT) + vec(1, EBIT) == vec(2, EBIT)
    assert (vec(1, EBIT) + vec(-1, EBIT)).is_empty


def test_vec_add_canonicalizes_entropic_sum():
    total = vec(I_AE * HALF, QUBIT_CHANNEL) + vec(I_AB * HALF, QUBIT_CHANNEL)
    assert total == vec(H_A, QUBIT_CHANNEL)


def test_scaling_teleportation_inputs():
    tp = PRIMITIVES["tp"]
    scaled = tp.lhs.scale(I_AB * HALF)
    assert scaled.coeff(CBIT) == I_AB
    assert scaled.coeff(EBIT) == I_AB * HALF


def test_scale_by_zero_empties():
    assert (vec(3, CBIT) + vec(H_A, EBIT)).scale(0).is_empty


def test_scale_ebit_by_coherent_information():
    assert vec(1, EBIT).scale(I_COH) == vec(H_B - H_E, EBIT)


def test_noisy_copies_cannot_scale_entropically():
    with pytest.raises(AlgebraError):
        vec(1, NOISY_STATE).scale(H_A)
    assert vec(2, NOISY_STATE).scale(2) == vec(4, NOISY_STATE)


def test_noisy_coefficients_must_be_whole_nonnegative():
    with pytest.raises(AlgebraError, match="qq"):
        vec(Fraction(1, 2), NOISY_STATE)
    with pytest.raises(AlgebraError):
        vec(-1, NOISY_CHANNEL)


def test_handles_only_on_noisy_kinds():
    assert ResourceKind(ResourceTag.NOISY_STATE, "bell").token == "{qq:bell}"
    with pytest.raises(AlgebraError):
        ResourceKind(ResourceTag.EBIT, "bell")


# -- duality ----------------------------------------------------------------


def test_dual_mapping_on_kinds():
    assert dual(EBIT) == QUBIT_CHANNEL
    assert dual(QUBIT_CHANNEL) == EBIT
    assert dual(NOISY_STATE) == NOISY_CHANNEL
    assert dual(CBIT) == CBIT
    assert dual(COBIT) == COBIT


def test_dual_of_mother_is_father():
    assert dual(PRIMITIVES["mother"]).same_statement(PRIMITIVES["father"])
    assert dual(PRIMITIVES["father"]).same_statement(PRIMITIVES["mother"])


noiseless_kinds = st.sampled_from([CBIT, QUBIT_CHANNEL, EBIT, COBIT])
vectors = st.builds(
    lambda noiseless, state_copies, channel_copies: ResourceVector(tuple(
        [(kind, canonicalize(expr)) for kind, expr in noiseless.items()]
        + [(NOISY_STATE, state_copies), (NOISY_CHANNEL, channel_copies)]
    )),
    st.dictionaries(noiseless_kinds, raw_exprs, max_size=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@settings(derandomize=True, max_examples=80)
@given(vectors)
def test_dual_involution_on_vectors(vector):
    assert dual(dual(vector)) == vector


@settings(derandomize=True, max_examples=80)
@given(vectors, vectors)
def test_dual_commutes_with_addition(a, b):
    assert dual(a + b) == dual(a) + dual(b)


# -- module laws ------------------------------------------------------------

noiseless_vectors = st.builds(
    lambda noiseless: ResourceVector(tuple(
        (kind, canonicalize(expr)) for kind, expr in noiseless.items()
    )),
    st.dictionaries(noiseless_kinds, raw_exprs, max_size=4),
)


@settings(derandomize=True, max_examples=60)
@given(noiseless_vectors, rationals, rationals)
def test_noiseless_vectors_form_a_module_over_constants(v, r, s):
    assert v.scale(r).scale(s) == v.scale(r * s)
    assert v.scale(r) + v.scale(s) == v.scale(r + s)


@settings(derandomize=True, max_examples=60)
@given(noiseless_vectors, noiseless_vectors, vectors)
def test_subtraction_undoes_addition(a, b, c):
    assert (a + b) - b == a
    assert (c - c).is_empty


def test_taking_a_copy_from_an_empty_noisy_kind_raises():
    with pytest.raises(AlgebraError, match="qq"):
        ResourceVector() - vec(1, NOISY_STATE)
    with pytest.raises(AlgebraError):
        vec(1, NOISY_CHANNEL) - vec(2, NOISY_CHANNEL)
    assert vec(2, NOISY_CHANNEL) - vec(1, NOISY_CHANNEL) == vec(1, NOISY_CHANNEL)
    # with two bad counts, the error names the first met in merge order
    with pytest.raises(AlgebraError, match=r"\{q->q\}"):
        vec(1, NOISY_CHANNEL) - (vec(2, NOISY_STATE) + vec(2, NOISY_CHANNEL))


@settings(derandomize=True, max_examples=60)
@given(vectors, st.integers(min_value=0, max_value=4))
def test_whole_copy_scaling_keeps_noisy_counts_integral(v, n):
    scaled = v.scale(n)
    for kind, coeff in scaled.terms:
        if kind.is_noisy:
            assert coeff.as_constant().denominator == 1


# -- normal-form fast paths -------------------------------------------------
# `+`, `-` and `scale` merge terms that are already in normal form; each must
# give what the general constructor gave on the concatenated terms, errors
# included.  That constructor is written out here as the reference.

def _outcome(build):
    try:
        return build().terms
    except AlgebraError as exc:
        return type(exc), str(exc)


def _general_constructor(terms):
    """Merge equal kinds, check the noisy counts in order of first
    appearance, drop zero terms, sort by tag then handle."""
    merged = {}
    for kind, coeff in terms:
        merged[kind] = merged[kind] + coeff if kind in merged else coeff
    for kind, coeff in merged.items():
        c = coeff.as_constant()
        if kind.is_noisy and not coeff.is_zero and (c is None or c.denominator != 1 or c < 0):
            return AlgebraError, f"noisy resource {kind.token} requires a nonnegative integer coefficient, got {coeff}"
    tags = list(ResourceTag)
    return tuple(sorted(((k, v) for k, v in merged.items() if not v.is_zero),
                        key=lambda term: (tags.index(term[0].tag), term[0].handle or "")))


handled_noisy_kinds = [NOISY_STATE, NOISY_CHANNEL,
                       ResourceKind(ResourceTag.NOISY_STATE, "bell"),
                       ResourceKind(ResourceTag.NOISY_CHANNEL, "erasure_p25")]
mixed_vectors = st.builds(
    lambda noiseless, copies: ResourceVector(tuple(
        [(kind, canonicalize(expr)) for kind, expr in noiseless.items()] + list(copies.items()))),
    st.dictionaries(noiseless_kinds, raw_exprs, max_size=4),
    st.dictionaries(st.sampled_from(handled_noisy_kinds), st.integers(0, 3), max_size=4),
)
factors = st.one_of(rationals, st.integers(-2, 3), raw_exprs.map(canonicalize))


@settings(derandomize=True, max_examples=150)
@given(mixed_vectors, mixed_vectors, factors)
def test_arithmetic_agrees_with_the_general_constructor(a, b, k):
    assert _outcome(lambda: a + b) == _general_constructor(a.terms + b.terms)
    assert _outcome(lambda: a - b) == _general_constructor(a.terms + tuple((kind, -c) for kind, c in b.terms))
    if isinstance(k, EntropicExpr) and k.as_constant() is None and any(kind.is_noisy for kind, _ in a.terms):
        assert _outcome(lambda: a.scale(k))[0] is AlgebraError  # refused before any product
        return
    try:
        want = _general_constructor(tuple((kind, c * k) for kind, c in a.terms))
    except LinearityError as exc:
        want = LinearityError, str(exc)
    assert _outcome(lambda: a.scale(k)) == want


@settings(derandomize=True, max_examples=60)
@given(st.sampled_from(list(ResourceTag)), st.sampled_from([None, "bell", "erasure_p25", "x.y-1"]))
def test_kinds_are_interned_and_rejected_kinds_are_not(tag, handle):
    import copy
    import pickle

    from qfamily import algebra

    if handle is not None and tag not in (ResourceTag.NOISY_STATE, ResourceTag.NOISY_CHANNEL):
        with pytest.raises(AlgebraError, match="cannot carry a handle"):
            ResourceKind(tag, handle)
        assert (tag, handle) not in algebra._KINDS
        return
    kind = ResourceKind(tag, handle)
    assert ResourceKind(tag, handle) is kind
    assert copy.deepcopy(kind) is kind and pickle.loads(pickle.dumps(kind)) is kind
    assert (kind.tag, kind.handle) == (tag, handle)
    with pytest.raises(AttributeError):
        kind.handle = "other"


@settings(derandomize=True, max_examples=60)
@given(st.integers(0, 3), st.one_of(st.floats(allow_nan=False), st.booleans()))
def test_expressions_reject_floats_and_bools_everywhere(slot, value):
    slots = [0, 0, 0, 0]
    slots[slot] = value
    for build in (lambda: EntropicExpr(tuple(slots)), lambda: as_expr(value),
                  lambda: H_A * value, lambda: vec(value, CBIT), lambda: vec(1, EBIT).scale(value)):
        with pytest.raises(AlgebraError):
            build()


@pytest.mark.parametrize("build", [
    lambda: RuleFlags(rule_I_ok="no"),
    lambda: RuleFlags(True, 1),
    lambda: RuleFlags(None),
    lambda: PRIMITIVES["tp"].with_flags(rule_I_ok=[]),
    # a positional slip: a RuleFlags object, which is truthy, as rule_I_ok
    lambda: PRIMITIVES["tp"].with_flags(RuleFlags(rule_I_ok=False)),
], ids=["str", "int", "None", "list", "RuleFlags"])
def test_rule_flags_accept_only_bools(build):
    with pytest.raises(AlgebraError, match="rule flags must be bools"):
        build()
