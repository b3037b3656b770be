import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import EBIT, SYMBOLS, Gen, Mode, ResourceInequality, canonicalize, vec
from qfamily.derivation import PRIMITIVES, derive_family
from qfamily.grammar import (
    ParseError,
    expr_from_json,
    expr_to_json,
    format_expr,
    format_ri,
    format_vector,
    parse_expr,
    parse_ri,
    parse_vector,
    ri_from_json,
    ri_to_json,
    vector_from_json,
)

from test_algebra import vectors


def test_mother_text_round_trip():
    text = "1/2*I(A:E) [q->q] + {qq} >= 1/2*I(A:B) [qq]"
    mother = PRIMITIVES["mother"]
    assert parse_ri(text).same_statement(mother)
    assert format_ri(mother) == text


def test_teleportation_exact_marker():
    text = "2 [c->c] + [qq] >=! [q->q]"
    tp = PRIMITIVES["tp"]
    parsed = parse_ri(text)
    assert parsed.mode is Mode.EXACT
    assert parsed.same_statement(tp)
    assert format_ri(tp) == text


def test_empty_rhs_rejected():
    with pytest.raises(ParseError):
        parse_ri("[qq] >= ")
    with pytest.raises(ParseError):
        parse_ri("[qq] >= 0")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse_ri("[qq] >= [zz]")
    assert excinfo.value.position == len("[qq] >= ")


def test_unknown_symbol_position():
    with pytest.raises(ParseError):
        parse_expr("H(A) + H(Q)")


def test_handles_round_trip():
    vector = parse_vector("2 {qq:bell} + Ic(A>B) [q->q]")
    assert format_vector(vector) == "Ic(A>B) [q->q] + 2 {qq:bell}"
    assert parse_vector(format_vector(vector)) == vector


def test_general_coefficients_round_trip():
    vector = parse_vector("(1 + 1/2*H(A) - H(E)) [qq]")
    assert parse_vector(format_vector(vector)) == vector


def test_parentheses_do_not_nest():
    with pytest.raises(ParseError, match="nested parentheses") as excinfo:
        parse_expr("((H(A)))")
    assert excinfo.value.position == 1
    with pytest.raises(ParseError, match="nested parentheses") as excinfo:
        parse_vector("(H(A) - (H(B))) [qq]")
    assert excinfo.value.position == len("(H(A) - ")
    assert parse_expr("-(H(A) - H(B)) + (1/2*H(E))") == parse_expr("(-H(A) + H(B) + 1/2*H(E))")


def test_raw_symbols_accepted_in_coefficients():
    assert parse_expr("H(AB)") == canonicalize({"H(E)": 1})
    assert parse_expr("1/2*I(A:B) + 1/2*I(A:E)") == canonicalize({"H(A)": 1})


@settings(derandomize=True, max_examples=100)
@given(vectors, vectors, st.sampled_from([Mode.EXACT, Mode.ASYMPTOTIC]))
def test_format_parse_round_trip(lhs, rhs, mode):
    if rhs.is_empty:
        rhs = vec(1, EBIT)
    ri = ResourceInequality(name="t", lhs=lhs, rhs=rhs, mode=mode)
    assert parse_ri(format_ri(ri)).same_statement(ri)


@settings(derandomize=True, max_examples=100)
@given(vectors)
def test_expr_formatting_round_trips(vector):
    for _, coeff in vector.terms:
        assert parse_expr(format_expr(coeff)) == coeff
        data = json.loads(json.dumps(expr_to_json(coeff)))
        assert expr_from_json(data) == coeff
        assert list(data) == [gen.value for gen in (Gen.CONST, Gen.H_A, Gen.H_B, Gen.H_E)
                              if coeff.coeff(gen) != 0]


# Every raw symbol and the spelling it formats to.  "CONST" names the constant
# only in `canonicalize`'s input; grammar text writes it as a number.
PREFERRED_SPELLINGS = {
    "1": "1", "CONST": "1",
    "H(A)": "H(A)", "H(B)": "H(B)", "H(E)": "H(E)",
    "H(AB)": "H(E)", "H(AE)": "H(B)", "H(BE)": "H(A)", "H(ABE)": "0",
    "I(A:B)": "I(A:B)", "I(A:E)": "I(A:E)", "Ic(A>B)": "Ic(A>B)",
}


def test_every_raw_symbol_parses_and_formats_to_its_preferred_spelling():
    assert set(PREFERRED_SPELLINGS) == set(SYMBOLS)
    for symbol, preferred in PREFERRED_SPELLINGS.items():
        expr = canonicalize({symbol: 1})
        assert format_expr(expr) == preferred
        assert parse_expr(preferred) == expr
        if symbol != "CONST":
            for spelling in (symbol, symbol.replace(":", ";")):
                assert format_expr(parse_expr(spelling)) == preferred
    with pytest.raises(ParseError):
        parse_expr("CONST")


def test_json_round_trip_preserves_everything():
    family = derive_family()
    for name, ri in family.items():
        data = json.loads(json.dumps(ri_to_json(ri)))
        back = ri_from_json(data)
        assert back.same_statement(ri)
        assert back.name == ri.name
        assert back.flags == ri.flags
        assert len(back.trace) == len(ri.trace)
        for ours, theirs in zip(ri.trace, back.trace):
            assert ours.kind == theirs.kind
            assert ours.tool == theirs.tool
            assert ours.multiplier == theirs.multiplier
            assert ours.before.same_statement(theirs.before)
            assert ours.after.same_statement(theirs.after)


@pytest.mark.parametrize("token", ["[c->c:foo]", "qq:y", "[zz]"])
def test_json_rejects_malformed_resource_tokens(token):
    with pytest.raises(ParseError, match=re.escape(repr(token))):
        vector_from_json([{"kind": token, "coeff": {"CONST": "1"}}])


def test_json_coefficient_with_zero_denominator_is_a_parse_error():
    data = ri_to_json(PRIMITIVES["tp"])
    data["lhs"][0]["coeff"] = {"CONST": "1/0"}
    with pytest.raises(ParseError, match="1/0"):
        ri_from_json(data)
