import copy
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


@pytest.mark.parametrize("text", ["\u0663 [qq] >= [q->q]", "\uff11/2 [qq] >= [q->q]", "[qq] >= 1/\u0662 [q->q]"])
def test_numbers_are_ascii_digits(text):
    """The grammar's INT is ASCII: an Arabic-Indic or fullwidth digit is
    unrecognized input, not a number."""
    with pytest.raises(ParseError, match="unrecognized input"):
        parse_ri(text)


@pytest.mark.parametrize("text, position", [("1" * 5000, 0), ("H(A) + 1/" + "3" * 5000, 7)],
                         ids=["numerator", "denominator"])
def test_a_number_past_the_integer_digit_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError, match="exceeds the integer digit limit") as excinfo:
        parse_expr(text)
    assert excinfo.value.position == position


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


# Spellings that `Fraction` reads but the wire format's "p" / "p/q" does not.
@pytest.mark.parametrize("value", [0.5, 1e300, 1, "0.5", "1e-3", " 1/2 ", "1/2\n", "+1", "1_000", "\u0663"])
def test_json_coefficients_are_only_p_or_p_over_q_strings(value):
    with pytest.raises(ParseError):
        expr_from_json({"H_A": value})


def test_json_coefficients_read_signed_and_unreduced_spellings():
    assert expr_from_json({"CONST": "-6/04", "H_E": "007"}) == parse_expr("(-3/2 + 7*H(E))")


EQ1_WIRE = ri_to_json(derive_family()["eq1"])


def _at(data, path):
    """A deep copy of `data` and the container that holds `path`'s last key."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    return data, node


@pytest.mark.parametrize("path", [
    ("name",), ("mode",), ("lhs",), ("rhs",), ("flags",), ("flags", "rule_I_ok"), ("flags", "rule_O_ok"),
    ("lhs", 0, "kind"), ("lhs", 0, "coeff"),
    ("trace", 0, "kind"), ("trace", 0, "tool"), ("trace", 0, "multiplier"), ("trace", 0, "before"),
    ("trace", 1, "after", "name"),
])
def test_json_missing_key_is_a_parse_error(path):
    data, node = _at(EQ1_WIRE, path)
    del node[path[-1]]
    with pytest.raises(ParseError, match=re.escape(repr(path[-1]))):
        ri_from_json(data)


@pytest.mark.parametrize("path,value", [
    (("name",), 7), (("name",), None),
    (("flags", "rule_I_ok"), "no"), (("flags", "rule_O_ok"), 1), (("flags",), []),
    (("mode",), "fast"), (("lhs",), {}), (("trace",), None),
    (("trace", 0, "kind"), "JUMP"), (("trace", 0, "tool"), 3), (("lhs", 0, "coeff"), "1"),
    (("lhs", 1, "coeff"), {"CONST": "1/2"}),
])
def test_json_value_of_the_wrong_type_is_a_parse_error(path, value):
    """Flags are bools, names and tools strings, modes and step kinds the
    values of their enums, and a noisy count a whole number."""
    data, node = _at(EQ1_WIRE, path)
    node[path[-1]] = value
    with pytest.raises(ParseError):
        ri_from_json(data)
