import copy
import json
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from qfamily import grammar
from qfamily.algebra import (
    CBIT, EBIT, SYMBOLS, AlgebraError, DerivationStep, EntropicExpr, Gen, Mode, ResourceInequality,
    ResourceVector, RuleFlags, StepKind, canonicalize, vec,
)
from qfamily.derivation import PRIMITIVES, derive_family
from qfamily.grammar import (
    _MEMBERS,
    ParseError,
    _brief,
    _field,
    _rational,
    expr_from_json,
    expr_to_json,
    format_expr,
    format_ri,
    format_vector,
    parse_expr,
    parse_ri,
    parse_vector,
    ri_from_json,
    resource_from_token,
    ri_to_json,
    vector_from_json,
    vector_to_json,
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


@pytest.mark.parametrize("data, named", [
    ({"CONST": "1" * 5000}, "'111111111111... of 5000 characters'"),
    ({"H_A": "1/" + "3" * 5000}, "'1/3333333333... of 5002 characters'"),
    ({"H_B": "x" * 5000}, "'xxxxxxxxxxxx... of 5000 characters'"),
    ({"H" * 5000: "1"}, "'HHHHHHHHHHHH... of 5000 characters'"),
    ({f"K{i}": "1" for i in range(5000)}, "{'K0': '1', 'K1': '1', 'K2': '1', 'K3': '1'} and 4996 more"),
], ids=["numerator", "denominator", "not-a-number", "key", "entries"])
def test_a_long_bad_coefficient_is_named_by_its_first_characters(data, named):
    with pytest.raises(ParseError) as excinfo:
        expr_from_json(data)
    message = str(excinfo.value)
    assert message.startswith("bad coefficient map {")
    assert named in message
    assert len(message) <= 100


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


# -- the reader's cache against the reader it replaced ---------------------------
#
# `vector_from_json`, `expr_from_json` and `ri_from_json` as they were before a
# distinct term list was read once, kept as the reference that every
# document, well formed or not, must read the same by.


def _reference_expr_from_json(data: dict) -> EntropicExpr:
    try:
        return EntropicExpr.from_pairs({_MEMBERS[Gen][key]: _rational(value, 0) for key, value in data.items()})
    except (KeyError, TypeError, ValueError):  # a key naming no generator, a value no "p"/"p/q" string
        # A map of more than four entries is bad for that alone: show four.
        shown = {_brief(key): _brief(value) for key, value in islice(data.items(), 4)}
        more = f" and {len(data) - 4} more" if len(data) > 4 else ""
        raise ParseError(f"bad coefficient map {shown!r}{more}", 0) from None


def _reference_vector_from_json(data: list) -> ResourceVector:
    terms = [(resource_from_token(_field(entry, "kind", str)),
              _reference_expr_from_json(_field(entry, "coeff", dict)))
             for entry in data]
    try:
        return ResourceVector(tuple(terms))
    except AlgebraError as exc:
        raise ParseError(str(exc), 0) from None


def _reference_ri_from_json(data: dict) -> ResourceInequality:
    flags = _field(data, "flags", dict)
    steps = _field(data, "trace", list) if "trace" in data else []
    return ResourceInequality(
        name=_field(data, "name", str),
        lhs=_reference_vector_from_json(_field(data, "lhs", list)),
        rhs=_reference_vector_from_json(_field(data, "rhs", list)),
        mode=_field(data, "mode", Mode),
        flags=RuleFlags(_field(flags, "rule_I_ok", bool), _field(flags, "rule_O_ok", bool)),
        trace=tuple(DerivationStep(_field(step, "kind", StepKind), _field(step, "tool", str),
                                   _reference_expr_from_json(_field(step, "multiplier", dict)),
                                   _reference_ri_from_json(_field(step, "before", dict)),
                                   _reference_ri_from_json(_field(step, "after", dict))) for step in steps),
    )


class _SubDict(dict):
    pass


FAMILY_WIRE = json.loads(json.dumps({name: ri_to_json(ri) for name, ri in derive_family().items()}))


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(doc, mutations):
    """A deep copy of `doc` with each (operation, path index, choice) applied
    in turn, to the node of that index among the paths of the copy so far."""
    doc = copy.deepcopy(doc)
    for operation, index, choice in mutations:
        paths = list(_paths(doc))
        path = paths[index % len(paths)]
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node, last = parent[path[-1]], path[-1]
        if operation == "swap":  # another type in place of a string, a dict or anything
            parent[last] = [7, True, [], None, "1", {}][choice % 6]
        elif operation == "drop" and isinstance(last, str):
            del parent[last]
        elif operation == "unhashable":
            parent[last] = [["1"], {"p": "1"}, {"1"}][choice % 3]
        elif operation == "one":  # 1, True and "1" compare or hash alike in a cache key
            parent[last] = [1, True, "1", 1.0][choice % 4]
        elif operation == "duplicate" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[choice % len(node)]))
        elif operation == "subclass" and isinstance(node, dict):
            parent[last] = _SubDict(node)
    return doc


def _outcome(read, doc):
    try:
        return "read", read(doc)
    except Exception as exc:  # any error: its type and text are compared
        return type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(FAMILY_WIRE)),
       st.lists(st.tuples(st.sampled_from(["swap", "drop", "unhashable", "one", "duplicate", "subclass"]),
                          st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=11)),
                min_size=1, max_size=3))
def test_a_mutated_document_reads_as_the_reader_before_the_cache_read_it(name, mutations):
    """The same inequality, or a ParseError with the same text; read twice,
    so that the second read meets what the first one left in the cache."""
    doc = _mutated(FAMILY_WIRE[name], mutations)
    want = _outcome(_reference_ri_from_json, doc)
    assert want[0] in ("read", "ParseError")
    assert _outcome(ri_from_json, doc) == want
    assert _outcome(ri_from_json, doc) == want


def test_what_the_writer_returns_may_be_changed_without_changing_its_next_answer():
    ri = derive_family()["mother_via_rule_I"]
    coeff = ri.lhs.terms[0][1]
    first = expr_to_json(coeff)
    spelled = dict(first)
    first["H_A"] = "99"
    first.clear()
    assert expr_to_json(coeff) == spelled and expr_from_json(spelled) == coeff
    want = json.dumps(ri_to_json(ri))
    data = ri_to_json(ri)
    data["lhs"][0]["coeff"]["CONST"] = "5"
    data["trace"][0]["multiplier"].clear()
    data["trace"][0]["before"]["rhs"].append({"kind": "[qq]", "coeff": {}})
    assert json.dumps(ri_to_json(ri)) == want


def test_a_read_document_may_be_changed_and_read_again():
    data = copy.deepcopy(FAMILY_WIRE["mother"])
    first = ri_from_json(data)
    data["lhs"][0]["coeff"]["CONST"] = "3"
    data["rhs"].append({"kind": "[c->c]", "coeff": {"CONST": "1"}})
    assert ri_from_json(data) == _reference_ri_from_json(data) != first
    assert ri_from_json(FAMILY_WIRE["mother"]) == first


def test_more_distinct_term_lists_than_a_cache_holds_still_round_trip():
    """1,100 distinct term lists, read in order twice: every read past the
    first 1,024 evicts, so the second pass builds each list again."""
    wires = [vector_to_json(vec(Fraction(i, 7), EBIT) + vec(i, CBIT)) for i in range(1, 1101)]
    for _ in range(2):
        assert [vector_from_json(wire) for wire in wires] == [
            vec(Fraction(i, 7), EBIT) + vec(i, CBIT) for i in range(1, 1101)]
    assert grammar._vector_of.cache_info().currsize <= 1024


def test_every_grammar_cache_is_bounded():
    for cached in (grammar._rational, grammar._vector_of, grammar._wire_pairs, grammar.format_expr):
        assert cached.cache_parameters()["maxsize"] == 1024
