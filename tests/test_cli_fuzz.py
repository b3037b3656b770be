"""A fuzzer for every boundary of the command line.

`cli.main` runs in process on argv built from `build_parser()`'s own verbs
and options, with adversarial values: digits of other scripts, signs,
`-0`, huge integers, `1e-400`, `nan`, empty strings, arbitrary text and
mutations of `format_ri` output for `dual --text`, and registry files that
hold recursive JSON values or mutations of a valid entry.  Every argv is
well formed for argparse: each required option is present and each value
of an `int` option is text that `int()` accepts.  Trial counts and grid
sizes are capped by construction, so every run is quick.

Each run must end one of two ways: exit 0 or 1 with nothing on stderr, or
exit 2 with exactly one stderr line, which starts `error: `.  No exception
may escape, and no warning may be raised, since a warning is printed on
stderr.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qfamily import cli
from qfamily.channels import BUILTIN_OBJECTS, CHANNEL_FAMILIES
from qfamily.derivation import FAMILY_ORDER, derive_family
from qfamily.grammar import format_ri
from test_channels import builtin_objects, registry_entry_json

MAX_TRIALS = 3  # the largest trial count a run may ask for
MAX_POINTS = 40  # the largest number of grid points a sweep may ask for


def _verbs() -> dict[str, list[argparse.Action]]:
    """Each verb of the parser, with its options (help excepted)."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {verb: [a for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for verb, p in sub.choices.items()}


VERBS = _verbs()

# -- integers spelled as `int()` reads them ----------------------------------------

_ZEROS = ("0", "٠", "۰", "०", "０")  # ASCII, Arabic-Indic, Persian, Devanagari, fullwidth


@st.composite
def _int_texts(draw, values):
    """A spelling of a drawn integer that `int()` reads back: any of five
    scripts' digits, a sign, leading zeros, underscores, and spaces around."""
    n = draw(values)
    zero = ord(draw(st.sampled_from(_ZEROS)))
    digits = "".join(chr(zero + int(d)) for d in str(abs(n)))
    digits = "0" * draw(st.integers(0, 2)) + digits
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = f"{digits[:cut]}_{digits[cut:]}"
    sign = "-" if n < 0 else draw(st.sampled_from(["", "+", "-"]) if n == 0 else st.sampled_from(["", "+"]))
    pad = draw(st.sampled_from(["", " ", "\t", "\u2003"]))  # the last an em space
    return f"{pad}{sign}{digits}{pad}"


_huge = st.integers(4000, 4290).map(lambda k: 10 ** k - 1)  # at most 4,290 digits: `int()` reads them
_trials = _int_texts(st.one_of(st.integers(1, MAX_TRIALS), st.integers(-3, MAX_TRIALS), st.integers(-2 ** 70, 0),
                               _huge.map(lambda n: -n)))
_seeds = _int_texts(st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from([-1, 2 ** 64, 2 ** 64 - 1]),
                              st.integers(-2 ** 70, 2 ** 70), _huge, _huge.map(lambda n: -n)))

# -- grid values and grids -------------------------------------------------------------

_numbers = st.one_of(
    st.fractions(0, 1, max_denominator=12).map(str),
    st.decimals(0, 1, places=3, allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(["0", "1", "-0", "+0", "0.5", "0.25", "1/3", "2/3", "1/0", "-1", "2", "1e-400", "1e400",
                     "-1e-400", "nan", "NaN", "inf", "-inf", "", " ", "1_0", "0.1_5", "٠.٥",
                     "１/３", "1e-99999999", "0e-99999999", "1e99999999", "9" * 5000, "0x1"]),
    st.fractions(-2, 2, max_denominator=12).map(str),
    st.decimals(-2, 2, places=4, allow_nan=False, allow_infinity=False).map(str),
    # exponents near the edge of a float's range, and far past it
    st.builds("{}e{}".format, st.integers(-99, 99),
              st.one_of(st.integers(-999, 999), st.integers(10 ** 5, 10 ** 8), st.integers(-10 ** 8, -10 ** 5))),
    st.text(max_size=6),
)


def _points(start: str, stop: str, step: str) -> int:
    """How many points start:stop:step walks, as `cli._parse_grid` counts
    them, or 0 if one of them is refused or the range is empty."""
    try:
        a, b, h = (cli._grid_value(text) for text in (start, stop, step))
    except cli.CliError:
        return 0
    return (b - a) // h + 1 if h > 0 and a <= b else 0


@st.composite
def _grids(draw):
    """A comma list of grid values, or a start:stop:step range of at most
    MAX_POINTS points (a longer one has its stop moved to its start)."""
    if draw(st.booleans()):
        return ",".join(draw(st.lists(_numbers, min_size=1, max_size=4)))
    start, stop, step = draw(_numbers), draw(_numbers), draw(_numbers)
    if _points(start, stop, step) > MAX_POINTS:
        stop = start
    return f"{start}:{stop}:{step}"


# -- dual's text -----------------------------------------------------------------------

_FAMILY = derive_family()
_STATEMENTS = [format_ri(_FAMILY[name]) for name in FAMILY_ORDER]
_PIECES = ["1/3", "2/3", "-1/3", "1/0", "0", "2", "(", ")", "-", "+", "*", ">=", ">=!", "[qq]", "[q->qq]",
           "{qq}", "{qq:x}", "{q->q:}", "H(A)", "I(A:B)", "Ic(A>B)", "(1/3*H(A) - H(B))", "9" * 5000, ""]


@st.composite
def _mutated_statements(draw):
    """A family member's text with a few of its space-separated words
    replaced, inserted or deleted."""
    words = draw(st.sampled_from(_STATEMENTS)).split(" ")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(words)))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        piece = draw(st.sampled_from(_PIECES) | st.text(max_size=4))
        if how == "insert" or i == len(words):
            words.insert(i, piece)
        elif how == "replace":
            words[i] = piece
        else:
            del words[i]
    return " ".join(words)


_texts = st.one_of(_mutated_statements(), st.sampled_from(_STATEMENTS), st.text(max_size=30))

# -- registries ------------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# the built-in objects renamed, since a registry may not reuse a built-in name
_ENTRIES = [{**registry_entry_json(obj), "name": f"my_{obj.name}"} for obj in builtin_objects().values()]
_REGISTERED = [entry["name"] for entry in _ENTRIES]


@st.composite
def _mutated_entries(draw):
    """A list of valid entries with one key of one entry changed or dropped."""
    entries = [dict(entry) for entry in draw(st.lists(st.sampled_from(_ENTRIES), min_size=1, max_size=3))]
    entry = draw(st.sampled_from(entries))
    key = draw(st.sampled_from(["name", "kind", "dims", "data"]))
    if draw(st.booleans()):
        del entry[key]
    elif key == "data" and draw(st.booleans()):
        data = [list(pair) for pair in entry["data"]]
        i = draw(st.integers(0, len(data) - 1))
        data[i][draw(st.integers(0, 1))] = draw(_json_values)
        entry["data"] = data
    else:
        entry[key] = draw(st.sampled_from([*_REGISTERED, "state", "channel", "bell", "erasure", [2, 2],
                                           [2, 2, 2], [1, 1]]) | _json_values)
    return entries


_registries = st.one_of(
    st.sampled_from([None, "", "directory"]),  # no file, an empty path, a directory
    st.lists(st.sampled_from(_ENTRIES), max_size=3).map(json.dumps),
    _mutated_entries().map(json.dumps),
    _json_values.map(json.dumps),
    st.text(max_size=20),
)


@st.composite
def _names(draw, names, others=()):
    """One of `names` half of the time, else one of `others` or any text."""
    how = draw(st.integers(0, 3))
    if how < 2:
        return draw(st.sampled_from(sorted(names)))
    return draw(st.sampled_from(sorted(others or names)) if how == 2 else st.text(max_size=8))


VALUES = {
    "trials": _trials,
    "seed": _seeds,
    "param": _grids(),
    "text": _texts,
    "registry": _registries,
    "ri": _names(_FAMILY),
    "target": _names(_FAMILY),
    "state": _names(BUILTIN_OBJECTS, _REGISTERED),
    "channel": _names(CHANNEL_FAMILIES, [*BUILTIN_OBJECTS, *_REGISTERED]),
}


@st.composite
def _argvs(draw, verb):
    """(argv, registry) for `verb`: argv holds its required options and
    each other option or not, in a drawn order, and `--registry` without
    its value, which `_with_registry` adds once `registry` is written."""
    options, registry = [], None
    for action in VERBS[verb]:
        if not (action.required or draw(st.booleans())):
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            options.append([flag])
        elif action.dest == "registry":
            registry = draw(VALUES["registry"])
            options.append([flag])
        else:
            options.append([f"{flag}={draw(VALUES[action.dest])}"])
    return [verb, *(word for option in draw(st.permutations(options)) for word in option)], registry


def _with_registry(argv, registry, tmp) -> list[str]:
    """argv with the registry option's value: a path to `registry` written
    out, one to no file, an empty path, or a directory."""
    if "--registry" not in argv:
        return argv
    path = {None: os.path.join(tmp, "missing.json"), "": "", "directory": tmp}.get(registry)
    if path is None:
        path = os.path.join(tmp, "registry.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(registry)
    return [f"--registry={path}" if word == "--registry" else word for word in argv]


def _ends_as_it_must(argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `cli.main(argv)`, which must end
    as the module docstring says; each warning counts as a stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    errors = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    if code in (0, 1):
        assert errors == "", (argv, code, errors)
    else:
        assert code == 2 and errors.startswith("error: ") and errors.count("\n") == 1, (argv, code, errors)
        assert errors.endswith("\n"), (argv, errors)
    return code, out.getvalue(), errors


EXAMPLES = {"family": 10, "derive": 20, "dual": 100, "rates": 120, "sweep": 60,
            "verify-circuits": 20, "check-identities": 20}


def test_every_verb_has_an_example_budget():
    assert sorted(EXAMPLES) == sorted(VERBS)
    assert all(action.dest in VALUES for actions in VERBS.values() for action in actions if action.nargs != 0)


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_run_exits_0_or_1_quietly_or_2_with_one_error_line(verb):
    """Each verb's runs also reach past its checks: some exit 0, and some
    exit 2 if it takes a value; `dual` prints a coefficient with denominator
    3, which no family member has."""
    ends = []

    @settings(derandomize=True, max_examples=EXAMPLES[verb], deadline=None, database=None)
    @given(case=_argvs(verb))
    def check(case):
        argv, registry = case
        with tempfile.TemporaryDirectory() as tmp:
            ends.append(_ends_as_it_must(_with_registry(argv, registry, tmp))[:2])

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("QFAMILY_REGISTRY", raising=False)
        check()
    codes = {code for code, _ in ends}
    assert 0 in codes and (2 in codes or all(action.nargs == 0 for action in VERBS[verb])), codes
    assert verb != "dual" or any("/3" in out for _, out in ends)
