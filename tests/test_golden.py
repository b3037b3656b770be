"""Byte-for-byte comparison of the symbolic outputs against recorded files.

The files under tests/golden/ hold the stdout of `family`, `family --json`,
`derive --target N` and `dual --ri N` for every derivation N, and the JSON
wire form of every derivation (the only output that carries the names of
rule-derived intermediates such as `rule_I(eq2)`).  A refactor of the
symbolic layer must leave all of them unchanged.

`verify-circuits.json` holds the report of `verify-circuits --trials 5
--seed 1`.  The fidelities of drawn inputs come out of BLAS, so it is
compared by structure: names, key order, `pass` values and ledgers exactly,
every float within 1e-12.  The entries whose every input is fixed are exact
(small integers times powers of two), so they are compared with `==`:
`FIXED_INPUT_ENTRIES` mirrors the program's own pass rule, which holds those
entries to fidelity exactly 1.

`sweep-<family>.csv` holds the stdout of `sweep --channel <family> --param
0:1:0.01` for each channel family.  Its entropies come out of LAPACK, so the
header and the `param` column are compared exactly and every other cell
within 1e-12.

`check-identities.json` holds the stdout and exit code of `check-identities
--seed S --trials T` for seeds 0-20 and trials 1, 7 and 100.  The verb prints
its worst deviations to three digits, which a change in the last bit of an
entropy can move, so it is compared byte for byte.

`rates.json` holds `rates --ri N`, text and `--json`, for every derivation N
on every built-in object and on every channel family at p = 0, 0.25, 0.5,
0.75 and 1, keyed by the object arguments, wherever the verb exits 0.  The
text is compared exactly and the JSON like `verify-circuits.json`.

To record the files again after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qfamily import cli
from qfamily.channels import BUILTIN_OBJECTS, CHANNEL_FAMILIES
from qfamily.derivation import derive_family
from qfamily.grammar import ri_to_json

GOLDEN = Path(__file__).parent / "golden"
NAMES = tuple(derive_family())
CIRCUIT_REPORT = "verify-circuits.json"
FIXED_INPUT_ENTRIES = ("superdense", "entanglement_distribution", "cobit", "cobit_equivalence",
                       "rule_I_on_teleportation", "rule_O_on_superdense")
SWEEPS = {f"sweep-{family}.csv": family for family in sorted(CHANNEL_FAMILIES)}
IDENTITY_RUNS = tuple((seed, trials) for seed in range(21) for trials in (1, 7, 100))
RATES = "rates.json"
RATE_PARAMS = ("0", "0.25", "0.5", "0.75", "1")
FLOAT_TOLERANCE = 1e-12


def _run(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of one verb; stderr is dropped."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def _stdout(*argv: str) -> str:
    code, out = _run(*argv)
    assert code == 0, argv
    return out


def _check_identities_json() -> str:
    runs = {}
    for seed, trials in IDENTITY_RUNS:
        code, out = _run("check-identities", "--seed", str(seed), "--trials", str(trials))
        runs[f"--seed {seed} --trials {trials}"] = {"exit": code, "stdout": out}
    return json.dumps(runs, indent=2) + "\n"


def _rate_objects() -> list[tuple[str, ...]]:
    """The object arguments of every recorded rate table, in the order of
    rates.json: `--channel identity`, the family at its default parameter,
    comes fourth, after the three built-in states."""
    objects = [(f"--{kind}", name) for name, (kind, _, _) in BUILTIN_OBJECTS.items()]
    objects.insert(3, ("--channel", "identity"))
    objects += [("--channel", family, "--param", p)
                for family in sorted(CHANNEL_FAMILIES) for p in RATE_PARAMS]
    return objects


def _rates_json() -> str:
    tables = {}
    for name in NAMES:
        for objects in _rate_objects():
            code, text = _run("rates", "--ri", name, *objects)
            if code == 0:
                tables[" ".join(("--ri", name, *objects))] = {
                    "text": text, "json": json.loads(_stdout("rates", "--ri", name, *objects, "--json"))}
    return json.dumps(tables, indent=2) + "\n"


def _derivations_json() -> str:
    return json.dumps({n: ri_to_json(ri) for n, ri in derive_family().items()}, indent=2)


def golden_outputs() -> dict[str, object]:
    """File name -> zero-argument function producing that file's text."""
    outputs = {
        "family.txt": lambda: _stdout("family"),
        "family.json": lambda: _stdout("family", "--json"),
        "derivations.json": _derivations_json,
        CIRCUIT_REPORT: lambda: _stdout("verify-circuits", "--trials", "5", "--seed", "1"),
        "check-identities.json": _check_identities_json,
        RATES: _rates_json,
    }
    for filename, family in SWEEPS.items():
        outputs[filename] = lambda family=family: _stdout(
            "sweep", "--channel", family, "--param", "0:1:0.01")
    for name in NAMES:
        outputs[f"derive-{name}.txt"] = lambda name=name: _stdout("derive", "--target", name)
        outputs[f"dual-{name}.txt"] = lambda name=name: _stdout("dual", "--ri", name)
    return outputs


def test_fourteen_derivations_are_recorded():
    assert len(NAMES) == 14
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(golden_outputs())


@pytest.mark.parametrize("filename", sorted(set(golden_outputs()) - {CIRCUIT_REPORT, RATES, *SWEEPS}))
def test_output_matches_golden_bytes(filename):
    expected = (GOLDEN / filename).read_bytes()
    assert golden_outputs()[filename]().encode() == expected


def _same_report(got, want, path="report"):
    """Exact equality, except that floats agree within FLOAT_TOLERANCE."""
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} vs {list(want)}"
        for key in want:
            _same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: {len(got)} entries vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOLERANCE, f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


def check_circuit_report(text: str):
    """`text`, a `verify-circuits --trials 5 --seed 1` report, against its
    golden: by `_same_report`, and each fixed-input entry with `==`."""
    got, want = json.loads(text), json.loads((GOLDEN / CIRCUIT_REPORT).read_text())
    _same_report(got, want)
    fixed = [(g, w) for section in ("protocols", "rule_demos")
             for g, w in zip(got[section], want[section]) if w["name"] in FIXED_INPUT_ENTRIES]
    assert sorted(w["name"] for _, w in fixed) == sorted(FIXED_INPUT_ENTRIES)
    for g, w in fixed:
        assert g == w, f"{w['name']}: {g} vs {w}"


def test_circuit_report_matches_golden():
    check_circuit_report(golden_outputs()[CIRCUIT_REPORT]())


def test_rate_tables_match_golden():
    want = json.loads((GOLDEN / RATES).read_text())
    got = json.loads(golden_outputs()[RATES]())
    assert len(want) == 233
    assert list(got) == list(want)
    for case, table in want.items():
        assert got[case]["text"] == table["text"], case
        _same_report(got[case]["json"], table["json"], case)


def test_rates_json_prints_no_negative_zero():
    for name in NAMES:
        for objects in _rate_objects():
            code, out = _run("rates", "--ri", name, *objects, "--json")
            if code == 0:
                tokens = []
                json.loads(out, parse_float=tokens.append)
                assert not [t for t in tokens if t.startswith("-") and float(t) == 0.0], (name, objects)


@pytest.mark.parametrize("filename", sorted(SWEEPS))
def test_sweep_matches_golden(filename):
    want = [line.split(",") for line in (GOLDEN / filename).read_text().splitlines()]
    got = [line.split(",") for line in golden_outputs()[filename]().splitlines()]
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g) == len(w) and g[0] == w[0], f"row {row}: {g} vs {w}"
        for column, (x, y) in enumerate(zip(g[1:], w[1:]), start=1):
            assert abs(float(x) - float(y)) <= FLOAT_TOLERANCE, f"row {row} {want[0][column]}: {x} vs {y}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for filename, produce in golden_outputs().items():
        (GOLDEN / filename).write_bytes(produce().encode())
