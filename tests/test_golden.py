"""Byte-for-byte comparison of the symbolic outputs against recorded files.

The files under tests/golden/ hold the stdout of `family`, `family --json`,
`derive --target N` and `dual --ri N` for every derivation N, and the JSON
wire form of every derivation (the only output that carries the names of
rule-derived intermediates such as `rule_I(eq2)`).  A refactor of the
symbolic layer must leave all of them unchanged.

To record the files again after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qfamily import cli
from qfamily.derivation import derive_family
from qfamily.grammar import ri_to_json

GOLDEN = Path(__file__).parent / "golden"
NAMES = tuple(derive_family())


def _stdout(*argv: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    assert code == 0, argv
    return buffer.getvalue()


def _derivations_json() -> str:
    return json.dumps({n: ri_to_json(ri) for n, ri in derive_family().items()}, indent=2)


def golden_outputs() -> dict[str, object]:
    """File name -> zero-argument function producing that file's text."""
    outputs = {
        "family.txt": lambda: _stdout("family"),
        "family.json": lambda: _stdout("family", "--json"),
        "derivations.json": _derivations_json,
    }
    for name in NAMES:
        outputs[f"derive-{name}.txt"] = lambda name=name: _stdout("derive", "--target", name)
        outputs[f"dual-{name}.txt"] = lambda name=name: _stdout("dual", "--ri", name)
    return outputs


def test_fourteen_derivations_are_recorded():
    assert len(NAMES) == 14
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(golden_outputs())


@pytest.mark.parametrize("filename", sorted(golden_outputs()))
def test_output_matches_golden_bytes(filename):
    expected = (GOLDEN / filename).read_bytes()
    assert golden_outputs()[filename]().encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for filename, produce in golden_outputs().items():
        (GOLDEN / filename).write_bytes(produce().encode())
