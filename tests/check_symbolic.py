"""Check the symbolic layer on its own, with nothing installed but Python.

Run from the repository root, on any supported Python:

    PYTHONPATH=src python tests/check_symbolic.py

The layer imports one way, algebra <- grammar <- derivation.  So the script
first imports only `qfamily.algebra` and `qfamily.grammar`, reads
`tests/golden/derivations.json` through `ri_from_json` and writes it back
with `ri_to_json`, byte for byte, and checks that `qfamily.derivation` was
not loaded on the way.  Then it imports `qfamily.derivation` and checks that
numpy is not loaded, that `derive_family()` as JSON is byte for byte the
golden file, that every trace replays to its statement, and that every
member round-trips through the text grammar.  It prints one line per failed
check and exits 1 if there is any.
"""

import json
import sys
from pathlib import Path

from qfamily import algebra, grammar  # noqa: F401

GOLDEN = Path(__file__).resolve().parent / "golden" / "derivations.json"


def _as_json(family: dict) -> bytes:
    return json.dumps({name: grammar.ri_to_json(ri) for name, ri in family.items()}, indent=2).encode()


def failures() -> list[str]:
    found = []
    golden = GOLDEN.read_bytes()
    stored = {name: grammar.ri_from_json(data) for name, data in json.loads(golden).items()}
    if _as_json(stored) != golden:
        found.append(f"{GOLDEN.name} read and written back by grammar differs")
    if "qfamily.derivation" in sys.modules:
        found.append("reading and writing the JSON wire format loaded qfamily.derivation")
    from qfamily import derivation

    if "numpy" in sys.modules:
        found.append("importing the symbolic layer loaded numpy")
    family = derivation.derive_family()
    if _as_json(family) != golden:
        found.append(f"derive_family() as JSON differs from {GOLDEN.name}")
    for name, ri in family.items():
        if ri.trace and not derivation.replay(ri.trace).same_statement(ri):
            found.append(f"{name}: its trace replays to another statement")
        if not grammar.parse_ri(grammar.format_ri(ri)).same_statement(ri):
            found.append(f"{name}: text round trip changes the statement")
    return found


if __name__ == "__main__":
    found = failures()
    for line in found:
        print(f"FAIL {line}")
    print(f"symbolic layer on Python {sys.version.split()[0]}: {'FAILED' if found else 'ok'}")
    sys.exit(1 if found else 0)
