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
member round-trips through the text grammar.  It checks that `coherent`
makes tp and sd the statements below (COHERENT) and leaves mother, father
and qe, which move no [c->c], as they are.  Last it checks the layer's
records, which are plain classes written to behave as frozen dataclasses: no
class of the three modules is a dataclass, and every family member, with its
vectors, coefficients and trace steps, comes back from pickle and deepcopy
equal, with an equal hash, and refuses to set or delete a field.  It prints
one line per failed check and exits 1 if there is any.
"""

import copy
import dataclasses
import json
import pickle
import sys
from pathlib import Path

from qfamily import algebra, grammar  # noqa: F401

GOLDEN = Path(__file__).resolve().parent / "golden" / "derivations.json"
# each primitive made coherent: cobits in place of classical bits
COHERENT = {
    "tp": "2 [q->qq] + [qq] >=! [q->q] + 2 [qq]",
    "sd": "[q->q] + [qq] >=! 2 [q->qq]",
}


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
    for name in ("mother", "father", "tp", "sd", "qe"):
        primitive = derivation.PRIMITIVES[name]
        want = grammar.parse_ri(COHERENT[name]) if name in COHERENT else primitive
        if not derivation.coherent(primitive).same_statement(want):
            found.append(f"coherent({name}) is {grammar.format_ri(derivation.coherent(primitive))}, "
                         f"not {grammar.format_ri(want)}")
    for module in (algebra, grammar, derivation):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.append(f"{module.__name__}.{cls.__qualname__} is a dataclass")
    for name, ri in family.items():
        vectors = (ri.lhs, ri.rhs)
        exprs = tuple(coeff for vector in vectors for _, coeff in vector.terms)
        for obj in (ri, *vectors, *exprs, *ri.trace):
            found.extend(f"{name}: {type(obj).__name__} {problem}" for problem in _record_faults(obj))
    return found


def _record_faults(obj) -> list[str]:
    """What `obj` does unlike a frozen dataclass: a copy that is not equal or
    hashes differently, or a field that can be set or deleted."""
    faults = []
    for how, clone in (("pickle", pickle.loads(pickle.dumps(obj))), ("deepcopy", copy.deepcopy(obj))):
        if type(clone) is not type(obj) or clone != obj or hash(clone) != hash(obj):
            faults.append(f"changes through {how}")
    for field in vars(obj):
        for change, args in ((setattr, (obj, field, None)), (delattr, (obj, field))):
            try:
                change(*args)
            except AttributeError:
                continue
            faults.append(f"lets {change.__name__} change {field}")
    return faults


if __name__ == "__main__":
    found = failures()
    for line in found:
        print(f"FAIL {line}")
    print(f"symbolic layer on Python {sys.version.split()[0]}: {'FAILED' if found else 'ok'}")
    sys.exit(1 if found else 0)
