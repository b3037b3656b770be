"""Checks on the source of `src/qfamily`.

Every name that `src/qfamily` defines is read by the program or by the
benchmark: a function, class or constant at module level, and a method that
is not a dunder.  A name that only the tests read belongs in the tests.

Every float literal x with 0 < |x| < 1e-6 is a tolerance, and sits in a
module-level constant assignment (`NORM_TOL = 1e-10`), where it has a name.
Every such constant is in README's table of tolerances, with its value."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = sorted((ROOT / "src" / "qfamily").glob("*.py"))
READERS = MODULES + sorted((ROOT / "bench").glob("*.py"))

# Names that nothing reads yet, each with the reason it stays.
UNREAD = {
    "entropy.evaluate": "planned caller: check-identities comparing it with "
                        "evaluate_raw on every family coefficient (ROADMAP)",
    "grammar.parse_expr": "the grammar's entry point for a coefficient, "
                          "beside parse_ri and parse_vector",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_statements(body):
    """The statements run at module level, inside if, try and with blocks too."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_statements(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_statements(handler.body)


def _bound_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _definitions(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The module's top-level names and its classes' methods, no dunders."""
    names, methods = [], []
    for node in _module_statements(tree.body):
        names += [name for name in _bound_names(node) if not _dunder(name)]
        if isinstance(node, ast.ClassDef):
            methods += [item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _dunder(item.name)]
    return names, methods


def _reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names and the attribute names that the file's code loads."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def _imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each name the file imports from a module by name,
    as `from .entropy import purify` gives ("entropy", "purify")."""
    return {(node.module.split(".")[-1], alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module is not None
            for alias in node.names}


def _unread() -> list[str]:
    """Each module-level name no file reads, and each method never loaded as
    an attribute, as "module.name"."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    attributes = set()
    # (module, name) of each module-level name some file reads by that name
    read = set()
    for path, tree in trees.items():
        names, attrs = _reads(tree)
        attributes |= attrs
        if path in MODULES:
            read |= {(path.stem, name) for name in names}
        read |= {pair for pair in _imports(tree) if pair[1] in names}
    unread = []
    for path in MODULES:
        module = path.stem
        names, methods = _definitions(trees[path])
        unread += [f"{module}.{name}" for name in names
                   if name not in attributes and (module, name) not in read]
        unread += [f"{module}.{name}" for name in methods if name not in attributes]
    return sorted(set(unread))


def test_every_defined_name_is_read_by_the_program_or_the_benchmark():
    assert _unread() == sorted(UNREAD)



def _constant_assignment(node) -> bool:
    """A module-level assignment to names in capitals only."""
    names = _bound_names(node) if isinstance(node, (ast.Assign, ast.AnnAssign)) else []
    return bool(names) and all(name.lstrip("_").isupper() for name in names)


def _stray_small_floats(source: str) -> list[tuple[int, float]]:
    """(line, value) of each float literal 0 < |x| < 1e-6 outside a
    module-level constant assignment."""
    tree = ast.parse(source)
    named = {id(n) for node in _module_statements(tree.body) if _constant_assignment(node)
             for n in ast.walk(node)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            and 0 < abs(node.value) < 1e-6 and id(node) not in named]


def test_every_small_float_literal_is_a_named_constant():
    strays = {path.stem: _stray_small_floats(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {module: found for module, found in strays.items() if found} == {}


def test_the_literal_check_finds_a_tolerance_inside_a_function():
    source = "TOL = 1e-12\nWIDE = 1e-3\n\ndef close(a, b):\n    return abs(a - b) <= -1e-12 + 2 * TOL\n"
    assert _stray_small_floats(source) == [(5, 1e-12)]


# -- the table of tolerances -------------------------------------------------

TOLERANCE_SUFFIXES = ("_TOL", "_TOLERANCE", "_FLOOR", "_FIDELITY", "_TIE")


def _number(node) -> float:
    """The value of a numeric literal, or of a sum or difference of them."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_number(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left, right = _number(node.left), _number(node.right)
        return left + right if isinstance(node.op, ast.Add) else left - right
    raise ValueError(f"not a numeric literal: {ast.unparse(node)}")


def _tolerances_in_source() -> dict[str, tuple[str, float]]:
    """name -> (module, value) of each module-level tolerance constant."""
    found = {}
    for path in MODULES:
        for node in _module_statements(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _bound_names(node):
                    if name.endswith(TOLERANCE_SUFFIXES):
                        found[name] = (path.stem, _number(node.value))
    return found


def _tolerances_in_table(readme: str) -> dict[str, tuple[str, float]]:
    """name -> (module, value) of each row of the README's "Tolerances" table."""
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|", section, re.MULTILINE)
    return {name: (module, _number(ast.parse(value, mode="eval").body))
            for name, module, value in rows}


def test_every_tolerance_is_in_the_readme_table_with_its_value():
    assert _tolerances_in_table(README.read_text(encoding="utf-8")) == _tolerances_in_source()


def test_the_table_check_finds_a_missing_row_and_a_changed_value():
    readme = README.read_text(encoding="utf-8")
    source = _tolerances_in_source()
    assert len(source) == 11
    row = "| `NOISE_FLOOR` | `channels` | `1e-12` |"
    assert row in readme
    assert set(_tolerances_in_table(readme.replace(row, "|"))) == set(source) - {"NOISE_FLOOR"}
    changed = _tolerances_in_table(readme.replace(row, row.replace("1e-12", "1e-11")))
    assert changed["NOISE_FLOOR"] == ("channels", 1e-11) != source["NOISE_FLOOR"]


# -- the committed mutants ---------------------------------------------------


def test_every_mutant_applies_once_names_checks_that_exist_and_quotes_changes():
    """Each mutant of tests/mutants.py still finds its old text exactly once,
    names checks that exist, and quotes CHANGES.md; the runner itself, which
    runs the checks, is a CI job."""
    from mutants import MUTANTS

    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and (mutant.commands or mutant.tests), mutant.name
        assert all(quote in changes for quote in mutant.source), mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
        for args, _ in mutant.commands:
            assert args.startswith("-m qfamily.cli ") or (ROOT / args).is_file(), args
