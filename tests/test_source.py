"""Every name that `src/qfamily` defines is read by the program or by the
benchmark: a function, class or constant at module level, and a method that
is not a dunder.  A name that only the tests read belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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

