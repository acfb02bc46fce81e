"""The package holds only what it uses: every function, class and method in
src/starshape is referenced by code somewhere in the package, or exported.
Tests and docstrings do not count as uses; test-only helpers live in
tests/oracles.py."""

import ast
from pathlib import Path

import starshape

SRC = Path(starshape.__file__).resolve().parent


def definitions(tree):
    """(name, line) of the module-level functions and classes, and of the
    methods of module-level classes other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno


def test_every_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{name}:{line} {ident}"
              for name, tree in trees.items()
              for ident, line in definitions(tree)
              if ident not in used and ident not in starshape.__all__]
    assert unused == []


def test_every_export_resolves_once():
    names = starshape.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(starshape, name)] == []
