"""The package holds only what it uses: every function, class and method in
src/starshape is referenced by code somewhere in the package, or exported.
Tests and docstrings do not count as uses; test-only helpers live in
tests/oracles.py.  README's library example and command lines run as
written."""

import ast
import io
import re
import shlex
import tokenize
from fractions import Fraction
from pathlib import Path

import starshape
from starshape import cli

SRC = Path(starshape.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_library_example_gives_its_commented_values():
    # Each statement runs in order; an expression statement's trailing
    # comment is the value it must have.
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    comments = {tok.start[0]: tok.string[1:]
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert value == eval(comments[stmt.lineno], {"Fraction": Fraction}), (
                ast.unparse(stmt))
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == 3


def test_readme_command_lines_exit_0_and_write_their_files(tmp_path, monkeypatch):
    # Every starshape line of the Command line section, the conic example
    # included, runs in an empty directory without a cache.
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = [line for block in re.findall(r"```\n(.*?)```", section, re.S)
             for line in block.splitlines() if line.startswith("starshape ")]
    assert len(lines) == 6
    for line in lines:
        args = shlex.split(line)[1:]
        assert cli.main(args) == 0, line
        for flag, path in zip(args, args[1:]):
            if flag in ("--json", "--csv", "--svg"):
                assert (tmp_path / path).is_file(), line
