"""Every imported name is read: an import that its module never uses fails
here.  An assert in the package only narrows a type, since `python -O`
drops it: a check that must hold raises explicitly.  Only the standard
library's ast is used, so no linter is needed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
PACKAGE = [p for p in SOURCES if p.is_relative_to(ROOT / "src")]


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of source that nothing reads, each as
    'line: name'.  An import on a line marked `# noqa` and a __future__
    import are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            noqa = "# noqa" in lines[alias.lineno - 1] or "# noqa" in lines[node.lineno - 1]
            if name != "*" and name not in read and not noqa:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import (\n"
              "    dumps,\n"
              "    loads,\n"
              ")\n"
              "import re  # noqa: F401\n"
              "print(sys.argv, loads)\n")
    assert unused_imports(source) == ["2: os", "4: dumps"]


def checking_asserts(source: str) -> list[int]:
    """The lines of the asserts in source whose condition is neither an
    isinstance(...) call nor an `is not None` comparison: checks that
    `python -O` would skip."""
    def narrows(test: ast.expr) -> bool:
        if isinstance(test, ast.Call):
            return isinstance(test.func, ast.Name) and test.func.id == "isinstance"
        return (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None)

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert) and not narrows(node.test)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_asserts_only_narrow_types(path):
    assert checking_asserts(path.read_text()) == []


def test_the_scan_finds_a_checking_assert():
    source = ("assert isinstance(t, int)\n"
              "assert t.ends is not None\n"
              "assert verify(t), 'failed'\n"
              "assert t is None\n"
              "assert isinstance(t, int) and t\n")
    assert checking_asserts(source) == [3, 4, 5]
