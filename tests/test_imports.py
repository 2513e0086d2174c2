"""Every imported name is read: an import that its module never uses fails
here.  Only the standard library's ast is used, so no linter is needed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


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
