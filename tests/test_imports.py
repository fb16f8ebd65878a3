"""Every import in the package's modules is used: a static check with the
standard library's ast, so that deleting code also deletes its imports.
``__init__`` is exempt, since it imports to re-export."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plimpton"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads.  ``from __future__``
    imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from math import gcd, isqrt\nprint(gcd(4, 6), os.sep)\n")
    assert unused_imports(source) == ["isqrt", "regex"]
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
