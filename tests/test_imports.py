"""Every import in the package's modules is used: a static check with the
standard library's ast, so that deleting code also deletes its imports.
``__init__`` is exempt, since it imports to re-export; but each name it
re-exports has a caller in the package or the benchmark.  And importing the
CLI loads no module that only a rarely used path needs."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plimpton"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = PACKAGE.parents[1] / "bench"


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


def read_names(source: str) -> set[str]:
    """The names a module reads: a bare name loaded, or an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_the_check_finds_read_names():
    assert read_names("x = a.b(c)\ndel d\n") == {"a", "b", "c"}


def test_every_export_has_a_caller():
    # a name plimpton re-exports is read by a module of the package other
    # than __init__, or named in the benchmark's code
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in MODULES))
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py")))
    assert len(exported) >= 30
    assert [name for name in exported if name not in read
            and not re.search(rf"\b{name}\b", bench)] == []


def test_importing_the_cli_loads_no_fractions_decimal_numbers_or_csv():
    # SexValue.fraction, from_fraction and the csv format import them when
    # used; a bare interpreter has loaded none of them
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "lazy = {'fractions', 'decimal', 'numbers', 'csv'}; "
            "before = sorted(lazy & set(sys.modules)); import plimpton.cli; "
            "print(before, sorted(lazy & set(sys.modules)))")
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the test from writing bytecode
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[] []"
