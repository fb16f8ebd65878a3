"""Every import in the package's modules is used: a static check with the
standard library's ast, so that deleting code also deletes its imports.
``__init__`` is exempt, since it imports to re-export; but each name it
re-exports has a caller in the package or the benchmark.  And importing the
CLI, or running a command, loads no module that only a rarely used path needs."""

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


def fresh_python(code: str, *argv: str) -> str:
    """What ``code`` prints, stripped, in a fresh interpreter given the
    directory that holds the package as sys.argv[1] and ``argv`` after it.
    -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the test from writing
    bytecode."""
    return subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(PACKAGE.parent),
                           *argv], capture_output=True, text=True, timeout=60,
                          check=True).stdout.strip()


def test_importing_the_cli_loads_no_fractions_decimal_numbers_or_csv():
    # SexValue.fraction, from_fraction and the csv format import them when
    # used, and the JSON writer takes its string encoder from the C module
    # _json, so json is not loaded either; no value class is a dataclass,
    # and the transcription is read with open(); a bare interpreter has
    # loaded none of them
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "lazy = {'fractions', 'decimal', 'numbers', 'csv', 'json', "
            "'dataclasses', 'inspect', 'importlib.resources'}; "
            "before = sorted(lazy & set(sys.modules)); import plimpton.cli; "
            "print(before, sorted(lazy & set(sys.modules)))")
    assert fresh_python(code) == "[] []"


@pytest.mark.parametrize("argv", [
    ["recip", "2 05"],
    ["pairs", "--criterion", "mult10", "--from", "2 24", "--to", "1 48"],
    ["rows", "--hypothesis", "phillips"],
    ["tablet", "verify"],
    ["tablet", "diff"],
    ["tablet", "errors"],
    ["extend", "--side", "upper"],
    ["link", "2 09 36"],
], ids=" ".join)
def test_a_command_loads_no_fractions_decimal_or_numbers(argv):
    # the core computes on integers: only SexValue.fraction and
    # from_fraction import fractions, and no command calls them; and a
    # command in text format loads neither the csv nor the json writer
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); from plimpton.cli import main; "
            "out, sys.stdout = sys.stdout, io.StringIO(); code = main(sys.argv[2:]); "
            "sys.stdout = out; print(code, sorted("
            "{'fractions', 'decimal', 'numbers', 'csv', 'json'} & set(sys.modules)))")
    assert fresh_python(code, *argv) == "0 []"


@pytest.mark.parametrize("argv,built", [
    (["rows", "--hypothesis", "phillips"], False),
    (["rows", "--hypothesis=phillips"], True),
], ids=["exact-form", "flag=value"])
def test_only_a_form_argparse_reads_builds_the_parser_and_loads_shutil(argv, built):
    # an argv of exact form is read straight from the command records; any
    # other goes to argparse, whose help formatter imports shutil
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); from plimpton import cli; "
            "out, err = sys.stdout, sys.stderr; sys.stdout = sys.stderr = io.StringIO(); "
            "code = cli.main(sys.argv[2:]); sys.stdout, sys.stderr = out, err; "
            "print(code, cli._build_parser.cache_info().currsize, 'shutil' in sys.modules)")
    assert fresh_python(code, *argv) == f"0 {int(built)} {built}"
