"""The README against the code: its library example runs as a doctest, each
``plimpton …`` line of its CLI block runs through ``main()``, its tables of
tags list the code's tags in order, every package name it puts in backticks
exists, and its prose stays in short lines."""

import builtins
import contextlib
import doctest
import io
import re
import shlex
import sys
import types
from pathlib import Path

import pytest

import plimpton
from plimpton.cli import main
from plimpton.hypotheses import PRINTED_TABLES, THEORIES
from plimpton.pairs import CRITERIA

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text(encoding="utf-8")
_BLOCK = _TEXT.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
CLI_LINES = [line for line in _BLOCK.splitlines() if line.startswith("plimpton ")]
assert CLI_LINES, "the README's CLI block has no plimpton line"
# the text outside fenced code blocks, and each span it puts in backticks
_PROSE = re.sub(r"^```.*?^```$", "", _TEXT, flags=re.M | re.S)
_SPANS = re.findall(r"`([^`]+)`", _PROSE)
_MODULES = [plimpton] + [v for v in vars(plimpton).values() if isinstance(v, types.ModuleType)]


def test_library_example():
    failed, attempted = doctest.testfile(str(README), module_relative=False,
                                         encoding="utf-8")
    assert attempted and not failed


@pytest.mark.parametrize("line", CLI_LINES,
                         ids=[line.partition("#")[0].strip() for line in CLI_LINES])
def test_every_cli_line_runs(line):
    # the line exits 0, and if it ends in "# -> X" it prints X
    command, _, expected = line.partition("# -> ")
    argv = shlex.split(command, comments=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[1:])
    assert code == 0
    if expected:
        assert out.getvalue().strip() == expected.strip()


@pytest.mark.parametrize("header, tags", [
    ("hypothesis", THEORIES), ("criterion", CRITERIA), ("printed table", PRINTED_TABLES)],
    ids=["hypothesis", "criterion", "printed-table"])
def test_each_table_of_tags_lists_the_codes_tags_in_order(header, tags):
    # the table whose first header cell is `header`: its rows' first cells
    rows = _PROSE.split(f"\n| {header} |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    assert tuple(re.match(r"\| `([^`]+)` \|", row)[1] for row in rows) == tuple(tags)


def _exists(dotted: str, modules) -> bool:
    for obj in modules:
        try:
            for name in dotted.split("."):
                obj = getattr(obj, name)
        except AttributeError:
            continue
        return True
    return False


def test_every_backticked_package_name_exists():
    # dotted plimpton.… names; the name before each call form's "(", unless
    # it is a builtin's or the standard library's; and the names each
    # library bullet lists for its module, up to the bullet's first period
    wanted = [(name.removeprefix("plimpton").lstrip("."), [plimpton])
              for span in _SPANS for name in re.findall(r"\bplimpton(?:\.\w+)+", span)]
    wanted += [(name, _MODULES) for span in _SPANS
               for name in re.findall(r"([A-Za-z_][\w.]*)\(", span)
               if name.split(".")[0] not in sys.stdlib_module_names
               and not hasattr(builtins, name.split(".")[0])]
    listed = re.findall(r"^- `plimpton\.(\w+)`: ([^.]*)\.", _PROSE, flags=re.M)
    assert len(listed) == len(_MODULES) - 1
    wanted += [(name, [getattr(plimpton, module)])
               for module, names in listed for name in re.findall(r"`(\w+)`", names)]
    assert [name for name, modules in wanted if not _exists(name, modules)] == []


def test_no_prose_line_is_over_200_characters():
    assert [line for line in _PROSE.splitlines() if len(line) > 200] == []
