"""The README's examples: its library example runs as a doctest, and each
``plimpton …`` line of its CLI block runs through ``main()``."""

import contextlib
import doctest
import io
import shlex
from pathlib import Path

import pytest

from plimpton.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text(encoding="utf-8")
_BLOCK = _TEXT.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
CLI_LINES = [line for line in _BLOCK.splitlines() if line.startswith("plimpton ")]
assert CLI_LINES, "the README's CLI block has no plimpton line"


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
