"""Golden output: the CLI prints exactly what it printed when
``golden_digests.json`` was captured.

Each command's (exit code, stdout, stderr) is hashed with sha256 and
compared with the stored digest, so a refactor that changes one byte of
output in any format fails and names the command.  After an intended output
change, rewrite the digests with ``PYTHONPATH=src python3 tests/test_golden.py``.

The help of every parser level and a set of usage errors are pinned too,
each at three terminal widths.  argparse words and wraps that text a little
differently from one Python minor version to the next, so those digests are
compared only on the version they were captured on, ``HELP_PYTHON``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from plimpton.cli import main
from bench_oracle import bench_workloads

GOLDEN = Path(__file__).with_name("golden_digests.json")

TABLET_RANGE = ["--from", "1;48", "--to", "2;24"]
# 2**61 - 1 is prime: the non-regular path with a large cofactor
VALUES = ("2 09 36", "38 50 10 08", "1", "49", "7",
          "3 48 48 23 38 07 58 50 03 52 31")


def value_commands() -> list[list[str]]:
    return [[cmd, v, "--format", f] for cmd in ("link", "recip")
            for v in VALUES for f in ("text", "json")]


# the commands the benchmark's reproduce workload times, each in every format
REPRODUCE = bench_workloads().reproduce_commands()
COMMANDS = REPRODUCE + value_commands()

# --help at every parser level, then usage errors: no command, an unknown
# one, a missing subcommand or required option, a value outside each
# option's choices, and an abbreviated option (which argparse accepts)
HELP_COMMANDS = [[*path, "--help"] for path in (
    (), ("recip",), ("pairs",), ("rows",), ("tablet",), ("tablet", "verify"),
    ("tablet", "diff"), ("tablet", "errors"), ("extend",), ("link",))]
CHOICE_OPTIONS = [
    (["pairs", *TABLET_RANGE], ("--criterion", "--format")),
    (["rows"], ("--hypothesis",)),
    (["rows", "--hypothesis", "phillips"], ("--reduction", "--leading-one", "--format")),
    (["tablet", "verify"], ("--edition", "--use", "--format")),
    (["tablet", "diff"], ("--hypothesis", "--matching", "--reduction", "--edition",
                          "--format")),
    (["tablet", "errors"], ("--edition", "--format")),
    (["extend", "--side", "lower"], ("--format",)),
    (["extend"], ("--side",)),
    (["recip", "2 05"], ("--format",)),
    (["link", "2 05"], ("--format",)),
]
USAGE_COMMANDS = [[], ["frobnicate"], ["tablet"], ["rows"], ["pairs", "--to", "2;24"],
                  ["recip", "2 05", "--format", "csv"], ["rows", "--hyp", "phillips"]]
USAGE_COMMANDS += [[*prefix, option, "nonesuch"]
                   for prefix, options in CHOICE_OPTIONS for option in options]
WIDTHS = (40, 80, 200)
HELP_PYTHON = (3, 11)


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return _digest(code, out.getvalue(), err.getvalue())


def _key(argv: list[str]) -> str:
    return "plimpton " + " ".join(argv)


def _help_key(width: int, argv: list[str]) -> str:
    return f"COLUMNS={width} " + " ".join(["plimpton", *argv])


def run_cli_at(width: int, argv: list[str]) -> str:
    """``run_cli`` with the terminal ``width`` columns wide."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", str(width))
        return run_cli(argv)


def current_digests() -> dict[str, str]:
    digests = {_key(argv): run_cli(argv) for argv in COMMANDS}
    digests.update({_help_key(w, argv): run_cli_at(w, argv)
                    for argv in HELP_COMMANDS + USAGE_COMMANDS for w in WIDTHS})
    return digests


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(
        [_key(argv) for argv in COMMANDS]
        + [_help_key(w, argv) for argv in HELP_COMMANDS + USAGE_COMMANDS
           for w in WIDTHS])


def test_golden_covers_what_the_benchmark_times():
    assert len(REPRODUCE) == 129


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_output_unchanged(golden, argv):
    assert run_cli(argv) == golden[_key(argv)], f"output changed: {_key(argv)}"


@pytest.mark.skipif(sys.version_info[:2] != HELP_PYTHON,
                    reason="help and usage digests hold for the Python they were "
                           "captured on")
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("argv", HELP_COMMANDS + USAGE_COMMANDS,
                         ids=lambda argv: " ".join(["plimpton", *argv]))
def test_help_and_usage_unchanged(golden, monkeypatch, argv, width):
    monkeypatch.setenv("COLUMNS", str(width))
    key = _help_key(width, argv)
    assert run_cli(argv) == golden[key], f"output changed: {key}"


if __name__ == "__main__":
    if sys.version_info[:2] != HELP_PYTHON:
        sys.exit("write the digests on Python %d.%d, HELP_PYTHON" % HELP_PYTHON)
    GOLDEN.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
