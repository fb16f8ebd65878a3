"""Golden output: the CLI and the scripts print exactly what they printed
when ``golden_digests.json`` was captured.

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
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plimpton
from plimpton.cli import main
from bench_oracle import bench_workloads

GOLDEN = Path(__file__).with_name("golden_digests.json")
REPO = Path(__file__).resolve().parents[1]
SCRIPTS = ("extension_report.py", "regenerate_tablet.py")

FORMATS = ("text", "json", "csv")
HYPOTHESES = ("ns1945", "bruins1949", "price1964", "buck1980",
              "friberg1981", "friberg2007", "phillips")
FIFTEEN_ROW_HYPOTHESES = ("ns1945", "phillips", "bruins1949",
                          "friberg1981", "buck1980")
EDITIONS = ("joyce", "robson")
TABLET_RANGE = ["--from", "1;48", "--to", "2;24"]
# 2**61 - 1 is prime: the non-regular path with a large cofactor
VALUES = ("2 09 36", "38 50 10 08", "1", "49", "7",
          "3 48 48 23 38 07 58 50 03 52 31")


def reproduce_commands() -> list[list[str]]:
    base = [["rows", "--hypothesis", h, "--reduction", r]
            for h in HYPOTHESES for r in ("full", "tablet-faithful")]
    base += [["pairs", "--criterion", c, *TABLET_RANGE]
             for c in ("mult10", "places4", "bruins")]
    base += [["extend", "--side", s] for s in ("lower", "upper")]
    base += [["tablet", sub, "--edition", e]
             for sub in ("verify", "errors") for e in EDITIONS]
    base += [["tablet", "diff", "--hypothesis", h, "--edition", e,
              "--matching", m]
             for h in FIFTEEN_ROW_HYPOTHESES for e in EDITIONS
             for m in ("exact", "similarity")]
    return [argv + ["--format", f] for argv in base for f in FORMATS]


def value_commands() -> list[list[str]]:
    return [[cmd, v, "--format", f] for cmd in ("link", "recip")
            for v in VALUES for f in ("text", "json")]


COMMANDS = reproduce_commands() + value_commands()

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


def run_script(name: str) -> str:
    package_root = str(Path(plimpton.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / name)],
                          capture_output=True, text=True, env=env, timeout=60)
    return _digest(done.returncode, done.stdout, done.stderr)


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
    digests.update({f"scripts/{name}": run_script(name) for name in SCRIPTS})
    return digests


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(
        [_key(argv) for argv in COMMANDS] + [f"scripts/{n}" for n in SCRIPTS]
        + [_help_key(w, argv) for argv in HELP_COMMANDS + USAGE_COMMANDS
           for w in WIDTHS])


def test_golden_covers_what_the_benchmark_times():
    # the benchmark's reproduce workload times these commands
    assert bench_workloads().reproduce_commands() == reproduce_commands()
    assert len(reproduce_commands()) == 129


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


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_output_unchanged(golden, name):
    assert run_script(name) == golden[f"scripts/{name}"], \
        f"output changed: scripts/{name}"


if __name__ == "__main__":
    if sys.version_info[:2] != HELP_PYTHON:
        sys.exit("write the digests on Python %d.%d, HELP_PYTHON" % HELP_PYTHON)
    GOLDEN.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
