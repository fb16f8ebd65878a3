import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import plimpton
from plimpton import cli, hypotheses, pairs, sexagesimal, tablet
from plimpton.cli import main
from plimpton.hypotheses import THEORIES
from plimpton.pairs import CRITERIA, ReciprocalPair, enumerate_pairs
from plimpton.sexagesimal import (
    SexValue,
    factor_2_3_5,
    from_fraction,
    parse_sex,
    reciprocal,
    render_sex,
)
from test_sexagesimal import power_passes, traced, valuation_passes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Inputs that could hang run in a child process under this budget, so a
# regression fails the test instead of stalling the suite.
TIME_BUDGET_S = 20


def run_bounded(*argv):
    return run_python_bounded("-m", "plimpton.cli", *argv)


def run_python_bounded(*args):
    """The interpreter run with ``args`` in a child process, the package on
    its path: (exit code, stdout, stderr)."""
    package_root = str(Path(plimpton.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          timeout=TIME_BUDGET_S)
    return done.returncode, done.stdout, done.stderr


class TestRecip:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "recip", "2 05")
        assert code == 0
        assert out.strip() == "28 48"

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "recip", "1")
        assert (code, out.strip()) == (0, "1")

    def test_non_regular_names_the_factor(self, capsys):
        code, _, err = run(capsys, "recip", "7")
        assert code == 2
        assert "not regular: factor 7" in err

    def test_long_input_strips_by_valuation(self, capsys):
        # 1 followed by 40,000 zero places: one valuation of 60**40000, whose
        # passes are logarithmic in the exponent, not one per place
        text = "1" + " 00" * 40000
        done = []
        passes = valuation_passes(lambda: done.append(run(capsys, "recip", text)))
        assert passes <= power_passes(40000) == 58
        assert done[0][:2] == (0, "1\n")

    def test_long_non_regular_input_names_the_factor(self, capsys):
        # the cofactor of 2**60000 * 7 comes from one valuation per prime:
        # the argument check runs a dozen lines, not one per factor of 2
        text = render_sex(SexValue(2**60000 * 7))
        _, ran = traced(cli._parse_regular_arg,
                        lambda: pytest.raises(cli.DataError, cli._parse_regular_arg, text))
        assert sum(ran.values()) < 20
        code, out, err = run(capsys, "recip", text)
        assert (code, out) == (2, "")
        assert "not regular: factor 7" in err

    def test_large_prime_cofactor_is_reported_in_bounded_time(self):
        # 2**61 - 1 is prime: no factor is found below the trial bound
        code, out, err = run_bounded("recip", "3 48 48 23 38 07 58 50 03 52 31")
        assert (code, out) == (2, "")
        assert f"not regular: cofactor {2**61 - 1}" in err
        assert "Traceback" not in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "recip", "2 05", "--format", "json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["reciprocal"]["digits"] == "28 48"
        assert doc["reciprocal"]["numerator"] == "1728"


class TestPairs:
    def test_fifteen_lines(self, capsys):
        code, out, _ = run(capsys, "pairs", "--criterion", "mult10",
                           "--from", "2 24", "--to", "1 48")
        assert code == 0
        assert len(out.strip().splitlines()) == 15

    def test_places4_gives_21(self, capsys):
        _, out, _ = run(capsys, "pairs", "--criterion", "places4",
                        "--from", "2 24", "--to", "1 48")
        assert len(out.strip().splitlines()) == 21

    def test_point_range(self, capsys):
        _, out, _ = run(capsys, "pairs", "--from", "2 24", "--to", "2 24")
        assert out.strip().splitlines() == ["2 24  25"]

    def test_correction_log_on_stderr(self, capsys):
        _, _, err = run(capsys, "pairs", "--from", "2 24", "--to", "1 48")
        assert "1 55 2" in err and "1 55 12" in err

    @pytest.mark.parametrize("criterion", ["places4", "mult10"])
    def test_no_log_of_rows_outside_the_range(self, capsys, criterion):
        # every printed row of standard-15 and excluded-pairs has T >= 1;48
        code, out, err = run(capsys, "pairs", "--criterion", criterion,
                             "--from", "1;00", "--to", "1;10")
        assert code == 0 and out
        assert err == ""

    @pytest.mark.parametrize("criterion,lo,hi,logged", [
        # row 8a's T is 2;06 33 45, row 12's 1;55 12; both ends inclusive
        ("places4", "1;50", "2;10", "[excluded-pairs] row 8a Tbar"),
        ("places4", "2;06 33 45", "2;06 33 45", "[excluded-pairs] row 8a Tbar"),
        ("mult10", "1;50", "2;10", "[standard-15] row 12 T"),
        ("mult10", "1;55 12", "1;55 12", "[standard-15] row 12 T"),
    ])
    def test_log_of_rows_inside_a_part_of_the_range(self, capsys, criterion,
                                                    lo, hi, logged):
        _, _, err = run(capsys, "pairs", "--criterion", criterion,
                        "--from", lo, "--to", hi)
        assert [line.split(":")[1].strip() for line in err.splitlines()] == [logged]

    @pytest.mark.parametrize("lo,hi", [("2;00", "2;10"), ("1;48", "2;24")])
    def test_no_log_of_a_printed_row_whose_pair_is_not_listed(self, capsys, lo, hi):
        # bruins lists neither 2;06 33 45, the pair of excluded row 8a, nor
        # any other excluded pair
        code, out, err = run(capsys, "pairs", "--criterion", "bruins",
                             "--from", lo, "--to", hi)
        assert code == 0 and out
        assert "2 06 33 45" not in out
        assert err == ""

    def test_malformed_range(self, capsys):
        code, _, err = run(capsys, "pairs", "--from", "99", "--to", "1 48")
        assert code == 2
        assert "error" in err

    def test_formats_agree(self, capsys):
        _, text_out, _ = run(capsys, "pairs", "--from", "2 24", "--to", "1 48")
        _, json_out, _ = run(capsys, "pairs", "--from", "2 24", "--to", "1 48",
                             "--format", "json")
        _, csv_out, _ = run(capsys, "pairs", "--from", "2 24", "--to", "1 48",
                            "--format", "csv")
        doc = json.loads(json_out)
        json_pairs = [(r["T"]["digits"], r["Tbar"]["digits"])
                      for r in doc["rows"]]
        text_pairs = [tuple(line.split("  ")) for line in
                      text_out.strip().splitlines()]
        csv_pairs = [(r["T"], r["Tbar"]) for r in
                     csv.DictReader(io.StringIO(csv_out))]
        assert json_pairs == text_pairs == csv_pairs
        # digit strings re-parse to the exact rational fields
        for rec in doc["rows"]:
            v = parse_sex(rec["T"]["digits"], "fixed")
            assert v.fraction.numerator == int(rec["T"]["numerator"])
            assert v.fraction.denominator == int(rec["T"]["denominator"])

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "pairs", "--from", "2 24", "--to", "1 48")
        _, out2, _ = run(capsys, "pairs", "--from", "1 48", "--to", "2 24")
        assert out1 == out2


def _option(parser, dest: str, *path: str):
    """The option ``dest`` of the subcommand reached by ``path``."""
    for name in path:
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction))
        parser = subcommands.choices[name]
    return next(a for a in parser._actions if a.dest == dest)


class TestCriterionVocabulary:
    """The criterion names are CRITERIA's keys everywhere: in the CLI, in
    the hypotheses and in enumerate_pairs; the theory names are THEORIES'
    keys in both options that take one."""

    def test_cli_choices_are_the_criteria(self):
        criterion = _option(cli._build_parser(), "criterion", "pairs")
        assert criterion.choices == tuple(CRITERIA) == ("mult10", "places4", "bruins")

    @pytest.mark.parametrize("path", [("rows",), ("tablet", "diff")])
    def test_cli_choices_are_the_theories(self, path):
        hypothesis = _option(cli._build_parser(), "hypothesis", *path)
        assert hypothesis.choices == tuple(THEORIES)
        assert not hasattr(hypotheses, "HYPOTHESIS_TAGS")

    def test_theories_name_criteria(self):
        # each theory's test is a CRITERIA entry or a (P, Q) row test
        keeps = [keep for _, _, keep in THEORIES.values()]
        rules = [keep for keep in keeps if keep in CRITERIA.values()]
        assert rules and all(keep in rules or keep.func is hypotheses._pq_keep
                             for keep in keeps)

    def test_no_second_name(self):
        lo, hi = (SexValue(t, -3) for t in pairs.PLIMPTON_PADDED)
        with pytest.raises(ValueError, match="unknown criterion kind 'places_only'"):
            enumerate_pairs("places_only", lo, hi)


class TestRows:
    def test_friberg2007_has_38(self, capsys):
        _, out, _ = run(capsys, "rows", "--hypothesis", "friberg2007")
        assert len(out.strip().splitlines()) == 38

    def test_unknown_hypothesis_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "rows", "--hypothesis", "euclid")
        assert code == 1

    def test_phillips_faithful_matches_tablet(self, capsys):
        _, out, _ = run(capsys, "rows", "--hypothesis", "phillips",
                        "--reduction", "tablet-faithful")
        lines = out.strip().splitlines()
        assert lines[10].split("  ")[:3] == ["1 33 45", "45", "1 15"]
        assert lines[14].split("  ")[:3] == ["1 23 13 46 40", "28", "53"]

    def test_leading_one_off(self, capsys):
        _, out, _ = run(capsys, "rows", "--hypothesis", "phillips",
                        "--leading-one", "off")
        assert out.strip().splitlines()[0].startswith("59 00 15")


class TestTablet:
    def test_verify(self, capsys):
        code, out, _ = run(capsys, "tablet", "verify", "--edition", "robson")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert sum("fail" in line for line in lines) == 1
        assert "11" in [l for l in lines if "fail" in l][0]

    def test_diff(self, capsys):
        code, out, _ = run(capsys, "tablet", "diff", "--hypothesis",
                           "phillips", "--matching", "exact",
                           "--edition", "robson")
        assert code == 0
        assert "15/15 exact" in out

    def test_errors(self, capsys):
        code, out, _ = run(capsys, "tablet", "errors", "--edition", "robson")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert any("square_of_correct" in line for line in lines)


class TestExtendAndLink:
    def test_extend_upper_28(self, capsys):
        _, out, _ = run(capsys, "extend", "--side", "upper")
        assert len(out.strip().splitlines()) == 28

    def test_extend_lower_24_and_corrections(self, capsys):
        _, out, err = run(capsys, "extend", "--side", "lower")
        lines = out.strip().splitlines()
        assert len(lines) == 24
        assert lines[-1].split("  ")[:3] == ["-1", "2 30", "24"]
        assert "18 31 64 0" in err and "18 31 06 40" in err
        assert "3 29 10" in err and "3 28 20" in err

    def test_link_example(self, capsys):
        code, out, _ = run(capsys, "link", "2 09 36")
        assert code == 0
        assert out.strip() == "(54, 1 06 40) × (1/25, 25)"

    _exponent = st.integers(-200, 200)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(_exponent, _exponent, _exponent))
    @example((0, 0, 0))
    @example((-5, 0, 0))
    @example((0, 0, -2))
    @example((-1, 1, 0))
    @example((7, -3, 0))
    @example((-200, 200, -200))
    def test_factor_text_is_the_fractions_text(self, factor):
        # the factor's integers against fractions.Fraction: str(chain)
        # and link's JSON factor_value, for a chain of any factor
        a, b, c = factor
        f = Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
        start = ReciprocalPair.from_T_mantissa(54)
        chain = hypotheses.LinkChain(start, factor)
        assert str(chain) == ("in table" if factor == (0, 0, 0)
                              else f"{start} × ({f}, {1 / f})")
        out = io.StringIO()
        with mock.patch.object(hypotheses, "link_to_standard", lambda pair: chain), \
                contextlib.redirect_stdout(out):
            assert main(["link", "2 09 36", "--format", "json"]) == 0
        doc = json.loads(out.getvalue())
        assert doc["factor"] == list(factor)
        assert doc["factor_value"] == {"numerator": str(f.numerator),
                                       "denominator": str(f.denominator)}

    def test_link_in_table(self, capsys):
        _, out, _ = run(capsys, "link", "2 24")
        assert out.strip() == "in table"

    def test_link_non_regular(self, capsys):
        code, _, err = run(capsys, "link", "49")
        assert code == 2
        assert "factor 7" in err

    def test_link_at_depth_17_finishes(self):
        # 2**23: the deepest chain among four-place values
        code, out, _ = run_bounded("link", "38 50 10 08")
        assert (code, out.strip()) == (0, "(1 04, 56 15) × (131072, 1/131072)")
        code, out, _ = run_bounded("link", "38 50 10 08", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["steps"], doc["factor"]) == (17, [17, 0, 0])


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1
        assert run(capsys, "pairs", "--from", "2 24")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command", ["recip", "link"])
    def test_one_value_commands_offer_no_csv(self, capsys, command):
        # they print one value, never a table
        code, out, err = run(capsys, command, "2 05", "--format", "csv")
        assert (code, out) == (1, "")
        assert "invalid choice: 'csv'" in err


class TestNonAsciiDigits:
    @pytest.mark.parametrize("argv", [
        ("recip", "\u0661\u0662"),             # Arabic-Indic 12
        ("recip", "\U0001d7df"),                # mathematical bold 7
        ("recip", "\u00b2"),                    # superscript 2
        ("link", "\uff12 \uff10\uff15"),       # fullwidth 2 05
        ("pairs", "--from", "\u0662;24", "--to", "1;48"),
        ("pairs", "--from", "2;24", "--to", "1;\u0664\u0668"),
    ])
    def test_rejected_with_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "bad digit token" in err
        assert "Traceback" not in err

    def test_rejected_without_traceback_from_a_fresh_process(self):
        code, out, err = run_bounded("recip", "\u0661\u0662")
        assert (code, out) == (2, "")
        assert "bad digit token" in err
        assert "Traceback" not in err


def _sex(n: int) -> str:
    return render_sex(SexValue(n))


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="the interpreter's default int-to-string limit")
class TestIntStringLimit:
    """Python converts an int of at most 4,300 decimal digits to a string;
    2**14284 has exactly 4,300.  A decimal field past that is a data error,
    and base-60 output has no such bound."""

    def test_decimal_at_and_past_the_limit(self):
        assert len(cli._decimal("field", 2**14284)) == 4300
        with pytest.raises(cli.DataError,
                           match="^field has more than 4300 decimal digits"):
            cli._decimal("field", 2**14285)

    def test_recip_json_at_the_limit(self, capsys):
        # the reciprocal of 2**7312 is 15**3656, of 4,300 digits
        code, out, _ = run(capsys, "recip", _sex(2**7312), "--format", "json")
        assert code == 0
        assert json.loads(out)["reciprocal"]["numerator"] == str(15**3656)

    def test_recip_json_past_the_limit(self, capsys):
        code, out, err = run(capsys, "recip", _sex(2**7313), "--format", "json")
        assert (code, out) == (2, "")
        assert "numerator has more than 4300 decimal digits" in err
        assert "Traceback" not in err and "set_int_max_str_digits" not in err

    def test_recip_text_has_no_limit(self, capsys):
        code, out, _ = run(capsys, "recip", _sex(2**14291))
        assert code == 0
        assert parse_sex(out.strip()).mantissa == 2 * 15**7146

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_link_at_the_limit(self, capsys, fmt):
        # the chain from (1 04, 56 15) multiplies by 2**14284
        code, out, err = run(capsys, "link", _sex(2**14290), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["factor"] == [14284, 0, 0]
        else:
            assert out.startswith(f"(1 04, 56 15) × ({2**14284}, 1/")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_link_past_the_limit(self, capsys, fmt):
        code, out, err = run(capsys, "link", _sex(2**14291), "--format", fmt)
        assert (code, out) == (2, "")
        field = "link factor" if fmt == "text" else "numerator"
        assert f"{field} has more than 4300 decimal digits" in err
        assert "Traceback" not in err and "set_int_max_str_digits" not in err

    def test_large_cofactor_past_the_limit(self, capsys):
        # 10007 is the least prime above the trial bound
        code, out, err = run(capsys, "recip", _sex(10007**1100))
        assert (code, out) == (2, "")
        assert "not regular: cofactor has more than 4300 decimal digits" in err

    def test_digit_token_past_the_limit(self, capsys):
        code, out, err = run(capsys, "recip", "9" * 5000)
        assert (code, out) == (2, "")
        assert "digit token of 5000 characters is too long" in err
        assert "set_int_max_str_digits" not in err


# Values the fuzzed argv draws from: ASCII and non-ASCII digits, the units
# separator and the digit separators, and values past the int-to-string
# limit, regular (2**7313, 2**14284, 2**14291) or not (a trailing 07).
_LARGE = [_sex(2**e) for e in (7313, 14284, 14291)]
_FUZZ_VALUES = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", "05", "24", "48", "59", "60",
                              "999", "\u0662", "\U0001d7df", "\u00b2",
                              ";", ":", " ", "-", "x"]),
             max_size=8).map("".join),
    st.sampled_from(_LARGE),
    st.sampled_from(_LARGE).map(lambda v: v + " 07"),
)


@st.composite
def _fuzz_argv(draw, parser):
    """An argv for ``parser`` built from its own arguments: each choice
    from its choices, every other value from _FUZZ_VALUES; a required
    option is left out now and then, an optional one half the time."""
    argv, subcommands = [], None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subcommands = action
        elif isinstance(action, argparse._HelpAction):
            continue
        elif not action.option_strings:
            argv.append(draw(_FUZZ_VALUES))
        elif draw(st.integers(0, 9)) < (9 if action.required else 5):
            values = (st.sampled_from(action.choices) if action.choices
                      else _FUZZ_VALUES)
            argv += [action.option_strings[0], draw(values)]
    if subcommands is not None:
        name = draw(st.sampled_from(sorted(subcommands.choices)))
        argv = [name] + draw(_fuzz_argv(subcommands.choices[name])) + argv
    return argv


class TestFuzz:
    @settings(max_examples=100, deadline=2000, derandomize=True,
              database=None)
    @given(argv=_fuzz_argv(cli._build_parser()))
    def test_any_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert "set_int_max_str_digits" not in err.getvalue()


_JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029\xe9\u20ac\U0001f600'),
    st.characters()))
_JSON_TREES = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(), st.integers(-10**40, 10**40),
              st.booleans(), st.none()),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(_JSON_TEXT, children, max_size=4)),
    max_leaves=30)


def bench_reproduce_commands(monkeypatch) -> list[list[str]]:
    """The commands of the benchmark's reproduce workload, imported
    read-only as tests/test_golden.py does: no bytecode is written into
    bench/, and its modules are dropped again after."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        return importlib.import_module("workloads").reproduce_commands()
    finally:
        for name in ("workloads", "checks", "oracle"):
            sys.modules.pop(name, None)


class TestJsonEmitter:
    """The CLI writes JSON with its own emitter; the standard library's
    json.dumps(..., indent=2) is the oracle for its bytes."""

    @given(_JSON_TREES)
    @example({})
    @example([[], {}, [{}], {"": []}])
    @example({"a\u2028\U0001f600": [-(10**30), True, False, None, "\\\"\x00"]})
    def test_matches_json_dumps(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2)

    def test_every_json_command_reads_back_as_written(self, capsys, monkeypatch):
        commands = [argv for argv in bench_reproduce_commands(monkeypatch)
                    if argv[-2:] == ["--format", "json"]]
        # the golden regular values, and one whose reciprocal's numerator
        # has 4,300 digits
        commands += [[cmd, value, "--format", "json"] for cmd in ("recip", "link")
                     for value in ("2 09 36", "38 50 10 08", "1", _sex(2**7312))]
        assert len(commands) == 43 + 8
        for argv in commands:
            # tablet verify exits 2 on the joyce edition, with its document
            out = run(capsys, *argv)[1]
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


class TestWorkCeilings:
    """Pairs built and factorizations made by one command.  The four-place
    enumerations test T's range and both members' rule before they build a
    pair, so each of these commands builds the pairs it prints (and a
    correction log's), not all 432 (or 864)."""

    CEILING = 50

    @staticmethod
    def count_built(monkeypatch, cls=ReciprocalPair) -> list:
        built = []
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
        return built

    @staticmethod
    def count_calls(monkeypatch, fn=factor_2_3_5) -> list:
        called = []

        def counting(*args):
            called.append(args)
            return fn(*args)

        # modules import these functions by name: count the call under each
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "plimpton"
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, counting)
        return called

    @pytest.mark.parametrize("argv", [
        ("rows", "--hypothesis", "phillips"),
        ("pairs", "--criterion", "mult10", "--from", "1;48", "--to", "2;24"),
        ("extend", "--side", "lower"),
        ("extend", "--side", "upper"),
        ("tablet", "diff", "--hypothesis", "bruins1949"),
    ])
    def test_ceiling(self, capsys, monkeypatch, argv):
        built = self.count_built(monkeypatch)
        factored = self.count_calls(monkeypatch)
        assert run(capsys, *argv)[0] == 0
        assert built, "no pair was counted"
        assert len(built) <= self.CEILING
        assert len(factored) <= self.CEILING

    def test_tablet_range_builds_its_pairs_once(self, capsys, monkeypatch):
        # the correction log looks the listed pairs up and builds none:
        # both members' rule is tested before a pair is built
        built = self.count_built(monkeypatch)
        assert run(capsys, "pairs", "--criterion", "mult10",
                   "--from", "1;48", "--to", "2;24")[0] == 0
        assert len(built) == 15

    @pytest.mark.parametrize("argv,count", [
        (("rows", "--hypothesis", "phillips"), 15),
        (("rows", "--hypothesis", "bruins1949"), 15),
        (("extend", "--side", "lower"), 24),
        (("extend", "--side", "upper"), 28),
    ])
    def test_builds_exactly_what_it_prints(self, capsys, monkeypatch, argv, count):
        built = self.count_built(monkeypatch)
        assert run(capsys, *argv)[0] == 0
        assert len(built) == count

    @pytest.mark.parametrize("argv,ceiling", [
        (("rows", "--hypothesis", "phillips"), 110),     # 182 by division
        (("rows", "--hypothesis", "friberg2007"), 270),  # 456 by division
    ])
    def test_rows_read_their_pairs_off_the_index(
            self, capsys, monkeypatch, argv, ceiling):
        # each pair is built from its two four-place index entries, with no
        # reciprocal divided out again, and each row's X and Y from one
        # aligned pair: six values a row, besides the printed S and D
        values = self.count_built(monkeypatch, SexValue)
        divided = self.count_calls(monkeypatch, reciprocal)
        assert run(capsys, *argv)[0] == 0
        assert divided == []
        assert len(values) <= ceiling

    @pytest.mark.parametrize("argv", [
        ("rows", "--hypothesis", "phillips"),
        ("tablet", "diff", "--hypothesis", "bruins1949"),
    ])
    def test_rows_align_each_pair_once(self, capsys, monkeypatch, argv):
        # build_row aligns T and Tbar once and reads X, Y, S, D, A and the
        # factor off those integers (45 alignments by composition)
        aligned = self.count_calls(monkeypatch, sexagesimal._aligned)
        assert run(capsys, *argv)[0] == 0
        assert len(aligned) <= 15

    def test_diff_compares_s_and_d_as_integers(self, capsys, monkeypatch):
        # five values a row: T, Tbar, X, Y and A (105 with S and D as
        # values), once the first call has read the tablet
        assert run(capsys, "tablet", "diff")[0] == 0
        values = self.count_built(monkeypatch, SexValue)
        assert run(capsys, "tablet", "diff")[0] == 0
        assert len(values) <= 75

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_extend_selects_its_table_once_per_use(self, capsys, monkeypatch, side):
        # one selection for the listed pairs, one for the correction log
        selected = self.count_calls(monkeypatch, pairs._four_place_entries)
        assert run(capsys, "extend", "--side", side)[0] == 0
        assert len(selected) == 2

    def test_value_fields_are_set_by_their_slots(self):
        # each _Value sets its fields by its slot descriptors' __set__
        for path in sorted(Path(plimpton.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "object.__setattr__" not in text, path.name
            assert not re.search(r"\b_set\b", text), path.name

    @pytest.mark.parametrize("criterion,count", [("places4", 21), ("bruins", 15)])
    def test_excluded_pairs_are_built_by_the_enumeration(
            self, capsys, monkeypatch, criterion, count):
        # the listed pairs, enumerated from the four-place table; the
        # correction log selects the excluded six as index entries and
        # builds no pair: nothing is factorized
        built = self.count_built(monkeypatch)
        factored = self.count_calls(monkeypatch)
        assert run(capsys, "pairs", "--criterion", criterion,
                   "--from", "1;48", "--to", "2;24")[0] == 0
        assert len(built) == count
        assert factored == []

    @pytest.mark.parametrize("tag", ["ns1945", "price1964", "buck1980",
                                     "friberg1981", "friberg2007"])
    def test_pq_theories_factorize_nothing(self, capsys, monkeypatch, tag):
        # P and Q come with their triples from the four-place table
        factored = self.count_calls(monkeypatch)
        assert run(capsys, "rows", "--hypothesis", tag)[0] == 0
        assert factored == []

    def test_link_factorizes_its_input_once(self, capsys, monkeypatch):
        # the standard table and the linked pairs are built from triples
        factored = self.count_calls(monkeypatch)
        assert run(capsys, "link", "2 09 36", "--format", "json")[0] == 0
        assert len(factored) <= 1

    def test_link_builds_only_its_input_pair(self, capsys, monkeypatch):
        # the start pairs are built once per process, on the first link
        assert run(capsys, "link", "2 09 36")[0] == 0
        built = self.count_built(monkeypatch)
        assert run(capsys, "link", "2 09 36")[0] == 0
        assert len(built) == 1

    @pytest.mark.parametrize("tag", ["buck1980", "friberg1981"])
    def test_pq_theories_convert_no_fraction(self, capsys, monkeypatch, tag):
        # the bounds on P/Q are integer tests: no candidate becomes a SexValue
        converted = []

        def counting_from_fraction(value):
            converted.append(value)
            return from_fraction(value)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "plimpton"
                    and getattr(module, "from_fraction", None) is from_fraction):
                monkeypatch.setattr(module, "from_fraction", counting_from_fraction)
        assert run(capsys, "rows", "--hypothesis", tag)[0] == 0
        assert converted == []

    @staticmethod
    def count_renders(monkeypatch) -> list:
        rendered = []

        def counting_render(v, *args):
            rendered.append(v)
            return render_sex(v, *args)

        monkeypatch.setattr(cli, "render_sex", counting_render)
        return rendered

    @staticmethod
    def count_fraction_reads(monkeypatch) -> list:
        reads = []
        fraction = SexValue.fraction.fget

        def counting_fraction(self):
            reads.append(self)
            return fraction(self)

        monkeypatch.setattr(SexValue, "fraction", property(counting_fraction))
        return reads

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_rows_render_only_the_printed_columns(self, capsys, monkeypatch, fmt):
        # A, S and D of 15 rows, and no value read as a Fraction
        rendered = self.count_renders(monkeypatch)
        reads = self.count_fraction_reads(monkeypatch)
        assert run(capsys, "rows", "--hypothesis", "phillips",
                   "--format", fmt)[0] == 0
        assert len(rendered) == 45
        assert reads == []

    def test_rows_json_renders_every_value(self, capsys, monkeypatch):
        # T, Tbar, X, Y, S, D and A of 15 rows, their exact fractions taken
        # from mantissa and exponent, none read as a Fraction
        rendered = self.count_renders(monkeypatch)
        reads = self.count_fraction_reads(monkeypatch)
        assert run(capsys, "rows", "--hypothesis", "phillips",
                   "--format", "json")[0] == 0
        assert len(rendered) == 105
        assert reads == []

    @pytest.mark.parametrize("argv", [
        ("rows", "--hypothesis", "phillips", "--format", "json"),
        ("link", "2 09 36", "--format", "json"),
    ])
    def test_json_skips_the_pure_python_encoder(self, capsys, monkeypatch, argv):
        # json.dumps(..., indent=2) builds its encoder with _make_iterencode
        made = []
        make_iterencode = json.encoder._make_iterencode

        def counting_make_iterencode(*args, **kwargs):
            made.append(1)
            return make_iterencode(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting_make_iterencode)
        assert run(capsys, *argv)[0] == 0
        assert made == []

    @pytest.mark.parametrize("argv", [
        ("tablet", "diff", "--hypothesis", "phillips"),
        # row 11's ratio 15 is written from integers
        ("tablet", "diff", "--matching", "similarity", "--reduction", "full",
         "--format", "json"),
        ("pairs", "--from", "2;24", "--to", "1;48"),  # ends given high first
        ("link", "2 09 36", "--format", "json"),
    ])
    def test_commands_compare_without_fractions(self, capsys, monkeypatch, argv):
        reads = self.count_fraction_reads(monkeypatch)
        assert run(capsys, *argv)[0] == 0
        assert reads == []


class TestSetupReuse:
    """The parser, the parsed transcription and the four-place triple table
    are built once per process; every main() call must still behave as if
    it ran alone."""

    ROWS = ("rows", "--hypothesis", "phillips", "--format", "csv")

    def test_usage_error_leaves_next_call_unchanged(self, capsys):
        before = run(capsys, *self.ROWS)
        assert run(capsys, "rows", "--hypothesis", "nonesuch")[0] == 1
        assert run(capsys, "pairs", "--from", "2 24")[0] == 1
        assert run(capsys, *self.ROWS) == before

    def test_rebound_command_is_called(self, capsys, monkeypatch):
        assert run(capsys, *self.ROWS)[0] == 0  # the parser exists now
        called = []

        def fake_rows(args):
            called.append(args.hypothesis)
            return 0

        monkeypatch.setattr(cli, "cmd_rows", fake_rows)
        assert run(capsys, *self.ROWS) == (0, "", "")
        assert called == ["phillips"]

    def test_tablet_data_returns_a_fresh_list(self):
        first = tablet.tablet_data("joyce")
        expected = list(first)
        first.reverse()
        first.pop()
        assert tablet.tablet_data("joyce") == expected
        assert tablet.tablet_data("robson") != expected  # row 15 differs

    def test_ten_calls_build_the_parser_and_read_the_tablet_once(
            self, capsys, monkeypatch):
        top_parsers, reads = [], []
        parser_init = cli._Parser.__init__
        read_resource = tablet._read_resource

        def counting_parser_init(self, *args, **kwargs):
            if kwargs.get("prog") == "plimpton":  # not a subcommand's parser
                top_parsers.append(1)
            parser_init(self, *args, **kwargs)

        def counting_read():
            reads.append(1)
            return read_resource()

        monkeypatch.setattr(cli._Parser, "__init__", counting_parser_init)
        monkeypatch.setattr(tablet, "_read_resource", counting_read)
        for argv in [("tablet", "verify"), ("tablet", "diff"),
                     ("tablet", "errors"), self.ROWS, ("recip", "2 05")] * 2:
            assert run(capsys, *argv)[0] == 0
        assert len(top_parsers) <= 1
        assert len(reads) <= 1
