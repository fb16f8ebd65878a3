import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import plimpton
from plimpton import cli, hypotheses, pairs, sexagesimal, tablet
from plimpton.cli import main
from plimpton.hypotheses import THEORIES
from plimpton.pairs import CRITERIA, ReciprocalPair, enumerate_pairs
from plimpton.rows import RowCandidate, build_row
from plimpton.sexagesimal import (
    SexValue,
    SexagesimalError,
    factor_2_3_5,
    from_fraction,
    parse_sex,
    reciprocal,
    render_sex,
)
from bench_oracle import bench_workloads
from counting import counted
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


def package_env() -> dict:
    """This process's environment with the package on the path."""
    package_root = str(Path(plimpton.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def run_python_bounded(*args):
    """The interpreter run with ``args`` in a child process, the package on
    its path: (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=package_env(),
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
                        lambda: pytest.raises(SexagesimalError, cli._parse_regular_arg, text))
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


def _recorded(path: tuple[str, ...], name: str) -> dict:
    """The add_argument keywords that ``COMMANDS`` records for ``name``."""
    return dict(cli.COMMANDS[path][1])[name]


class TestCriterionVocabulary:
    """The criterion names are CRITERIA's keys everywhere: in the CLI's
    records and parser, in the hypotheses and in enumerate_pairs; the theory
    names are THEORIES' keys in both options that take one; the edition,
    use and matching names are tablet's EDITIONS, USES and MATCHINGS."""

    def test_cli_choices_are_the_criteria(self):
        criterion = _option(cli._build_parser(), "criterion", "pairs")
        assert criterion.choices == tuple(CRITERIA) == ("mult10", "places4", "bruins")
        assert _recorded(("pairs",), "--criterion")["choices"] == tuple(CRITERIA)

    @pytest.mark.parametrize("path", [("rows",), ("tablet", "diff")])
    def test_cli_choices_are_the_theories(self, path):
        hypothesis = _option(cli._build_parser(), "hypothesis", *path)
        assert hypothesis.choices == tuple(THEORIES)
        assert _recorded(path, "--hypothesis")["choices"] == tuple(THEORIES)
        assert not hasattr(hypotheses, "HYPOTHESIS_TAGS")

    @pytest.mark.parametrize("path,option,choices", [
        (("tablet", "verify"), "--edition", tablet.EDITIONS),
        (("tablet", "diff"), "--edition", tablet.EDITIONS),
        (("tablet", "errors"), "--edition", tablet.EDITIONS),
        (("tablet", "verify"), "--use", tablet.USES),
        (("tablet", "diff"), "--matching", tablet.MATCHINGS),
    ])
    def test_cli_choices_are_the_tablet_vocabulary(self, path, option, choices):
        action = _option(cli._build_parser(), option.removeprefix("--"), *path)
        assert action.choices == choices
        assert _recorded(path, option)["choices"] == choices

    def test_theories_name_criteria(self):
        # each theory's test is a CRITERIA entry or a (P, Q) row test, and
        # its row rule is build_row but for Table 1's
        keeps = [keep for _, _, _, keep in THEORIES.values()]
        rules = [keep for keep in keeps if keep in CRITERIA.values()]
        assert rules and all(keep in rules or keep.func is hypotheses._pq_keep
                             for keep in keeps)
        assert {tag: row for tag, (row, *_) in THEORIES.items()} == dict.fromkeys(
            THEORIES, build_row) | {"ns1945": hypotheses._table1_row}

    def test_no_second_name(self):
        lo, hi = (SexValue(t, -3) for t in pairs.PLIMPTON_PADDED)
        with pytest.raises(ValueError, match="unknown criterion kind 'places_only'"):
            enumerate_pairs("places_only", lo, hi)


def _describe(action) -> str:
    """One argument as usage states it: its flag or name, its choices, then
    its default or that it is required."""
    text = action.option_strings[0] if action.option_strings else action.dest
    if action.choices:
        text += " " + "|".join(action.choices)
    if action.default is not None:
        text += f"={action.default}"
    return text + (" required" if action.required and action.option_strings else "")


_THEORY_NAMES = "|".join(THEORIES)
# every leaf command's arguments in usage order, as _describe states them
SURFACE = {
    ("recip",): ["value", "--format text|json=text"],
    ("pairs",): ["--criterion mult10|places4|bruins=mult10", "--from required",
                 "--to required", "--format text|json|csv=text"],
    ("rows",): [f"--hypothesis {_THEORY_NAMES} required", "--reduction full|tablet-faithful=full",
                "--leading-one on|off=on", "--format text|json|csv=text"],
    ("tablet", "verify"): ["--edition joyce|robson=robson", "--format text|json|csv=text",
                           "--use corrected|as_written=corrected"],
    ("tablet", "diff"): ["--edition joyce|robson=robson", "--format text|json|csv=text",
                         f"--hypothesis {_THEORY_NAMES}=phillips",
                         "--matching exact|similarity=exact",
                         "--reduction full|tablet-faithful=tablet-faithful"],
    ("tablet", "errors"): ["--edition joyce|robson=robson", "--format text|json|csv=text"],
    ("extend",): ["--side lower|upper required", "--format text|json|csv=text"],
    ("link",): ["value", "--format text|json=text"],
}


class TestCommandRecords:
    """``COMMANDS`` builds the parser and names each runner: a leaf path
    (one that no other path extends) runs as cmd_<path joined by "_">."""

    @staticmethod
    def leaves() -> list[tuple[str, ...]]:
        return [path for path in cli.COMMANDS
                if not any(other[:len(path)] == path != other for other in cli.COMMANDS)]

    def test_every_leaf_has_a_runner_and_every_runner_is_a_leaf(self):
        runners = {name for name in vars(cli) if name.startswith("cmd_")}
        assert {"cmd_" + "_".join(path) for path in self.leaves()} == runners
        assert all(callable(getattr(cli, name)) for name in runners)

    def test_parser_has_every_leafs_arguments_in_usage_order(self):
        # stated apart from argparse's help text, which differs between
        # Python versions
        assert self.leaves() == list(SURFACE)
        for path, expected in SURFACE.items():
            parser = cli._build_parser()
            for name in path:
                parser = next(a for a in parser._actions
                              if isinstance(a, argparse._SubParsersAction)).choices[name]
            assert [_describe(a) for a in parser._actions
                    if not isinstance(a, argparse._HelpAction)] == expected, path

    # the arguments each leaf needs, beyond its path
    REQUIRED = {("recip",): ["2 05"], ("pairs",): ["--from", "1;48", "--to", "2;24"],
                ("rows",): ["--hypothesis", "phillips"], ("extend",): ["--side", "lower"],
                ("link",): ["2 05"]}

    @pytest.mark.parametrize("path", list(SURFACE))
    def test_each_leaf_runs_its_own_runner(self, capsys, monkeypatch, path):
        called = []
        monkeypatch.setattr(cli, "cmd_" + "_".join(path),
                            lambda args: called.append(path) or 0)
        assert run(capsys, *path, *self.REQUIRED.get(path, [])) == (0, "", "")
        assert called == [path]


def _parsed(argv) -> list | None:
    """argparse's namespace for ``argv`` as (dest, value) items in its
    order, or None where argparse exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return list(vars(cli._build_parser().parse_args(argv)).items())
        except SystemExit:
            return None


# Values a record's argument may be given: text of exact form (the empty
# text too, and names of commands), text led by "-", and a choice's near
# misses (a prefix, another case, one letter more)
_PLAIN = st.sampled_from(["2 05", "1;48", "", "rows", "tablet", "x=y"])
_DASHED = st.sampled_from(["-", "-1", "--", "-h", "--format", "-2 05"])
_LEAVES = TestCommandRecords.leaves()


def _near_misses(choices) -> st.SearchStrategy:
    return st.sampled_from(choices).flatmap(
        lambda c: st.sampled_from([c[:-1], c.upper(), c + "s"]))


@st.composite
def _record_argv(draw, values):
    """An argv drawn from the ``COMMANDS`` records, and whether it has exact
    form.  Most are a leaf path and its arguments in some order, each given
    in full with one of its choices or, where it has none, a value drawn
    from ``values``; now and then a value is a near miss or led by "-", an
    argument is left out, a flag is abbreviated, written ``--flag=value``
    or repeated, or a positional, "--", "-h" or "--help" is added.  The
    rest name no leaf."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([
            [], ["tablet"], ["tablet", "nonesuch"], ["nonesuch"], ["rows-"], ["-h"],
            ["--help"], ["--", "recip", "2 05"], ["tablet", "--edition", "joyce"]])), False
    path = draw(st.sampled_from(_LEAVES))
    exact, items = True, []
    for name, keywords in cli.COMMANDS[path][1]:
        choices, flag = keywords.get("choices"), name.startswith("-")
        value = draw(st.sampled_from(choices) if choices else values)
        if draw(st.integers(0, 5)) == 0:
            value = draw(st.one_of([values, _DASHED] + [_near_misses(choices)] * bool(choices)))
        form = draw(st.sampled_from(["full"] * 12 + ["omitted", "twice"]
                                    + ["abbreviated", "="] * flag))
        if form == "omitted":
            exact &= flag and not keywords.get("required")
        else:
            exact &= (form == "full" and not value.startswith("-")
                      and (not choices or value in choices))
        if form == "=":
            items.append([f"{name}={value}"])
        elif form != "omitted":
            tokens = [name[:-1] if form == "abbreviated" else name] * flag + [value]
            items.append(tokens * (1 + (form == "twice")))
    items = draw(st.permutations(items))
    if draw(st.integers(0, 5)) == 0:
        extra = draw(st.one_of(values, st.sampled_from(["--", "-h", "--help"])))
        items.insert(draw(st.integers(0, len(items))), [extra])
        exact = False
    return [*path, *(token for item in items for token in item)], exact


class TestExactReader:
    """``_exact`` reads an argv of exact form straight from ``COMMANDS``, to
    the namespace argparse would return, and declines every other argv, for
    argparse to read."""

    def test_every_reproduce_command_is_read_exactly(self):
        commands = bench_workloads().reproduce_commands()
        assert len(commands) == 129
        for argv in commands:
            namespace = cli._exact(argv)
            assert namespace is not None, argv
            assert list(vars(namespace).items()) == _parsed(argv), argv

    @pytest.mark.parametrize("path", _LEAVES)
    def test_every_choice_of_every_leaf_is_read(self, path):
        required = TestCommandRecords.REQUIRED.get(path, [])
        for name, keywords in cli.COMMANDS[path][1]:
            for choice in keywords.get("choices", ()):
                argv = [*path, *(required if name not in required else []), name, choice]
                assert list(vars(cli._exact(argv)).items()) == _parsed(argv), argv

    @pytest.mark.parametrize("argv", [
        ["rows", "--hyp", "phillips"],                    # abbreviated
        ["rows", "--hypothesis=phillips"],                # --flag=value
        ["rows", "--hypothesis", "phillips"] * 2,         # repeated
        ["rows", "--hypothesis", "phillips", "--hypothesis", "ns1945"],
        ["rows", "--hypothesis", "euclid"],               # not a choice
        ["rows", "--hypothesis", "Phillips"],
        ["rows"],                                         # missing required
        ["pairs", "--from", "1;48"],
        ["recip"],
        ["recip", "2 05", "7 30"],                        # extra positional
        ["rows", "--hypothesis", "phillips", "x"],
        ["recip", "-1"],                                  # led by "-"
        ["pairs", "--from", "-1", "--to", "2"],
        ["pairs", "--from", "1", "--to"],
        ["recip", "--", "2 05"],
        ["--", "recip", "2 05"],
        ["recip", "2 05", "-h"],
        ["tablet", "verify", "--help"],
        ["-h"],
        ["tablet"],
        ["tablet", "nonesuch"],
        ["nonesuch"],
        [],
    ])
    def test_other_forms_are_left_to_argparse(self, argv):
        assert cli._exact(argv) is None

    def test_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["plimpton", "tablet", "diff", "--edition", "joyce"])
        namespace = cli._exact(None)
        assert namespace is not None
        assert list(vars(namespace).items()) == _parsed(None)
        monkeypatch.setattr(sys, "argv", ["plimpton", "tablet", "diff", "--edition", "j"])
        assert cli._exact(None) is None

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(drawn=_record_argv(_PLAIN), from_sys_argv=st.booleans())
    def test_reads_argparse_s_namespace_or_declines(self, drawn, from_sys_argv):
        argv, exact = drawn
        with mock.patch.object(sys, "argv", ["plimpton", *argv]):
            read = None if from_sys_argv else argv
            namespace, parsed = cli._exact(read), _parsed(read)
        assert (namespace is not None) == exact, argv
        if namespace is not None:
            assert list(vars(namespace).items()) == parsed, argv


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

    # a theory of another row count than the tablet's is refused
    DIFF = {"phillips": (0, "15/15 exact"),
            "price1964": (2, "row-count mismatch: 14 generated vs 15 attested"),
            "friberg2007": (2, "row-count mismatch: 38 generated vs 15 attested")}

    @pytest.mark.parametrize("hypothesis", DIFF)
    def test_diff(self, capsys, hypothesis):
        code, expected = self.DIFF[hypothesis]
        got, out, err = run(capsys, "tablet", "diff", "--hypothesis",
                            hypothesis, "--matching", "exact",
                            "--edition", "robson")
        assert got == code
        assert expected in (out if code == 0 else err)

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

    @staticmethod
    def run_with_a_closed_pipe(argv, closed):
        """main(argv) in a child process, its output buffered as by default,
        whose stdout or stderr pipe (``closed``) is closed before it writes:
        (exit code, stdout, stderr), the closed one None.  The child waits
        for stdin's end, which comes after the close."""
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        code = ("import sys; sys.stdin.read(); from plimpton.cli import main; "
                f"sys.exit(main({argv!r}))")
        child = subprocess.Popen([sys.executable, "-c", code], env=env, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        getattr(child, closed).close()
        out, err = child.communicate(b"", timeout=TIME_BUDGET_S)
        return child.returncode, out, err

    @pytest.mark.parametrize("argv", [
        ["tablet", "verify", "--format", "json"],
        ["tablet", "errors"],
        ["pairs", "--criterion", "bruins", "--from", "1;48", "--to", "2;24", "--format", "csv"],
        ["--help"],
    ])
    def test_a_closed_stdout_exits_141_in_silence(self, argv):
        # it printed a BrokenPipeError traceback and exited 1 (--help: the
        # interpreter's failed flush at exit, 120)
        assert self.run_with_a_closed_pipe(argv, "stdout")[::2] == (141, b"")
        assert cli.EXIT_PIPE == 141

    @pytest.mark.parametrize("argv", [["recip", "7"], ["frobnicate"]], ids=" ".join)
    def test_an_error_to_a_closed_stderr_exits_141(self, argv):
        # a data or usage error's message raised out of main and exited 120
        assert self.run_with_a_closed_pipe(argv, "stderr")[:2] == (141, b"")

    def test_a_closed_stderr_keeps_stdout_whole(self):
        # the rows, then the log's one line to the closed stderr
        code, out, _ = self.run_with_a_closed_pipe(["rows", "--hypothesis", "phillips"], "stderr")
        assert (code, len(out.decode().splitlines())) == (141, 15)


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
        with pytest.raises(ValueError,
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


class TestFuzz:
    @settings(max_examples=100, deadline=2000, derandomize=True,
              database=None)
    @given(argv=_record_argv(_FUZZ_VALUES).map(lambda drawn: drawn[0]))
    @example(argv=["rows", "--hyp", "phillips"])
    @example(argv=["rows", "--hypothesis=phillips"])
    @example(argv=["rows", "--hypothesis", "phillips", "--hypothesis", "ns1945"])
    @example(argv=["pairs", "--from", "-1", "--to", "2"])
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


# SexValues at the place boundaries, and at exponents of both signs
_JSON_CELLS = st.builds(SexValue, st.sampled_from([0, 1, 59, 60, 3599, 3600])
                        | st.integers(0, 60**6), st.integers(-8, 8))
_ENVELOPE = ("schema_version", "command", "rows", "corrections")


@st.composite
def _json_rows_documents(draw):
    """(command, rows, extra) as a command hands them to ``_emit``: every
    row has the same keys in the same order, and each cell is text or a
    SexValue."""
    keys = draw(st.lists(_JSON_TEXT, min_size=1, max_size=5, unique=True))
    rows = [dict(zip(keys, draw(st.lists(st.one_of(_JSON_TEXT, _JSON_CELLS),
                                         min_size=len(keys), max_size=len(keys)))))
            for _ in range(draw(st.integers(0, 4)))]
    extra = draw(st.dictionaries(_JSON_TEXT.filter(lambda k: k not in _ENVELOPE),
                                 _JSON_TREES, max_size=2))
    return draw(_JSON_TEXT), rows, extra


def _expanded(cell):
    """A cell as the JSON document holds it: a SexValue is an object of its
    digits and its exact value's lowest terms, computed here by Fraction."""
    if not isinstance(cell, SexValue):
        return cell
    value = Fraction(cell.mantissa) * Fraction(60) ** cell.exponent
    return {"digits": render_sex(cell), "numerator": str(value.numerator),
            "denominator": str(value.denominator)}


class TestJsonEmitter:
    """The CLI writes JSON with its own emitter; the standard library's
    json.dumps(..., indent=2) is the oracle for its bytes."""

    @given(_JSON_TREES)
    @example({})
    @example([[], {}, [{}], {"": []}])
    @example({"a\u2028\U0001f600": [-(10**30), True, False, None, "\\\"\x00"]})
    def test_matches_json_dumps(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2)

    @given(_json_rows_documents())
    @example(("rows", [], {}))
    @example(("rows", [{"a": SexValue(3599, -1), "b": "\\\""},
                       {"a": SexValue(0), "b": "\x00\u20ac"}], {"summary": "x"}))
    def test_rows_template_matches_json_dumps(self, document):
        command, rows, extra = document
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit("json", command, rows, [], [], extra)
        expected = {"schema_version": cli.SCHEMA_VERSION, "command": command,
                    "rows": [{k: _expanded(v) for k, v in row.items()} for row in rows],
                    "corrections": [], **extra}
        assert out.getvalue() == json.dumps(expected, indent=2) + "\n"

    def test_every_json_command_reads_back_as_written(self, capsys):
        commands = [argv for argv in bench_workloads().reproduce_commands()
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
    """Pairs built and factorizations made by one command.  Every table of
    pairs is selected from the four-place index, which builds each of its
    271 pairs once per process on first use, so a command after that
    builds none."""

    SELECTING = [
        ("rows", "--hypothesis", "phillips"),
        ("rows", "--hypothesis", "bruins1949"),
        ("pairs", "--criterion", "mult10", "--from", "1;48", "--to", "2;24"),
        ("pairs", "--criterion", "places4", "--from", "1;48", "--to", "2;24"),
        ("pairs", "--criterion", "bruins", "--from", "1;48", "--to", "2;24"),
        ("extend", "--side", "lower"),
        ("extend", "--side", "upper"),
        ("tablet", "diff", "--hypothesis", "bruins1949"),
    ]

    @pytest.mark.parametrize("argv", SELECTING)
    def test_ceiling(self, capsys, argv):
        # after one warm call: the listed pairs and a correction log's are
        # the index's, and P, Q and both members come with their triples
        assert run(capsys, *argv)[0] == 0
        with counted(ReciprocalPair, factor_2_3_5) as (built, factored):
            assert run(capsys, *argv)[0] == 0
        assert built == []
        assert factored == []

    @pytest.mark.parametrize("argv", SELECTING)
    def test_first_use_builds_each_four_place_pair_once(self, capsys, argv):
        # the 271 four-place T whose Tbar has at most four places; the start
        # pairs hold the index's objects, so they are cleared with it
        pairs._four_place_index.cache_clear()
        hypotheses._start_classes.cache_clear()
        with counted(ReciprocalPair) as (built,):
            assert run(capsys, *argv)[0] == 0
        assert len(built) == 271

    def test_index_first_use_builds_from_triples(self):
        # each of the 271 pairs from its canonical triple: no reciprocal
        # divided out (432 divisions when the index looked up 60**k // m)
        # and no valuation stripping zero places (380 from padded mantissas)
        pairs._four_place_index.cache_clear()
        hypotheses._start_classes.cache_clear()
        with counted(ReciprocalPair, reciprocal,
                     sexagesimal._valuation) as (built, divided, stripped):
            pairs._four_place_index()
        assert len(built) == 271
        assert divided == stripped == []

    def test_first_link_calls_no_reciprocal(self, capsys):
        # the standard table and the start pairs are the index's own pairs,
        # so the pairs built are the index's 271 and the linked pair, and
        # no reciprocal is called: the linked pair's Tbar comes from its
        # triple (one call when from_triple divided it out; 88 when the 29
        # table pairs and a start pair per member, 58, were each built so)
        pairs._four_place_index.cache_clear()
        hypotheses._start_classes.cache_clear()
        with counted(ReciprocalPair, reciprocal) as (built, divided):
            assert run(capsys, "link", "2 09 36")[0] == 0
        assert divided == []
        assert len(built) == 272

    @pytest.mark.parametrize("argv,rows", [
        *[pytest.param(("rows", "--hypothesis", tag), n, id=tag)
          for tag, n in zip(THEORIES, (15, 15, 14, 15, 15, 38, 15), strict=True)],
        pytest.param(("tablet", "diff"), 15, id="tablet diff"),
    ])
    def test_one_build_row_call_per_row(self, capsys, argv, rows):
        # every theory's row rule runs from its THEORIES record; ns1945's
        # calls build_row through hypotheses
        with counted(build_row) as (built,):
            assert run(capsys, *argv)[0] == 0
        assert len(built) == rows

    @pytest.mark.parametrize("argv,values,checked,stripped", [
        (("rows", "--hypothesis", "phillips"), 75, 0, 27),
        (("rows", "--hypothesis", "friberg2007"), 190, 0, 67),
        (("tablet", "diff"), 45, 0, 27),
        (("pairs", "--criterion", "places4", "--from", "1;48", "--to", "2;24"), 2, 2, 0),
        (("link", "2 09 36"), 3, 1, 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_values_built_after_a_warm_call(self, capsys, argv, values, checked, stripped):
        # after one warm call the pairs are the index's, with no reciprocal
        # divided out again.  A row's X, Y and A are built unchecked by
        # _canonical from one aligned pair, and X's and Y's zero places are
        # stripped once, by _valuation; rows print S and D unchecked too,
        # and tablet diff compares them as integers.  pairs parses its two
        # ends; link parses its argument, finds its triple (one valuation
        # each for 3 and 5) and builds its one pair from it
        assert run(capsys, *argv)[0] == 0
        with counted(SexValue, sexagesimal._canonical, sexagesimal._valuation,
                     reciprocal) as (built, canonical, valuations, divided):
            assert run(capsys, *argv)[0] == 0
        assert divided == []
        assert len(built) + len(canonical) <= values
        assert len(built) <= checked
        assert len(valuations) <= stripped

    @pytest.mark.parametrize("argv", [("rows", "--hypothesis", "phillips"), ("tablet", "diff")],
                             ids=" ".join)
    def test_row_records_are_set_by_their_slots(self, capsys, argv):
        # after one warm call: A is Y's mantissa squared, not a checked
        # product, and a row skips the generic constructor
        assert run(capsys, *argv)[0] == 0
        with counted(sexagesimal.mul, RowCandidate) as (products, rows):
            assert run(capsys, *argv)[0] == 0
        assert products == rows == []

    @pytest.mark.parametrize("argv", [
        ("rows", "--hypothesis", "phillips"),
        ("tablet", "diff", "--hypothesis", "bruins1949"),
    ])
    def test_rows_align_each_pair_once(self, capsys, argv):
        # build_row aligns T and Tbar once and reads X, Y, S, D, A and the
        # factor off those integers (45 alignments by composition)
        with counted(sexagesimal._aligned) as (aligned,):
            assert run(capsys, *argv)[0] == 0
        assert len(aligned) <= 15

    # the commands that write a correction log
    LOGGING = [
        ("extend", "--side", "lower"),
        ("extend", "--side", "upper"),
        ("rows", "--hypothesis", "phillips"),
        *[("pairs", "--criterion", kind, "--from", "1;48", "--to", "2;24")
          for kind in ("mult10", "places4", "bruins")],
    ]

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_extend_selects_its_table_once_per_use(self, capsys, side):
        # one selection for the listed pairs, and on the log's first use in
        # a process one more for the rows it is built from
        hypotheses._printed_log.cache_clear()
        counts = []
        for _ in range(2):
            with counted(pairs._four_place_pairs) as (selected,):
                assert run(capsys, "extend", "--side", side)[0] == 0
            counts.append(len(selected))
        assert counts == [2, 1]

    @pytest.mark.parametrize("argv", LOGGING)
    def test_a_warm_log_selects_and_renders_nothing(self, capsys, argv):
        # after one warm call the log is a filter of its table's cached
        # log: the listing's own selection is the only one, and no printed
        # member is rendered again
        assert run(capsys, *argv)[0] == 0
        with counted(pairs._four_place_pairs,
                     (hypotheses, "render_sex")) as (selected, rendered):
            assert run(capsys, *argv)[0] == 0
        assert len(selected) == 1
        assert rendered == []

    @pytest.mark.parametrize("argv", LOGGING)
    def test_the_log_reads_no_printed_digit_after_a_warm_call(
            self, capsys, monkeypatch, argv):
        # every printed member counts the reads of its text: split or strip
        # starts each reader of its digits
        read = []

        class Counted(str):
            def split(self, *args):
                read.append(self)
                return str.split(self, *args)

            def strip(self, *args):
                read.append(self)
                return str.strip(self, *args)

        def counted_rows(rows):
            return [(label, Counted(t), Counted(tbar), *rest)
                    for label, t, tbar, *rest in rows]

        for table, (printed, *record) in list(hypotheses.PRINTED_TABLES.items()):
            monkeypatch.setitem(hypotheses.PRINTED_TABLES, table, (counted_rows(printed), *record))
        monkeypatch.setitem(hypotheses.PRINTED_VARIANTS, "extension-lower",
                            [(label, Counted(t)) for label, t in
                             hypotheses.PRINTED_VARIANTS["extension-lower"]])
        hypotheses._printed_log.cache_clear()
        try:
            assert run(capsys, *argv)[0] == 0
            assert read
            read.clear()
            assert run(capsys, *argv)[0] == 0
            assert read == []
        finally:
            monkeypatch.undo()
            hypotheses._printed_log.cache_clear()

    def test_value_fields_are_set_by_their_slots(self):
        # each _Value sets its fields by its slot descriptors' __set__
        for path in sorted(Path(plimpton.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "object.__setattr__" not in text, path.name
            assert not re.search(r"\b_set\b", text), path.name

    @pytest.mark.parametrize("tag", ["ns1945", "price1964", "buck1980",
                                     "friberg1981", "friberg2007"])
    def test_pq_theories_factorize_nothing(self, capsys, tag):
        # P and Q come with their triples from the four-place table
        with counted(factor_2_3_5) as (factored,):
            assert run(capsys, "rows", "--hypothesis", tag)[0] == 0
        assert factored == []

    def test_link_factorizes_its_input_once(self, capsys):
        # the standard table and the linked pairs are built from triples
        with counted(factor_2_3_5) as (factored,):
            assert run(capsys, "link", "2 09 36", "--format", "json")[0] == 0
        assert len(factored) <= 1

    def test_link_builds_only_its_input_pair(self, capsys):
        # the start pairs are built once per process, on the first link
        assert run(capsys, "link", "2 09 36")[0] == 0
        with counted(ReciprocalPair) as (built,):
            assert run(capsys, "link", "2 09 36")[0] == 0
        assert len(built) == 1

    @pytest.mark.parametrize("tag", ["buck1980", "friberg1981"])
    def test_pq_theories_convert_no_fraction(self, capsys, tag):
        # the bounds on P/Q are integer tests: no candidate becomes a SexValue
        with counted(from_fraction) as (converted,):
            assert run(capsys, "rows", "--hypothesis", tag)[0] == 0
        assert converted == []

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_rows_render_only_the_printed_columns(self, capsys, fmt):
        # A, S and D of 15 rows, and no value read as a Fraction
        with counted((cli, "render_sex"), (SexValue, "fraction")) as (rendered, reads):
            assert run(capsys, "rows", "--hypothesis", "phillips",
                       "--format", fmt)[0] == 0
        assert len(rendered) == 45
        assert reads == []

    def test_rows_json_renders_every_value(self, capsys):
        # T, Tbar, X, Y, S, D and A of 15 rows, their exact fractions taken
        # from mantissa and exponent, none read as a Fraction
        with counted((cli, "render_sex"), (SexValue, "fraction")) as (rendered, reads):
            assert run(capsys, "rows", "--hypothesis", "phillips",
                       "--format", "json")[0] == 0
        assert len(rendered) == 105
        assert reads == []

    @pytest.mark.parametrize("argv", [
        ("rows", "--hypothesis", "phillips", "--format", "json"),
        ("link", "2 09 36", "--format", "json"),
    ])
    def test_json_skips_the_pure_python_encoder(self, capsys, argv):
        # json.dumps(..., indent=2) builds its encoder with _make_iterencode
        with counted((json.encoder, "_make_iterencode")) as (made,):
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
    def test_commands_compare_without_fractions(self, capsys, argv):
        with counted((SexValue, "fraction")) as (reads,):
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

    def test_exact_form_builds_no_parser(self, capsys, monkeypatch):
        # argparse is built for help and for usage errors only, once
        commands = bench_workloads().reproduce_commands()
        # a parser cache of its own, empty whatever ran before
        monkeypatch.setattr(cli, "_build_parser", cache(cli._build_parser.__wrapped__))
        with counted(cli._Parser) as (built,):
            for argv in commands:
                # tablet verify of the joyce edition exits 2, with its report
                assert run(capsys, *argv)[0] in (cli.EXIT_OK, cli.EXIT_DATA), argv
            assert built == []
            assert run(capsys, "--help")[0] == cli.EXIT_OK
            assert run(capsys, "rows", "--hypothesis", "nonesuch")[0] == cli.EXIT_USAGE
        assert [call.kwargs.get("prog") for call in built].count("plimpton") == 1

    def test_ten_calls_build_the_parser_and_read_the_tablet_once(self, capsys):
        with counted(cli._Parser, (tablet, "_read_resource")) as (parsers, reads):
            for argv in [("tablet", "verify"), ("tablet", "diff"),
                         ("tablet", "errors"), self.ROWS, ("recip", "2 05")] * 2:
                assert run(capsys, *argv)[0] == 0
        # the top parser, not a subcommand's
        assert [call.kwargs.get("prog") for call in parsers].count("plimpton") <= 1
        assert len(reads) <= 1
