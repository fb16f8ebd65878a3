#!/usr/bin/env python3
"""Run each recorded mutant of the library against the tests that must kill it.

Usage: python3 scripts/mutants.py

A mutant is one exact text replaced in one file: ``MUTANTS`` holds each as
(name, file, old text, new text, test node ids).  First every named test runs
once on an unmutated copy of ``src/``, ``tests/`` and ``bench/``; unless each
one passes there, nothing is mutated, since a failure would then say nothing of
a mutant, and the script exits 2.  Then, for each mutant in turn, those
directories are copied to a temporary directory.  The mutant is stale unless
its old text occurs exactly once in its file there; otherwise the file is
mutated and the named tests run in one child process with a timeout.  The
mutant is killed when every named test fails, or the run times out; a node id
counts as failed when it, or any case or test under it, fails or errs.  It
survived when a named test passes.  A run that pytest ends with an exit code
other than 0 or 1, or with failures it names in no summary line, is an error.
One child process runs at a time.  It prints one line per mutant and exits 1
unless every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench")
TIMEOUT_S = 300

PAIRS, HYPOTHESES, CLI = "src/plimpton/pairs.py", "src/plimpton/hypotheses.py", "src/plimpton/cli.py"
ROWS = "src/plimpton/rows.py"

MUTANTS = [
    # the four-place index entry (t, tbar, p, q, pair) and the rules that read it
    ("entry P and Q swapped", PAIRS,
     "*_ratio(pair.T.value), pair))", "*_ratio(pair.T.value)[::-1], pair))", [
         "tests/test_pairs.py::TestRegularEnumeration::test_members_are_padded_to_four_places",
         "tests/test_hypotheses.py::TestAgreements::test_price_misses_only_the_2_1_row",
         "tests/test_cli_oracle.py::test_rows_agree_with_the_oracle[price1964-full]",
     ]),
    ("entry P/Q read from Tbar", PAIRS,
     "*_ratio(pair.T.value), pair))", "*_ratio(pair.Tbar.value), pair))", [
         "tests/test_pairs.py::TestRegularEnumeration::test_members_are_padded_to_four_places",
         "tests/test_hypotheses.py::TestOneEnumeration::test_pq_theory_equals_the_q_by_p_walk",
     ]),
    ("least Q applied as <", HYPOTHESES,
     "least_q <= q < q_limit", "least_q < q < q_limit", [
         "tests/test_hypotheses.py::TestOneEnumeration::test_pq_bounds_at_12_over_5",
         "tests/test_acceptance.py::test_criterion_4_friberg_2007",
     ]),
    ("bruins reads T's gamma for Tbar's", PAIRS,
     "pair.Tbar.gamma > 3 and sum(pair.T.triple) > 13",
     "pair.T.gamma > 3 and sum(pair.T.triple) > 13", [
         "tests/test_pairs.py::TestPairCriteria::test_criterion_is_its_member_rule_both_ways",
         "tests/test_pairs.py::TestFastPathOracle::test_enumerate_pairs_equals_oracle",
         "tests/test_acceptance.py::test_criterion_3_exclusions",
     ]),
    ("mult10 reads T twice", PAIRS,
     "t % 10 == 0 and tbar % 10 == 0", "t % 10 == 0 and t % 10 == 0", [
         "tests/test_pairs.py::TestPairCriteria::test_criterion_is_its_member_rule_both_ways",
         "tests/test_acceptance.py::test_criterion_1_phillips_enumeration",
     ]),
    # Table 1's row from its formula, and the CLI's data errors
    ("Table 1's P and Q swapped", HYPOTHESES,
     "p, q = _ratio(pair.T.value)", "q, p = _ratio(pair.T.value)", [
         "tests/test_rows.py::TestPQ::test_triple_formulas_on_table1_rows",
         "tests/test_hypotheses.py::TestAgreements::test_ns1945_uses_raw_formula_values",
         "tests/test_cli_oracle.py::test_rows_agree_with_the_oracle[ns1945-full]",
     ]),
    ("Table 1's reduced flag inverted", HYPOTHESES,
     "gcd(s, d) == 1)", "gcd(s, d) != 1)", [
         "tests/test_rows.py::TestPQ::test_triple_formulas_on_table1_rows",
         "tests/test_hypotheses.py::TestAgreements::test_ns1945_uses_raw_formula_values",
     ]),
    ("Table 1's D off by 2", HYPOTHESES,
     "s, d = p * p - q * q, p * p + q * q", "s, d = p * p - q * q, p * p + q * q + 2", [
         "tests/test_rows.py::TestPQ::test_triple_formulas_on_table1_rows",
         "tests/test_acceptance.py::test_criterion_8_property_suite",
     ]),
    ("Table 1's P/Q read from Tbar", HYPOTHESES,
     "p, q = _ratio(pair.T.value)", "p, q = _ratio(pair.Tbar.value)", [
         "tests/test_rows.py::TestPQ::test_triple_formulas_on_table1_rows",
         "tests/test_tablet.py::TestDiff::test_ns1945_row15_is_similar_by_half",
     ]),
    ("the CLI catches SexagesimalError only", CLI,
     "except ValueError as e:", "except SexagesimalError as e:", [
         "tests/test_cli.py::TestIntStringLimit::test_link_past_the_limit",
         "tests/test_cli.py::TestTablet::test_diff[price1964]",
         "tests/test_tablet.py::TestDataResource::test_a_short_transcription_is_a_value_error",
     ]),
    # the nearest-first scan of link_to_standard's start classes
    ("the scan stops at a start as far as the fewest", HYPOTHESES,
     "if abs(d1 - d2) > fewest:", "if abs(d1 - d2) >= fewest:", [
         "tests/test_hypotheses.py::TestClosedFormLinks::test_same_chain_as_the_full_scan_on_every_four_place_pair",
         "tests/test_hypotheses.py::TestClosedFormLinks::test_same_chain_as_the_scan_of_every_class",
     ]),
    ("the scan skips a start whose |d2| is the fewest", HYPOTHESES,
     "if abs(d2) > fewest:", "if abs(d2) >= fewest:", [
         "tests/test_hypotheses.py::TestClosedFormLinks::test_same_chain_as_the_full_scan_on_every_four_place_pair",
         "tests/test_acceptance.py::test_criterion_7_linkage",
     ]),
    ("the scan never steps below u", HYPOTHESES,
     "lo = hi = bisect_left(a_values, u)", "lo, hi = 0, bisect_left(a_values, u)", [
         "tests/test_hypotheses.py::TestClosedFormLinks::test_same_chain_as_the_scan_of_every_class_at_the_edges",
         "tests/test_acceptance.py::test_criterion_7_linkage",
     ]),
    # a row as one flat record
    ("X and Y setters swapped", ROWS,
     "_set_x(row, x)\n    _set_y(row, y)", "_set_x(row, y)\n    _set_y(row, x)", [
         "tests/test_rows.py::TestXY::test_half_difference_half_sum",
         "tests/test_acceptance.py::test_criterion_8_property_suite",
         "tests/test_cli_oracle.py::test_rows_agree_with_the_oracle[phillips-full]",
     ]),
    ("Table 1's row passes Y as X", HYPOTHESES,
     "row.x, row.y, s, d", "row.y, row.x, s, d", [
         "tests/test_acceptance.py::test_criterion_8_property_suite",
         "tests/test_cli_oracle.py::test_rows_agree_with_the_oracle[ns1945-full]",
     ]),
    ("build_row passes X as Y", ROWS,
     "_candidate(n, p, x, y, s, d, a, factor, True)", "_candidate(n, p, x, x, s, d, a, factor, True)", [
         "tests/test_rows.py::TestXY::test_half_difference_half_sum",
         "tests/test_acceptance.py::test_criterion_8_property_suite",
         "tests/test_cli_oracle.py::test_rows_agree_with_the_oracle[phillips-full]",
     ]),
    ("a row record prints Y under X", CLI,
     '"X": c.x,', '"X": c.y,', [
         "tests/test_cli_oracle.py::test_rows_agree_with_the_oracle[phillips-full]",
         "tests/test_cli_oracle.py::test_rows_agree_with_the_oracle[ns1945-tablet-faithful]",
     ]),
]


def _named(report: str, *outcomes: str) -> list[str]:
    """The node ids that pytest's short summary (-rA or -rfE) names with one
    of ``outcomes``, such as "PASSED", "FAILED" or "ERROR"; a file's
    collection error names the file."""
    return [line.split()[1] for line in report.splitlines()
            if line.split(" ", 1)[0] in outcomes]


def _covers(test: str, ids: list[str]) -> bool:
    """Whether node id ``test`` is among ``ids``: itself, a case or test
    under it, or the file it is in, which failed to collect."""
    return any(f == test or f.startswith((test + "[", test + "::")) or test.startswith(f + "::")
               for f in ids)


def unpassed(returncode: int, report: str, tests: list[str]) -> str | None:
    """Why the named tests, run with -rA on an unmutated copy, did not all
    pass, or None when each passed."""
    if returncode != 0:
        return f"pytest exited {returncode}: " + (report.strip().splitlines() or [""])[-1]
    passed = _named(report, "PASSED")
    missing = [test for test in tests if not _covers(test, passed)]
    return ", ".join(missing) + " did not pass" if missing else None


def verdict(returncode: int, report: str, tests: list[str]) -> str:
    """A mutant's verdict, "killed", "survived" or "error", and why, from its
    run of the named tests with -rfE."""
    if returncode == 0:
        return "survived: every named test passed"
    failed = _named(report, "FAILED", "ERROR")
    if returncode != 1 or not failed:
        return f"error: pytest exited {returncode}" + ("" if failed else " with no failure summary")
    passed = [test for test in tests if not _covers(test, failed)]
    return "survived: " + ", ".join(passed) + " passed" if passed else f"killed: {len(failed)} failed"


def _copy(tmp: str) -> Path:
    root = Path(tmp)
    for part in COPIED:
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    return root


def _pytest(root: Path, summary: str, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", summary, *tests],
        cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def baseline(tests: list[str]) -> str | None:
    """Why the named tests do not all pass on an unmutated copy, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            done = _pytest(_copy(tmp), "-rA", tests)
        except subprocess.TimeoutExpired:
            return f"the tests ran past {TIMEOUT_S} s"
    return unpassed(done.returncode, done.stdout + done.stderr, tests)


def run(file: str, old: str, new: str, tests: list[str]) -> str:
    """One mutant's verdict, "killed", "survived", "stale" or "error", and why."""
    with tempfile.TemporaryDirectory() as tmp:
        root = _copy(tmp)
        path = root / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"stale: the old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        try:
            done = _pytest(root, "-rfE", tests)
        except subprocess.TimeoutExpired:
            return f"killed: the tests ran past {TIMEOUT_S} s"
    return verdict(done.returncode, done.stdout, tests)


def main() -> int:
    why = baseline(list(dict.fromkeys(test for *_, tests in MUTANTS for test in tests)))
    if why:
        print(f"unmutated copy: {why}; no mutant was run", flush=True)
        return 2
    bad = 0
    for name, file, old, new, tests in MUTANTS:
        outcome = run(file, old, new, tests)
        print(f"{name}: {outcome}", flush=True)
        bad += not outcome.startswith("killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
