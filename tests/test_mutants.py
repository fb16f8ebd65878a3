"""The mutants that scripts/mutants.py runs, checked against the tree: each
one's old text occurs exactly once in its file, so the mutant is not stale,
and each test it names is defined.  Then the script's verdicts on canned
pytest reports.  No child process runs here."""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", REPO / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name,file,old,new,tests", mutants.MUTANTS,
                         ids=[mutant[0] for mutant in mutants.MUTANTS])
def test_each_old_text_occurs_once_and_each_named_test_is_defined(name, file, old, new, tests):
    assert old != new
    assert (REPO / file).read_text(encoding="utf-8").count(old) == 1
    assert tests
    for test in tests:
        path, *names = test.split("::")
        text = (REPO / path).read_text(encoding="utf-8")
        for defined in names:
            assert re.search(rf"^\s*(class|def) {re.escape(defined.partition('[')[0])}\b",
                             text, re.M), test


# The verdicts, from canned pytest reports: no child process runs.

A, B = "tests/test_a.py::test_one", "tests/test_b.py::TestB::test_two"


class TestVerdict:
    def test_every_named_test_failed_is_a_kill(self):
        report = f"FAILED {A} - assert 1 == 2\nFAILED {B}[x] - assert\n2 failed in 0.1s"
        assert mutants.verdict(1, report, [A, B]) == "killed: 2 failed"

    def test_a_file_that_failed_to_collect_kills_its_tests(self):
        report = f"ERROR tests/test_b.py - ImportError\nFAILED {A}\n1 failed, 1 error"
        assert mutants.verdict(1, report, [A, B]).startswith("killed")

    def test_a_named_test_not_in_the_summary_survived(self):
        report = f"FAILED {A} - assert 1 == 2\n1 failed, 1 passed in 0.1s"
        assert mutants.verdict(1, report, [A, B]) == f"survived: {B} passed"
        assert mutants.verdict(0, "2 passed in 0.1s", [A, B]).startswith("survived")

    def test_a_case_of_another_test_is_not_a_kill(self):
        # test_one[x] is under test_one, test_one_more is not
        assert mutants.verdict(1, f"FAILED {A}_more", [A]).startswith("survived")
        assert mutants.verdict(1, f"FAILED {A}[x]", [A]).startswith("killed")

    @pytest.mark.parametrize("returncode,report", [
        (1, "Traceback (most recent call last):\nNo module named pytest"),
        (2, f"FAILED {A}\nInterrupted: 1 error"),
        (3, "INTERNALERROR> boom"),
        (4, "ERROR: not found: tests/test_a.py::test_one"),
    ])
    def test_no_summary_or_another_exit_code_is_an_error(self, returncode, report):
        assert mutants.verdict(returncode, report, [A]).startswith("error")


class TestUnmutatedCopy:
    def test_every_named_test_passed(self):
        report = f"PASSED {A}\nPASSED {B}[x]\nPASSED {B}[y]\n3 passed in 0.1s"
        assert mutants.unpassed(0, report, [A, B]) is None

    def test_a_skipped_named_test_did_not_pass(self):
        report = f"PASSED {A}\nSKIPPED [1] tests/test_b.py:9: no plugin\n1 passed, 1 skipped"
        assert mutants.unpassed(0, report, [A, B]) == f"{B} did not pass"

    @pytest.mark.parametrize("returncode", [1, 4, 5])
    def test_a_failure_or_a_missing_test_is_reported(self, returncode):
        assert mutants.unpassed(returncode, f"PASSED {A}\nno tests ran", [A]) == \
            f"pytest exited {returncode}: no tests ran"
