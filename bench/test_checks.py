"""Tests of the benchmark's own checks: each rejects a wrong answer, and the
closed-form depth oracle agrees with the package's search.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import oracle as O  # noqa: E402
import workloads  # noqa: E402
import plimpton.cli  # noqa: E402
from plimpton import hypotheses, pairs, sexagesimal  # noqa: E402


ARITH = workloads.Arith(seed=1)
ARITH.bind(plimpton)


class ArithCheck(unittest.TestCase):
    n = 2**40 * 3**7 * 5**11
    text = O.render(n)

    def test_accepts_the_package(self):
        checks.check_arith(self.n, self.text, *ARITH.run(self.text))

    def test_rejects_a_reciprocal_off_by_one_digit(self):
        v, r, recip, rendered, from_frac = ARITH.run(self.text)
        wrong = sexagesimal.RegularNumber(  # second-last digit + 1
            sexagesimal.SexValue(recip.mantissa + 60), *recip.triple)
        self.assertEqual(len(O.digits60(wrong.mantissa)), len(O.digits60(recip.mantissa)))
        with self.assertRaises(checks.CheckError):
            checks.check_arith(self.n, self.text, v, r, wrong, rendered, from_frac)
        digits = rendered.split(" ")
        digits[-1] = f"{(int(digits[-1]) + 1) % 60:02d}"
        with self.assertRaises(checks.CheckError):
            checks.check_arith(self.n, self.text, v, r, recip, " ".join(digits), from_frac)

    def test_fault_is_only_beyond_64_places(self):
        text = O.render(2**129)
        with self.assertRaises(sexagesimal.SexagesimalError) as caught:
            ARITH.run(text)
        self.assertTrue(checks.arith_fault(2**129, caught.exception))
        self.assertFalse(checks.arith_fault(2**128, caught.exception))


class LinkCheck(unittest.TestCase):
    def test_accepts_the_package(self):
        for m in (1, 125, 2**5 * 3**7):
            pair = pairs.ReciprocalPair.from_T_mantissa(m)
            checks.check_link(m, pair, hypotheses.link_to_standard(pair))

    def test_rejects_a_chain_one_step_longer(self):
        # 2 05 = 125 is one quintupling from 25; from 5 it takes two
        pair = pairs.ReciprocalPair.from_T_mantissa(125)
        self.assertEqual(O.link_depth(125), 1)
        longer = hypotheses.LinkChain(pairs.ReciprocalPair.from_T_mantissa(5), (0, 0, 2))
        self.assertEqual(longer.replay().T.mantissa, 125)
        with self.assertRaises(checks.CheckError):
            checks.check_link(125, pair, longer)

    def test_rejects_a_start_outside_the_table(self):
        # row 14's printed start, 16 40 (= 1000), is not a regular of 2..81
        pair = pairs.ReciprocalPair.from_T_mantissa(O.parse("1 51 06 40"))
        chain = hypotheses.LinkChain(pairs.ReciprocalPair.from_T_mantissa(1000), (0, -2, 0))
        self.assertEqual(chain.replay(), pair)
        with self.assertRaises(checks.CheckError):
            checks.check_link(pair.T.mantissa, pair, chain)

    def test_depth_oracle_agrees_with_the_search_on_the_link_set(self):
        link = workloads.Link(seed=1)
        self.assertEqual(len(link.batches), 313)
        for [m] in link.batches:
            pair = pairs.ReciprocalPair.from_T_mantissa(m)
            self.assertEqual(O.link_depth(m), hypotheses.link_to_standard(pair).steps, m)


class RowCheck(unittest.TestCase):
    def setUp(self):
        w = workloads.Reproduce(seed=1)
        w.bind(plimpton)
        rc, out, _ = w.run(["rows", "--hypothesis", "phillips", "--format", "json"])
        self.assertEqual(rc, 0)
        self.rows = json.loads(out)["rows"]

    def test_accepts_the_package(self):
        for n, row in enumerate(self.rows, 1):
            checks.check_row(row, n)

    def test_rejects_s_and_d_swapped(self):
        row = dict(self.rows[0], S=self.rows[0]["D"], D=self.rows[0]["S"])
        with self.assertRaises(checks.CheckError):
            checks.check_row(row, 1)


class ReproduceCheck(unittest.TestCase):
    def setUp(self):
        self.w = workloads.Reproduce(seed=1)
        self.w.bind(plimpton)

    def test_rejects_text_that_differs_from_json(self):
        argv = ["pairs", "--criterion", "mult10", *workloads.TABLET_RANGE, "--format", "text"]
        rc, out, err = self.w.run(argv)
        self.w.check(argv, (rc, out, err))
        with self.assertRaises(checks.CheckError):
            self.w.check(argv, (rc, out.replace("2 24", "2 25", 1), err))

    def test_rejects_a_wrong_diff_status(self):
        argv = ["tablet", "diff", "--hypothesis", "phillips", "--edition", "joyce",
                "--matching", "similarity", "--format", "json"]
        rc, out, err = self.w.run(argv)
        self.w.check(argv, (rc, out, err))
        doc = json.loads(out)
        doc["rows"][14] = dict(doc["rows"][14], status="exact", ratio="")
        with self.assertRaises(checks.CheckError):
            self.w.check(argv, (rc, json.dumps(doc), err))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in workloads.WORKLOADS.values():
            self.assertEqual(cls(seed=7).batches, cls(seed=7).batches)

    def test_arith_faults_do_not_depend_on_the_seed(self):
        def faults(seed):
            w = workloads.Arith(seed)
            return {t for batch in w.batches for t in batch
                    if O.reciprocal_places(O.strip60(w.value_of[t])) > 64}
        self.assertEqual(faults(1), faults(2))
        self.assertEqual(len(faults(1)), workloads.ARITH_FAULTS)

    def test_reproduce_covers_the_argv_list(self):
        self.assertEqual(len(workloads.reproduce_commands()), 129)


if __name__ == "__main__":
    unittest.main()
