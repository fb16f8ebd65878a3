"""The CLI against the benchmark's independent oracle, ``bench/oracle.py``,
which computes on integers and Fractions and imports nothing from plimpton:
``pairs`` over every criterion and any range, ``recip`` and ``link`` on
regular values of up to ~40 places, and the rows of every theory (ns1945's
S and D against Table 1's formula), each run through ``main()``."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from plimpton.cli import main
from plimpton.hypotheses import THEORIES
from plimpton.rows import build_row
from bench_oracle import oracle
from test_pairs import oracle_pairs


def _out(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def _fraction(value: dict) -> Fraction:
    return Fraction(int(value["numerator"]), int(value["denominator"]))


def _fixed(n, k):
    """n / 60**k in the fixed reading: its whole places, ";", then k places."""
    whole, part = divmod(n, 60**k)
    return oracle.render(whole) + ";" + oracle.render(60**k + part)[2:]


def _check_pairs(kind, a, b):
    # an end (n, k) is n / 60**k
    lo, hi = sorted(Fraction(n, 60**k) for n, k in (a, b))
    doc = json.loads(_out("pairs", "--criterion", kind, "--from", _fixed(*a), "--to", _fixed(*b),
                          "--format", "json"))
    assert [(_fraction(row["T"]), _fraction(row["Tbar"])) for row in doc["rows"]] == \
        oracle_pairs(kind, lo, hi)


def _check_recip(m):
    expected = oracle.strip60(60 ** oracle.reciprocal_places(m) // m)
    assert _out("recip", oracle.render(m)) == oracle.render(expected) + "\n"


def _check_link(m):
    doc = json.loads(_out("link", oracle.render(m), "--format", "json"))
    assert doc["steps"] == oracle.link_depth(m)
    start = oracle.floating_mantissa(_fraction(doc["start"]["T"]))
    assert oracle.replay_link(start, doc["factor"]) == oracle.strip60(m)


# an end on the grid of up to six fractional places, from 0 to past 60
_END = st.integers(0, 6).flatmap(lambda k: st.tuples(st.integers(0, 61 * 60**k), st.just(k)))
_REGULAR = st.builds(lambda a, b, c: 2**a * 3**b * 5**c,
                     st.integers(0, 80), st.integers(0, 50), st.integers(0, 35))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.tuples(st.just(_check_pairs), st.sampled_from(["mult10", "places4", "bruins"]),
              _END, _END),
    st.tuples(st.sampled_from([_check_recip, _check_link]), _REGULAR)))
@example((_check_pairs, "mult10", (144, 1), (108, 1)))  # the tablet's range, high end first
@example((_check_pairs, "bruins", (108, 1), (144, 1)))
@example((_check_pairs, "places4", (0, 0), (61, 0)))
@example((_check_recip, 450))                            # 7 30 -> 8
@example((_check_link, 7776))                            # 2 09 36, two steps
@example((_check_link, 2**80 * 3**50 * 5**35))
def test_cli_agrees_with_the_oracle(case):
    check, *args = case
    check(*args)


# ns1945's rows keep Table 1's raw S = P**2 - Q**2 and D = P**2 + Q**2 for
# T = P/Q in lowest terms, unreduced exactly when P and Q are both odd;
# every other theory's S, D and flag are the oracle's build_row's
@pytest.mark.parametrize("reduction", ["full", "tablet-faithful"])
@pytest.mark.parametrize("tag", list(THEORIES))
def test_rows_agree_with_the_oracle(tag, reduction):
    columns = ("X", "Y", "A", "S", "D")
    doc = json.loads(_out("rows", "--hypothesis", tag, "--reduction", reduction,
                          "--format", "json"))
    assert doc["rows"]
    for row in doc["rows"]:
        t = _fraction(row["T"])
        want = oracle.build_row(t, _fraction(row["Tbar"]), reduction)
        if THEORIES[tag][0] is not build_row:
            p, q = t.numerator, t.denominator
            want |= {"S": p * p - q * q, "D": p * p + q * q, "unreduced": p % 2 == q % 2 == 1}
        assert {name: _fraction(row[name]) for name in columns} == \
            {name: want[name] for name in columns}, row["label"]
        assert ("unreduced_scribal_form" in row["flags"].split(";")) == want["unreduced"]
