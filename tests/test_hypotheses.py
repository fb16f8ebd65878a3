import inspect
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from plimpton import hypotheses
from plimpton.hypotheses import (
    EXCLUDED_PAIRS_PRINTED,
    LOWER_EXTENSION_PRINTED,
    PLIMPTON_PAIRS_PRINTED,
    PRINTED_TABLES,
    PRINTED_VARIANTS,
    TABLE1_PQ,
    THEORIES,
    UPPER_EXTENSION_PRINTED,
    generate,
    link_to_standard,
    printed_corrections,
    printed_pairs,
    standard_table,
)
from plimpton.hypotheses import LinkChain
from plimpton.pairs import CRITERIA, ReciprocalPair, _four_place_index, _four_place_pairs
from plimpton.rows import build_row
from plimpton.sexagesimal import (
    SexagesimalError,
    SexValue,
    factor_2_3_5,
    mul,
    parse_sex,
    regular_from_int,
    render_sex,
    sub,
)
from plimpton.tablet import diff_against, verify_properties
from bench_oracle import oracle
from counting import counted
from test_sexagesimal import traced


def _t_set(tag):
    return {r.pair.T.mantissa for r in generate(tag)}


def _log(table):
    """The correction log of a printed table against its computed pairs."""
    return printed_corrections(table, [p for _, p in printed_pairs(table)])


PHILLIPS_T = [r.pair.T.mantissa for r in generate("phillips")]


class TestHypothesisCounts:
    @pytest.mark.parametrize("tag,count", [
        ("ns1945", 15), ("bruins1949", 15), ("price1964", 14),
        ("buck1980", 15), ("friberg1981", 15), ("friberg2007", 38),
        ("phillips", 15),
    ])
    def test_row_counts(self, tag, count):
        assert len(generate(tag)) == count

    # a name of an unhashable type is unknown too, not a TypeError
    @pytest.mark.parametrize("tag", ["kepler1619", ["x"]])
    def test_unknown_tag_rejected(self, tag):
        with pytest.raises(ValueError, match="unknown hypothesis " + re.escape(repr(tag))):
            generate(tag)

    @pytest.mark.parametrize("tag", list(THEORIES))
    def test_unknown_reduction_rejected(self, tag):
        with pytest.raises(ValueError, match="unknown reduction mode 'bogus'"):
            generate(tag, "bogus")


def _cmp_quadratic(r, offset, radicand):
    """Exact comparison of r with offset + sqrt(radicand) by squaring."""
    d = r - offset
    if d <= 0:
        return -1
    return (d * d > radicand) - (d * d < radicand)


# The published bounds on P/Q as exact rationals, the quadratic ones compared
# by squaring a Fraction: the reference for the theories' integer tests.
REFERENCE_BOUNDS = {
    "price1964": lambda r: Fraction(16, 9) < r <= Fraction(12, 5),
    "buck1980": lambda r: (_cmp_quadratic(r, 0, 3) > 0
                           and _cmp_quadratic(r, 1, 2) < 0),
    "friberg1981": lambda r: (r >= Fraction(9, 5)
                              and _cmp_quadratic(r, 1, 2) < 0),
    "friberg2007": lambda r: r < Fraction(29, 12),
}


class TestTheoryBounds:
    @pytest.mark.parametrize("tag", sorted(REFERENCE_BOUNDS))
    def test_integer_test_agrees_with_fraction_reference(self, tag):
        test = THEORIES[tag][3].args[3]
        regs = oracle.regular_mantissas()
        checked = 0
        for q in (q for q in regs if q < 100):
            for p in (p for p in regs if q < p <= 3 * q and gcd(p, q) == 1):
                assert test(p, q) == REFERENCE_BOUNDS[tag](Fraction(p, q)), (p, q)
                checked += 1
        assert checked == 63

    @pytest.mark.parametrize("tag,p,q,selected", [
        # convergents of sqrt(3): P**2 - 3 Q**2 is 1 above it, -2 below
        ("buck1980", 97, 56, True),
        ("buck1980", 71, 41, False),
        ("buck1980", 1351, 780, True),
        ("buck1980", 989, 571, False),
        # convergents of 1 + sqrt(2): (P - Q)**2 - 2 Q**2 is -1 below, 1 above
        ("friberg1981", 12, 5, True),
        ("friberg1981", 29, 12, False),
        ("friberg1981", 2378, 985, True),
        ("friberg1981", 985, 408, False),
        # rational bounds: which end is closed
        ("price1964", 16, 9, False),
        ("price1964", 12, 5, True),
        ("friberg1981", 9, 5, True),
        ("friberg2007", 29, 12, False),
    ])
    def test_exact_at_the_bounds(self, tag, p, q, selected):
        assert THEORIES[tag][3].args[3](p, q) is selected
        assert REFERENCE_BOUNDS[tag](Fraction(p, q)) is selected


def pq_walk(least_q, q_limit, p_limit, test):
    """A (P, Q) theory's pairs by a walk over Q, then P, in the regular
    mantissas of at most four places: every coprime P > Q with least Q <= Q
    < Q limit, P < P limit, P/Q <= 3 and test(P, Q), by decreasing P/Q.
    The oracle of the theories' selection from the one enumeration."""
    ms = oracle.regular_mantissas()
    triples = [factor_2_3_5(m) for m in ms]
    pairs = []
    for i in range(bisect_left(ms, least_q), bisect_left(ms, q_limit)):
        q = ms[i]
        top = 3 * q if p_limit is None else min(3 * q, p_limit - 1)
        for j in range(i + 1, bisect_right(ms, top)):
            if gcd(ms[j], q) == 1 and test(ms[j], q):
                pairs.append(ReciprocalPair.from_triple(
                    tuple(e - f for e, f in zip(triples[j], triples[i]))))
    return sorted(pairs, key=lambda p: p.T.value.fraction, reverse=True)


PQ_THEORIES = {"ns1945": 15, "price1964": 14, "buck1980": 15,
               "friberg1981": 15, "friberg2007": 38}


class TestOneEnumeration:
    def test_pq_theories_are_the_pq_rows(self):
        # a (P, Q) row's test holds its published parameters as .args, and
        # every such row selects from T in (1, 3]
        pq = {tag for tag, (_, _, _, keep) in THEORIES.items()
              if getattr(keep, "func", None) is hypotheses._pq_keep}
        assert PQ_THEORIES.keys() == pq
        assert {THEORIES[tag][1:3] for tag in pq} == {(60**3 + 1, 3 * 60**3)}
        assert all(len(THEORIES[tag][3].args) == 4 for tag in pq)
        # Table 1 keeps the raw S and D; every other row is build_row's
        assert {tag: THEORIES[tag][0] for tag in pq} == dict.fromkeys(
            pq, build_row) | {"ns1945": hypotheses._table1_row}

    def test_criterion_theories_select_the_tablet_range(self):
        assert {tag: THEORIES[tag] for tag in THEORIES.keys() - PQ_THEORIES.keys()} == {
            "bruins1949": (build_row, 388800, 518400, CRITERIA["bruins"]),
            "phillips": (build_row, 388800, 518400, CRITERIA["mult10"])}

    def test_a_theory_is_generated_through_its_own_row_rule(self, monkeypatch):
        # a theory is data: a new record with its own row rule needs no code
        def tagged_row(p, n, reduction):
            return (n, p, reduction)

        monkeypatch.setitem(THEORIES, "stub", (tagged_row, *THEORIES["phillips"][1:]))
        assert generate("stub", "tablet_faithful") == [
            (n, p, "tablet_faithful") for n, (_, p) in enumerate(printed_pairs("standard-15"), 1)]

    @pytest.mark.parametrize("tag", list(PQ_THEORIES))
    def test_pq_theory_equals_the_q_by_p_walk(self, tag):
        walked = pq_walk(*THEORIES[tag][3].args)
        assert [r.pair for r in generate(tag)] == walked
        assert len(walked) == PQ_THEORIES[tag]

    @pytest.mark.parametrize("tag", list(PQ_THEORIES))
    def test_every_selected_pair_is_in_the_table(self, tag):
        # the enumeration sees only pairs whose Tbar has at most four places
        table = set(oracle.regular_mantissas())
        for p in pq_walk(*THEORIES[tag][3].args):
            assert {p.T.mantissa, p.Tbar.mantissa} <= table, str(p)

    # T = 12/5 = 2;24 at a theory row's bounds: least Q is inclusive, the
    # Q and P limits exclusive.  No surveyed theory selects a pair at its
    # Q limit, so the walk above cannot tell < from <= there.
    @pytest.mark.parametrize("least_q, q_limit, p_limit, kept", [
        (5, 6, None, True), (6, 60, None, False), (1, 5, None, False),
        (1, 6, 12, False), (1, 6, 13, True)])
    def test_pq_bounds_at_12_over_5(self, least_q, q_limit, p_limit, kept):
        seen = []
        padded = 12 * 60**3 // 5
        got = _four_place_pairs(padded, padded, partial(
            hypotheses._pq_keep, least_q, q_limit, p_limit,
            lambda p, q: seen.append((p, q)) or True))
        assert got == ([ReciprocalPair.from_T_mantissa(144)] if kept else [])
        if kept:
            assert seen == [(12, 5)]  # P/Q in lowest terms

    def test_excluded_six_by_rule_are_the_printed_t(self):
        assert [pair for _, pair in printed_pairs("excluded-pairs")] == [
            ReciprocalPair.from_T_mantissa(parse_sex(t_text).mantissa)
            for _, t_text, _ in EXCLUDED_PAIRS_PRINTED]


class TestAgreements:
    def test_friberg2007_first_15_are_phillips(self):
        first15 = [r.pair.T.mantissa for r in generate("friberg2007")][:15]
        assert first15 == PHILLIPS_T

    def test_friberg1981_equals_phillips(self):
        assert [r.pair.T.mantissa for r in generate("friberg1981")] == PHILLIPS_T

    def test_bruins_equals_phillips(self):
        assert [r.pair.T.mantissa for r in generate("bruins1949")] == PHILLIPS_T

    def test_price_misses_only_the_2_1_row(self):
        # Q > 1 excludes the (P, Q) = (2, 1) parameterization of row 11
        missing = set(PHILLIPS_T) - _t_set("price1964")
        assert missing == {2}
        assert _t_set("price1964") < set(PHILLIPS_T)

    def test_price_text_variant_same_set(self):
        # Price's bound 12/5, misprinted as 2;25 = 29/12 in his text: no
        # coprime regular P/Q with 2 <= Q < 60 lies between the two, so both
        # readings select the same rows
        between = [(p, q) for q in range(2, 60) for p in range(q + 1, 3 * q)
                   if factor_2_3_5(p) is not None
                   and factor_2_3_5(q) is not None and gcd(p, q) == 1
                   and Fraction(12, 5) < Fraction(p, q) < Fraction(29, 12)]
        assert between == []

    def test_buck_differs_from_table1_in_one_swap(self):
        table1_t = {r.pair.T.mantissa for r in generate("ns1945")}
        buck_t = _t_set("buck1980")
        only_buck = buck_t - table1_t
        only_table1 = table1_t - buck_t
        # 16/9 = 1 46 40 enters (below the 1;48 cut-off but above sqrt(3));
        # 125/54 = 2 18 53 20 leaves (it needs P = 125 >= 100)
        assert only_buck == {6400}
        assert only_table1 == {500000}
        assert render_sex(ReciprocalPair.from_T_mantissa(6400).T.value) == "1 46 40"

    def test_ns1945_uses_raw_formula_values(self):
        rows = generate("ns1945")
        assert [(TABLE1_PQ[i]) for i in range(15)] == TABLE1_PQ
        by_n = {r.n: r for r in rows}
        # row 15: (P, Q) = (9, 5) gives the unreduced (56, 106)
        assert (by_n[15].s, by_n[15].d) == (56, 106)
        assert not by_n[15].reduced
        # row 11: (2, 1) gives the already-coprime (3, 5)
        assert (by_n[11].s, by_n[11].d) == (3, 5)
        assert (by_n[1].s, by_n[1].d) == (119, 169)
        # Table 1's rows are as published under either reduction
        assert generate("ns1945", "tablet_faithful") == rows

    def test_table1_order_matches_phillips_order(self):
        assert [r.pair.T.mantissa for r in generate("ns1945")] == PHILLIPS_T


class TestPrintedFifteen:
    def test_printed_table_matches_after_logged_correction(self):
        corrections = _log("standard-15")
        assert [(c.label, c.column, c.printed, c.computed)
                for c in corrections] == [("12", "T", "1 55 2", "1 55 12")]
        corrected = {(c.label, c.column): c.computed for c in corrections}
        for (label, t_text, tbar_text, _), (_, pair) in zip(
                PLIMPTON_PAIRS_PRINTED, printed_pairs("standard-15")):
            want_t = corrected.get((label, "T"), t_text)
            want_tbar = corrected.get((label, "Tbar"), tbar_text)
            assert render_sex(pair.T.value) == want_t
            assert render_sex(pair.Tbar.value) == want_tbar


_ALL_PRINTED_PAIRS = [pair for table in PRINTED_TABLES for _, pair in printed_pairs(table)]


def _oracle_logs(text, m):
    """The digit rule on the oracle's digits: a printed member is logged
    unless its digit list, trailing zero places dropped, is that of the
    computed mantissa m; a member with no digits is an error."""
    digits = [int(d) for d in text.split()]
    if not digits:
        raise SexagesimalError("no digits printed")
    while digits and digits[-1] == 0:
        digits.pop()
    # zero places only leave [], which no mantissa's digits are
    return digits != oracle.digits60(m)


def _oracle_corrections(table, printed, pairs):
    """The digit rule's log of printed rows (label, T, Tbar, ...) against
    their pairs, as (table, label, column, printed, computed)."""
    return [(table, label, column, text, oracle.render(m))
            for (label, *texts), pair in zip(printed, pairs)
            for column, text, m in zip(("T", "Tbar"), texts,
                                       (pair.T.mantissa, pair.Tbar.mantissa))
            if _oracle_logs(text, m)]


def _variant_log(table):
    """The digit rule's log of a table's printed variants, each against the
    pair of its label's row."""
    own = dict(printed_pairs(table))
    variants = PRINTED_VARIANTS.get(table, [])
    return _oracle_corrections(f"{table}(variant)", variants,
                               [own[label] for label, *_ in variants])


def _fields(log):
    return [(c.table, c.label, c.column, c.printed, c.computed) for c in log]


def _positional_then_filtered(table, listed):
    """The log of the positional rule, kept as a reference: every row of the
    table against its own computed pair in printed order, then its variants,
    then only the rows whose computed pair is in ``listed``, by label."""
    printed = PRINTED_TABLES[table][0]
    own = [pair for _, pair in printed_pairs(table)]
    out = _oracle_corrections(table, printed, own) + _variant_log(table)
    shown = set(listed)
    labels = {label for (label, *_), pair in zip(printed, own) if pair in shown}
    return [c for c in out if c[1] in labels]


def _log_as(table, printed):
    """The whole log of one printed table, its rows printed as ``printed``
    and read afresh, as (table, label, column, printed, computed)."""
    hypotheses._printed_log.cache_clear()
    try:
        with patch.dict(PRINTED_TABLES, {table: (printed, *PRINTED_TABLES[table][1:])}):
            return _fields(_log(table))
    finally:
        hypotheses._printed_log.cache_clear()


def _row_log(table, label, t_text, tbar_text):
    """The log of one printed row, its T and Tbar printed as given, as
    (column, printed, computed)."""
    printed = [(label, t_text, tbar_text) if row[0] == label else row
               for row in PRINTED_TABLES[table][0]]
    return [c[2:] for c in _log_as(table, printed) if c[:2] == (table, label)]


@st.composite
def _printed(draw, m):
    """A printed form of mantissa m: maybe trailing zero places, maybe a
    leading 0, maybe one place misprinted (64 and others past 59 included),
    maybe every place 0 or no place at all, each place padded to two
    characters or not, maybe the places two spaces apart."""
    digits = oracle.digits60(m) + [0] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        digits.insert(0, 0)
    if draw(st.booleans()):
        digits[draw(st.integers(0, len(digits) - 1))] = draw(
            st.one_of(st.just(64), st.integers(60, 99), st.integers(0, 59)))
    digits = draw(st.sampled_from([digits, digits, [0] * len(digits), []]))
    separator = draw(st.sampled_from([" ", " ", " ", "  "]))
    return separator.join(f"{d:02d}" if draw(st.booleans()) else str(d) for d in digits)


class TestPrintedTables:
    @pytest.mark.parametrize("table", list(PRINTED_TABLES))
    def test_one_pair_per_printed_row_by_decreasing_t(self, table):
        printed = PRINTED_TABLES[table][0]
        got = printed_pairs(table)
        assert [label for label, _ in got] == [label for label, *_ in printed]
        ts = [pair.T.value.fraction for _, pair in got]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_names_are_the_logged_table_names(self):
        assert list(PRINTED_TABLES) == ["standard-15", "excluded-pairs",
                                        "extension-lower", "extension-upper"]
        for table in PRINTED_TABLES:
            assert {c.table.split("(")[0] for c in _log(table)} == {table}

    @pytest.mark.parametrize("table", ["extension-sideways", "standard", "", ["x"]])
    def test_unknown_table_rejected(self, table):
        with pytest.raises(ValueError, match="unknown printed table"):
            printed_pairs(table)
        with pytest.raises(ValueError, match="unknown printed table"):
            printed_corrections(table, [])

    @pytest.mark.parametrize("rows", [5, 7])
    def test_length_mismatch_is_a_value_error(self, monkeypatch, rows):
        # PRINTED_TABLES is public: a table one row short or one row long
        printed, *record = PRINTED_TABLES["excluded-pairs"]
        changed = (printed * 2)[:rows]
        monkeypatch.setitem(PRINTED_TABLES, "excluded-pairs", (changed, *record))
        hypotheses._printed_log.cache_clear()
        try:
            with pytest.raises(ValueError, match="computed 6 pairs, printed table has"):
                printed_pairs("excluded-pairs")
            with pytest.raises(ValueError, match="computed 6 pairs, printed table has"):
                printed_corrections("excluded-pairs", [])
        finally:
            monkeypatch.undo()
            hypotheses._printed_log.cache_clear()

    def test_variant_of_no_row_is_a_value_error(self, monkeypatch):
        # PRINTED_VARIANTS is public: a variant row whose label the table
        # does not have raised KeyError
        monkeypatch.setitem(PRINTED_VARIANTS, "extension-upper", [("99", "1 2")])
        hypotheses._printed_log.cache_clear()
        try:
            with pytest.raises(ValueError, match="extension-upper: a variant row's "
                                                 "label '99' is not the table's"):
                printed_corrections("extension-upper", [])
        finally:
            monkeypatch.undo()
            hypotheses._printed_log.cache_clear()
        assert "extension-upper" not in PRINTED_VARIANTS
        assert [c.label for c in _log("extension-upper")] == ["33"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), table=st.sampled_from(list(PRINTED_TABLES)))
    def test_logs_the_listed_rows_in_any_order(self, data, table):
        # any subset of the printed tables' pairs, in any order: the rows
        # logged are those the positional rule and a label filter log
        listed = data.draw(st.lists(st.sampled_from(_ALL_PRINTED_PAIRS), unique=True))
        assert _fields(printed_corrections(table, listed)) == \
            _positional_then_filtered(table, listed)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), table=st.sampled_from(list(PRINTED_TABLES)))
    def test_a_listing_filters_the_full_log(self, data, table):
        # any subset of the table's own pairs, in any order, logs a
        # subsequence of the log of every pair: the listed pairs select rows
        # and are never compared themselves
        listed = data.draw(st.permutations([p for _, p in printed_pairs(table)]))
        listed = listed[:data.draw(st.integers(0, len(listed)))]
        full = iter(_log(table))
        assert all(c in full for c in printed_corrections(table, listed))

    @pytest.mark.parametrize("minus_17", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_variant_is_logged_only_with_row_minus_17(self, minus_17, seed):
        rng = random.Random(seed)
        listed = [pair for label, pair in printed_pairs("extension-lower")
                  if (minus_17 if label == "-17" else rng.random() < 0.5)]
        rng.shuffle(listed)
        got = _fields(printed_corrections("extension-lower", listed))
        assert got == _positional_then_filtered("extension-lower", listed)
        variant = [(c[1], c[4]) for c in got if c[0].endswith("(variant)")]
        assert variant == ([("-17", "3 28 20")] if minus_17 else [])

    @pytest.mark.parametrize("as_iterator", [iter, lambda ps: (p for p in ps)])
    def test_reads_the_listed_pairs_once(self, as_iterator):
        # the type check used up an iterator, so no pair was listed
        listed = [p for _, p in printed_pairs("extension-upper")]
        got = printed_corrections("extension-upper", as_iterator(listed))
        assert got == printed_corrections("extension-upper", listed)
        assert [(c.label, c.column) for c in got] == [("33", "T")]

    def test_empty_pair_list_logs_nothing(self):
        assert printed_corrections("standard-15", []) == []


class TestPrintedReadings:
    """Each printed member is read once per process by parse_sex, and
    matches when it reads as the listed member's mantissa."""

    def test_trailing_zeros_unpadded_places_and_a_64(self):
        # row 8 prints (2 08, 28 07 30)
        assert _row_log("standard-15", "8", "2 08 00", "28 07 30 00 00") == []
        assert _row_log("standard-15", "8", "2 8", "28 7 30") == []
        assert _row_log("standard-15", "8", "2 08", "28 64 30") == \
            [("Tbar", "28 64 30", "28 07 30")]

    def test_a_member_of_zero_places_only_is_logged(self):
        # row 11 prints (2, 30)
        assert _row_log("standard-15", "11", "00 00", "30") == [("T", "00 00", "2")]
        assert _row_log("standard-15", "11", "2", "0") == [("Tbar", "0", "30")]

    @pytest.mark.parametrize("text", ["", " ", "\t"])
    def test_a_member_with_no_digits_is_logged(self, text):
        # it raised SexagesimalError before parse_sex read the members
        assert _row_log("standard-15", "11", text, "30") == [("T", text, "2")]

    @pytest.mark.parametrize("t_text,logged", [
        ("1 04", False), ("01 4 00 00", False), ("1:04", False),
        # a leading zero place reads as nothing (it was logged before)
        ("0 1 04", False), ("00 01 04", False),
        # read as integers these are 64 too
        ("64", True), ("0 64 00", True), ("2 -56", True),
        # places not one space apart, or signed, do not parse (they
        # matched before)
        ("1  04", True), ("1 04  00", True), ("1\t04", True), ("+1 04", True),
    ])
    def test_a_member_is_logged_unless_it_parses_to_the_mantissa(self, t_text, logged):
        # row 37 prints (1 4 0 0, 56 15 0 0)
        got = _row_log("extension-upper", "37", t_text, "56 15")
        assert got == ([("T", t_text, "1 04")] if logged else [])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), table=st.sampled_from(list(PRINTED_TABLES)))
    def test_matches_the_rule_on_the_oracle_digits(self, data, table):
        # the oracle's digit rule but for the reader's three stated
        # departures: a leading zero place reads as nothing, and a member
        # with no digits or with a doubled space is logged; up to four rows
        # are drawn, and columns past T and Tbar are not compared
        own = [pair for _, pair in printed_pairs(table)]
        printed = list(PRINTED_TABLES[table][0])
        for i in data.draw(st.sets(st.integers(0, len(own) - 1), max_size=4)):
            printed[i] = (printed[i][0], data.draw(_printed(own[i].T.mantissa)),
                          data.draw(_printed(own[i].Tbar.mantissa)), "extra")
        expected = []
        for (label, *texts), pair in zip(printed, own):
            for column, text, m in zip(("T", "Tbar"), texts,
                                       (pair.T.mantissa, pair.Tbar.mantissa)):
                places = text.split()
                while len(places) > 1 and int(places[0]) == 0:
                    places.pop(0)
                if not places or "  " in text or _oracle_logs(" ".join(places), m):
                    expected.append((table, label, column, text, oracle.render(m)))
        assert _log_as(table, printed) == expected + _variant_log(table)

    @pytest.mark.parametrize("table", list(PRINTED_TABLES))
    def test_renders_only_the_logged_members(self, table):
        # each logged member once, on the log's first use in a process;
        # a warm call renders none
        hypotheses._printed_log.cache_clear()
        counts = []
        for _ in range(2):
            with counted((hypotheses, "render_sex")) as (rendered,):
                logged = _log(table)
            counts.append(len(rendered))
        assert counts == [len(logged), 0]

    def test_reads_each_printed_member_once_per_process(self):
        # 24 rows of two members, then the variant's one
        hypotheses._printed_log.cache_clear()
        counts = []
        for _ in range(2):
            with counted((hypotheses, "parse_sex")) as (read,):
                _log("extension-lower")
            counts.append(len(read))
        assert counts == [49, 0]

    def test_standard_15_is_the_phillips_theory(self):
        assert PRINTED_TABLES["standard-15"][1:] == THEORIES["phillips"][1:]
        assert THEORIES["phillips"][0] is build_row
        assert [p for _, p in printed_pairs("standard-15")] == \
            [r.pair for r in generate("phillips")]


class TestExtensions:
    def test_counts_and_boundary_rows(self):
        lower = printed_pairs("extension-lower")
        upper = printed_pairs("extension-upper")
        assert len(lower) == 24
        assert len(upper) == 28
        assert (lower[-1][0], str(lower[-1][1])) == ("-1", "(2 30, 24)")
        assert (upper[0][0], render_sex(upper[0][1].T.value)) == \
            ("16", "1 46 40")
        assert render_sex(upper[-1][1].Tbar.value) == "59 15 33 20"

    def test_labels_match_printed_tables(self):
        assert [label for label, _ in printed_pairs("extension-lower")] == \
            [label for label, *_ in LOWER_EXTENSION_PRINTED]
        assert [label for label, _ in printed_pairs("extension-upper")] == \
            [label for label, *_ in UPPER_EXTENSION_PRINTED]

    def test_corrections_are_exactly_the_known_misprints(self):
        lower = [(c.table, c.label, c.column, c.computed)
                 for c in _log("extension-lower")]
        assert lower == [
            ("extension-lower", "-14", "Tbar", "18 31 06 40"),
            ("extension-lower(variant)", "-17", "T", "3 28 20"),
        ]
        upper = [(c.label, c.column, c.computed)
                 for c in _log("extension-upper")]
        assert upper == [("33", "T", "1 11 06 40")]

    def test_extensions_partition_the_full_list(self):
        full = {p.T.mantissa for p in
                _four_place_pairs(216001, 12959999, CRITERIA["mult10"])}
        fifteen = set(PHILLIPS_T)
        lower = {p.T.mantissa for _, p in printed_pairs("extension-lower")}
        upper = {p.T.mantissa for _, p in printed_pairs("extension-upper")}
        assert lower & fifteen == set()
        assert upper & fifteen == set()
        assert lower & upper == set()
        assert lower | upper | fifteen <= full

    def test_interpolated_rows_connect_to_numbered_neighbors(self):
        # every roman-labeled pair is a doubling/halving (or the 9-fold
        # jump for label v) of some numerically labeled pair's member
        numbered = set(PHILLIPS_T)
        for side in ("lower", "upper"):
            for label, pair in printed_pairs(f"extension-{side}"):
                if label.lstrip("-").isdigit():
                    numbered.add(pair.T.mantissa)
                    numbered.add(pair.Tbar.mantissa)
        for side in ("lower", "upper"):
            for label, pair in printed_pairs(f"extension-{side}"):
                if label.lstrip("-").isdigit():
                    continue
                t = pair.T.mantissa
                related = {oracle.strip60(t * k) for k in (2, 9)}
                related |= {oracle.strip60(t * 60**3 // k) for k in (2, 9)
                            if (t * 60**3) % k == 0}
                assert related & numbered, label


class TestStandardTableAndLinks:
    def test_standard_table_contents(self):
        table = standard_table()
        mantissas = [p.T.mantissa for p in table]
        assert mantissas[0] == 2
        assert mantissas[-1] == 81
        assert 60 not in mantissas and 1 not in mantissas
        assert all(factor_2_3_5(m) for m in mantissas)
        # 21 distinct pair states (n and recip(n) share one state)
        states = {min(p.T.mantissa, p.Tbar.mantissa) for p in table}
        assert len(states) == 21

    def test_in_table_rows(self):
        in_table = [int(label) for label, p in printed_pairs("standard-15")
                    if link_to_standard(p).in_table]
        assert in_table == [1, 6, 11, 13]

    def test_chain_replay_reproduces_the_pair(self):
        for _, p in printed_pairs("standard-15"):
            chain = link_to_standard(p)
            replayed = chain.replay()
            assert replayed.T.mantissa in (p.T.mantissa, p.Tbar.mantissa)

    def test_known_chains(self):
        by_n = {int(label): link_to_standard(p)
                for label, p in printed_pairs("standard-15")}
        assert str(by_n[7]) == "(54, 1 06 40) × (1/25, 25)"
        for n, magnitude in ((2, 27), (4, 125), (8, 2)):
            assert max(by_n[n].factor_ratio) == magnitude
        assert by_n[10].factor_ratio == (3, 2)
        # ties at one step prefer doubling over tripling or quintupling
        assert by_n[15].factor_ratio == (2, 1)
        assert by_n[15].start.T.mantissa == 54

    def test_start_is_always_in_the_standard_table(self):
        states = {min(p.T.mantissa, p.Tbar.mantissa) for p in standard_table()}
        for _, p in printed_pairs("standard-15"):
            chain = link_to_standard(p)
            key = min(chain.start.T.mantissa, chain.start.Tbar.mantissa)
            if chain.in_table:
                continue
            assert key in states


# ---------------------------------------------------------------------------
# Reference implementations of the link search, kept as oracles for the
# closed form in ``link_to_standard``.

_NEIGHBOR_STEPS = [(2, (1, 0, 0)), (3, (0, 1, 0)), (5, (0, 0, 1))]


def _neighbors(m):
    for prime, unit in _NEIGHBOR_STEPS:
        yield oracle.strip60(m * prime), unit, 1
        mm = m
        while mm % prime:
            mm *= 60
        yield oracle.strip60(mm // prime), unit, -1


def bfs_link(p):
    """Breadth-first search over mantissas from both members of p, with
    the documented tie-break; exponential in the chain depth."""
    std = frozenset(min(q.T.mantissa, q.Tbar.mantissa)
                    for q in standard_table())

    def recip(m):
        return oracle.strip60(60 ** oracle.reciprocal_places(m) // m)

    def key(m):
        return min(m, recip(m))

    def chain_for(state, vec, member):
        # state * 2^-vec == the walked member of p (floating)
        if member == "T":
            start_m, factor = state, tuple(-e for e in vec)
        else:
            start_m, factor = recip(state), vec
        return LinkChain(ReciprocalPair.from_T_mantissa(start_m), factor)

    if key(p.T.mantissa) in std:
        return LinkChain(p, (0, 0, 0))
    frontier = [(p.T.mantissa, (0, 0, 0), "T"),
                (p.Tbar.mantissa, (0, 0, 0), "Tbar")]
    seen = {key(p.T.mantissa)}
    while frontier:
        nxt = []
        hits = []
        for state, vec, member in frontier:
            for nb, unit, sign in _neighbors(state):
                k = key(nb)
                if k in seen:
                    continue
                nvec = tuple(v + sign * u for v, u in zip(vec, unit))
                if k in std:
                    hits.append(chain_for(nb, nvec, member))
                else:
                    nxt.append((nb, nvec, member))
        if hits:
            return min(hits, key=lambda c: (
                tuple(-abs(e) for e in c.factor),
                tuple(-e for e in c.factor),
                c.start.T.mantissa))
        for state, _, _ in nxt:
            seen.add(key(state))
        frontier = nxt
    raise AssertionError("the search space is exhausted")


def loop_link(p):
    """The closed form scoring every integer j between the breakpoints,
    with the documented tie-break; linear in the exponents."""
    def lattice_class(r):
        return r.alpha - 2 * r.gamma, r.beta - r.gamma

    starts = {lattice_class(r): r for q in standard_table() for r in (q.T, q.Tbar)}
    t1, t2 = lattice_class(p.T)
    if (t1, t2) in starts:
        return LinkChain(p, (0, 0, 0))
    fewest, ties = None, []
    for (s1, s2), r in starts.items():
        d1, d2 = t1 - s1, t2 - s2
        for j in range(min(0, -d2, -d1 // 2), max(0, -d2, -(d1 // 2)) + 1):
            steps = abs(d1 + 2 * j) + abs(d2 + j) + abs(j)
            if fewest is None or steps < fewest:
                fewest, ties = steps, []
            if steps == fewest:
                ties.append(((d1 + 2 * j, d2 + j, j), r))
    factor, r = min(ties, key=lambda c: (
        tuple(-abs(e) for e in c[0]), tuple(-e for e in c[0]), c[1].mantissa))
    return LinkChain(ReciprocalPair.from_triple(r.triple), factor)


def scan_link(p):
    """The closed form over every start class in the table's order, scoring
    j = 0, -d2 and either side of -d1/2 only for the classes that reach the
    fewest steps so far, with the documented tie-break; one step count per
    class, at any exponents."""
    def lattice_class(r):
        return r.alpha - 2 * r.gamma, r.beta - r.gamma

    starts = {lattice_class(r): r for q in standard_table() for r in (q.T, q.Tbar)}
    t1, t2 = lattice_class(p.T)
    if (t1, t2) in starts:
        return LinkChain(p, (0, 0, 0))
    fewest, ties = None, []
    for (s1, s2), r in starts.items():
        d1, d2 = t1 - s1, t2 - s2
        steps = max(abs(d1 - d2), abs(d2) + (d1 & 1))
        if fewest is None or steps < fewest:
            fewest, ties = steps, []
        elif steps > fewest:
            continue
        for j in {0, -d2, -d1 // 2, -(d1 // 2)}:
            if abs(d1 + 2 * j) + abs(d2 + j) + abs(j) == steps:
                ties.append(((d1 + 2 * j, d2 + j, j), r))
    factor, r = min(ties, key=lambda c: (
        tuple(-abs(e) for e in c[0]), tuple(-e for e in c[0]), c[1].mantissa))
    return LinkChain(ReciprocalPair.from_triple(r.triple), factor)


def _lattice_class(m):
    a, b, c = oracle.factor235(m)
    return a - 2 * c, b - c


def _lattice_depths(radius=60):
    """Fewest steps from a standard-table member to every lattice class
    within ``radius``, by breadth-first search over classes: a step by 2,
    3 or 5 moves a class by (1, 0), (0, 1) or (-2, -1), or the opposite."""
    depth = {_lattice_class(m): 0 for q in standard_table()
             for m in (q.T.mantissa, q.Tbar.mantissa)}
    frontier = list(depth)
    while frontier:
        nxt = []
        for x, y in frontier:
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (-2, -1), (2, 1)):
                cell = (x + dx, y + dy)
                if cell not in depth and max(map(abs, cell)) <= radius:
                    depth[cell] = depth[(x, y)] + 1
                    nxt.append(cell)
        frontier = nxt
    return depth


FOUR_PLACE_PAIRS = [ReciprocalPair.from_T_mantissa(m)
                    for m in oracle.regular_mantissas()]

# Start classes: both members of the 21 standard-table pairs.
START_CLASSES = 42


def count_runs(p, prefix: str) -> int:
    """How often the lines of ``link_to_standard`` that start with
    ``prefix`` run while it links p, counted by a line tracer."""
    _, ran = traced(link_to_standard, lambda: link_to_standard(p))
    return sum(n for line, n in ran.items() if line.startswith(prefix))


# the line that reads one start class, the line that computes the fewest
# steps from it, and the line that scores one candidate j
VISIT_LINE, STEPS_LINE, SCORE_LINE = "d1, d2 = ", "steps = ", "if abs(d1 + 2 * j)"


def fewest_steps_expression():
    """The right-hand side of link_to_standard's ``steps = ...`` line as a
    function of (d1, d2): the code itself, not a copy of it, is checked."""
    lines, _ = inspect.getsourcelines(link_to_standard)
    line = next(line for line in lines if line.lstrip().startswith(STEPS_LINE))
    return eval(f"lambda d1, d2: {line.split('=', 1)[1].strip()}")


def brute_fewest_steps(d1, d2):
    """min over j of |d1 + 2j| + |d2 + j| + |j|, trying every integer j
    between the breakpoints -d1/2, -d2 and 0."""
    lo, hi = min(0, -d2, -d1 // 2), max(0, -d2, -(d1 // 2))
    return min(abs(d1 + 2 * j) + abs(d2 + j) + abs(j) for j in range(lo, hi + 1))


class TestClosedFormLinks:
    @pytest.mark.parametrize("p", [2, None, (0, 0, 0),
                                   ReciprocalPair.from_T_mantissa(2).T])
    def test_links_only_a_pair(self, p):
        # link_to_standard(2) raised AttributeError
        with pytest.raises(SexagesimalError, match="defined for ReciprocalPairs"):
            link_to_standard(p)

    @pytest.mark.parametrize("t, tbar", [(3, 2), (2, 3), (144, 144), (1, 2), (2, 30)])
    def test_refuses_a_pair_that_is_not_reciprocal(self, t, tbar):
        # (3, 2) was linked "in table", and so was (2, 30), whose lattice
        # classes cancel but whose product is 60: no such pair is built
        with pytest.raises(SexagesimalError, match="not a reciprocal pair"):
            link_to_standard(ReciprocalPair(regular_from_int(t), regular_from_int(tbar)))

    def test_links_every_four_place_pair_either_way_round(self):
        assert len(FOUR_PLACE_PAIRS) == 432
        for p in FOUR_PLACE_PAIRS:
            swapped = ReciprocalPair(p.Tbar, p.T)
            # a swapped pair links as the pair whose T is its first member
            assert link_to_standard(swapped).factor == \
                link_to_standard(ReciprocalPair.from_triple(p.Tbar.triple)).factor, str(p)

    def test_same_chain_as_the_search_up_to_depth_5(self):
        depths = _lattice_depths()
        shallow = [p for p in FOUR_PLACE_PAIRS
                   if depths[_lattice_class(p.T.mantissa)] <= 5]
        assert len(shallow) == 313
        for p in shallow:
            assert link_to_standard(p) == bfs_link(p), str(p)

    def test_every_four_place_link(self):
        depths = _lattice_depths()
        states = {min(q.T.mantissa, q.Tbar.mantissa) for q in standard_table()}
        assert len(FOUR_PLACE_PAIRS) == 432
        for p in FOUR_PLACE_PAIRS:
            chain = link_to_standard(p)
            assert chain.steps == depths[_lattice_class(p.T.mantissa)], str(p)
            assert chain.replay().T.mantissa == p.T.mantissa, str(p)
            assert min(chain.start.T.mantissa, chain.start.Tbar.mantissa) in states

    def test_same_chain_as_the_full_scan_on_every_four_place_pair(self):
        for p in FOUR_PLACE_PAIRS:
            assert link_to_standard(p) == loop_link(p), str(p)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*[st.integers(-300, 300)] * 3))
    def test_same_chain_as_the_full_scan_on_wide_triples(self, triple):
        p = ReciprocalPair.from_triple(triple)
        assert link_to_standard(p) == loop_link(p)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*[st.integers(-10**4, 10**4)] * 3))
    def test_same_chain_as_the_scan_of_every_class(self, triple):
        p = ReciprocalPair.from_triple(triple)
        assert link_to_standard(p) == scan_link(p)

    @pytest.mark.parametrize("triple, at", [
        ((-7, 0, 0), 0),    # u = -7, below every start's a (-6 to 6)
        ((0, 0, 9), 0),     # u = -9
        ((7, 0, 0), 42),    # u = 7, above every start's a
        ((30, -9, 0), 42),  # u = 39
        ((10, 7, 0), 34),   # u = 3, the a of four starts
        ((-6, -2, 0), 2),   # u = -4, the a of two starts
        ((5, 5, 0), 19),    # u = 0, then a = -1 and a = 1 equally near
    ])
    def test_same_chain_as_the_scan_of_every_class_at_the_edges(self, triple, at):
        p = ReciprocalPair.from_triple(triple)
        t1, t2 = hypotheses._lattice_class(p.T)
        _, a_values, _ = hypotheses._start_classes()
        assert bisect_left(a_values, t1 - t2) == at
        assert not link_to_standard(p).in_table
        assert link_to_standard(p) == scan_link(p)

    @pytest.mark.parametrize("n", [23, 1000, 50000])
    def test_deep_powers_of_two(self, n):
        # 2**n has class (n, 0); the nearest start is 64 = 2**6, class
        # (6, 0), and every j from -((n - 6) // 2) to 0 takes n - 6 steps there:
        # the tie-break keeps j = 0, n - 6 doublings.
        chain = link_to_standard(ReciprocalPair.from_triple((n, 0, 0)))
        assert chain.start.T.mantissa == 64
        assert chain.factor == (n - 6, 0, 0) and chain.steps == n - 6

    def test_scores_at_most_four_candidates_per_start_class(self):
        # one step count for each class visited, nearest first, and at most
        # 42; j = 0, -d2 and the integers either side of -d1/2 only for the
        # classes that reach the fewest so far; a pair of the table itself
        # scores none.  1,556 step counts over the 390 pairs not in the
        # table, where scanning every class made 16,380.
        total = 0
        for p in FOUR_PLACE_PAIRS:
            counted = count_runs(p, STEPS_LINE)
            scored = count_runs(p, SCORE_LINE)
            if link_to_standard(p).in_table:
                assert counted == scored == 0, str(p)
            else:
                assert 1 <= counted <= START_CLASSES, str(p)
                assert 1 <= scored <= 4 * counted, str(p)
                total += counted
        assert total == 1556

    @pytest.mark.parametrize("e", [50000, -50000])
    def test_a_far_class_reads_two_start_classes(self, e):
        # u = +-50000 lies beyond every start's a: the nearest start takes
        # 49,994 steps, and the next is already farther than that; j = 0
        # and j = -24,997 are scored there
        p = ReciprocalPair.from_triple((e, 0, 0))
        assert count_runs(p, VISIT_LINE) == 2
        assert count_runs(p, STEPS_LINE) == 1
        assert count_runs(p, SCORE_LINE) == 2

    def test_scores_few_candidates_over_the_four_place_pairs(self):
        # 3,538 j scored over the 390 pairs not in the table; 9,074 when
        # every class was scanned, and 53,141 scoring every class's four
        # candidates.  Counts do not jitter.
        linked = [p for p in FOUR_PLACE_PAIRS if not link_to_standard(p).in_table]
        assert len(linked) == 390
        assert sum(count_runs(p, SCORE_LINE) for p in linked) <= 3538

    def test_ties_between_start_classes_go_to_the_tie_break(self):
        # 128 pairs not in the table reach their fewest steps from more than
        # one start class; for 110 of them the tie-break picks a class that
        # comes after the first such class in the table's order, so a class
        # at the fewest steps so far is scored, not skipped
        starts, _, _ = hypotheses._start_classes()
        tied = later = 0
        for p in FOUR_PLACE_PAIRS:
            chain = link_to_standard(p)
            if chain.in_table:
                continue
            t1, t2 = hypotheses._lattice_class(p.T)
            steps = {(s1, s2): brute_fewest_steps(t1 - s1, t2 - s2)
                     for s1, s2 in starts}
            at_fewest = [c for c, n in steps.items() if n == chain.steps]
            if len(at_fewest) > 1:
                tied += 1
                later += hypotheses._lattice_class(chain.start.T) != at_fewest[0]
        assert (tied, later) == (128, 110)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(*[st.one_of(st.integers(-5, 5), st.integers(-10**6, 10**6))] * 2)
    @example(7, 3)
    @example(-999_999, 10**6)
    def test_fewest_steps_in_closed_form(self, d1, d2):
        assert fewest_steps_expression()(d1, d2) == brute_fewest_steps(d1, d2)

    def test_start_pairs_are_built_once_from_their_own_member(self):
        # each class maps to the pair whose T is that member: a standard
        # pair itself for its T's class, the pair turned round for Tbar's
        members = {r.mantissa for q in standard_table() for r in (q.T, q.Tbar)}
        cached = hypotheses._start_classes()
        assert hypotheses._start_classes() is cached
        starts, a_values, by_a = cached
        assert len(starts) == START_CLASSES
        for cls, start in starts.items():
            assert hypotheses._lattice_class(start.T) == cls
            assert start.T.mantissa in members
            assert start == ReciprocalPair.from_triple(start.T.triple)
        # the same classes and pairs, sorted by a = s1 - s2, with their a
        assert len(by_a) == START_CLASSES and {c[:2] for c in by_a} == starts.keys()
        assert all(start is starts[s1, s2] for s1, s2, start in by_a)
        assert a_values == [s1 - s2 for s1, s2, _ in by_a] == sorted(a_values)

    def test_table_and_start_pairs_are_the_index_pairs(self):
        # one set of four-place pairs: each standard-table pair and each
        # start pair, by class and in the sorted view, is the object the
        # shared index holds; one cache holds the classes and the view, so
        # once cleared with the index neither keeps the old index's pairs
        hypotheses._start_classes.cache_clear()
        held = {id(pair) for *_, pair in _four_place_index()[1]}
        assert [id(p) in held for p in standard_table()] == [True] * 29
        assert [id(p) in held for p in hypotheses._start_classes()[0].values()] == [True] * 42
        _four_place_index.cache_clear()
        hypotheses._start_classes.cache_clear()
        held = {id(pair) for *_, pair in _four_place_index()[1]}
        starts, _, by_a = hypotheses._start_classes()
        assert [id(p) in held for p in starts.values()] == [True] * 42
        assert [id(p) in held for *_, p in by_a] == [True] * 42


class TestLinkChainFactor:
    @pytest.mark.parametrize("factor", [
        (0.5, 0, 0), (1, 0, 2.0), (True, 0, 0), (0, False, 0), (1, 0),
        (1, 0, 0, 0), (), [1, 0, 0], (Fraction(1), 0, 0), "abc", None,
    ])
    def test_refuses_anything_but_three_ints(self, factor):
        # a float exponent printed (2, 30) × (1.4142135623730951, ...)
        start = ReciprocalPair.from_T_mantissa(2)
        with pytest.raises(SexagesimalError, match="three ints"):
            LinkChain(start, factor)

    @pytest.mark.parametrize("start", [2, None, (0, 0, 0),
                                       ReciprocalPair.from_T_mantissa(2).T])
    def test_refuses_a_start_that_is_not_a_pair(self, start):
        # LinkChain(2, (0, 0, 0)) was accepted, and its replay() raised
        # AttributeError
        with pytest.raises(SexagesimalError, match="start must be a ReciprocalPair"):
            LinkChain(start, (0, 0, 0))

    @pytest.mark.parametrize("t, tbar", [(3, 2), (2, 3), (144, 144), (1, 2), (2, 30)])
    def test_refuses_a_start_that_is_not_reciprocal(self, t, tbar):
        # (3, 2) was accepted with factor (1, 0, 0): its text read
        # "(3, 2) × (2, 1/2)", and its replay() gave (6, 10).  No such start
        # is built.
        with pytest.raises(SexagesimalError, match="not a reciprocal pair"):
            LinkChain(ReciprocalPair(regular_from_int(t), regular_from_int(tbar)), (1, 0, 0))

    def test_keeps_its_fields(self):
        start = ReciprocalPair.from_T_mantissa(54)
        chain = LinkChain(start, (0, 0, -2))
        assert (chain.start, chain.factor) == (start, (0, 0, -2))
        assert LinkChain(factor=(0, 0, -2), start=start) == chain


@pytest.mark.parametrize("call,match", [
    (lambda: build_row(1), "a row is built from a ReciprocalPair, not int"),
    (lambda: printed_corrections("standard-15", [1]),
     "every listed pair must be a ReciprocalPair"),
    (lambda: diff_against([1] * 15), "a generated row must be a RowCandidate, not int"),
    (lambda: render_sex(3), "rendering is defined for SexValues, not int"),
    (lambda: mul(1, 2), "a product is defined for SexValues, not int"),
    (lambda: sub(SexValue(1), 2), "a difference is defined for SexValues, not int"),
    (lambda: verify_properties([1]), "a verified row must be a TabletRowRecord, not int"),
])
def test_a_value_of_the_wrong_type_is_a_domain_error(call, match):
    # each raised AttributeError on the int's missing fields
    with pytest.raises(SexagesimalError, match=match):
        call()
