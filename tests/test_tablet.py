import hashlib
from fractions import Fraction
from importlib import resources
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from plimpton import tablet
from plimpton.cli import main
from plimpton.hypotheses import generate
from plimpton.rows import RowCandidate
from plimpton.sexagesimal import (
    SexValue,
    SexagesimalError,
    _ratio,
    mul,
    parse_sex,
    render_sex,
    sub,
)
from plimpton.tablet import (
    EDITIONS,
    PROPERTIES,
    RowDiff,
    TabletCell,
    TabletRowRecord,
    _classify,
    _int_value,
    _is_square,
    _parse_a,
    diff_against,
    error_annotations,
    tablet_data,
    verify_properties,
)
from bench_oracle import oracle

DATA_SHA256 = "f4c7ea3fcaf3544b709f9d399d4a5925fd7f070446c088c4f428a78a120f9c98"


class TestDataResource:
    def test_checksum(self):
        blob = resources.files("plimpton").joinpath(
            "data/plimpton322.txt").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == DATA_SHA256

    def test_round_trip_render_parse(self):
        for row in tablet_data("robson"):
            for cell in (row.a, row.s, row.d):
                assert (parse_sex(render_sex(cell.corrected)).mantissa
                        == cell.corrected.mantissa)

    def test_fifteen_rows_in_order(self):
        for edition in EDITIONS:
            rows = tablet_data(edition)
            assert [r.n for r in rows] == list(range(1, 16))

    def test_unknown_edition_rejected(self):
        with pytest.raises(ValueError):
            tablet_data("neugebauer")

    def test_a_short_transcription_is_a_value_error(self, monkeypatch, capsys):
        # a domain error, never AssertionError: the CLI exits 2 on it
        lines = tablet._read_resource()
        monkeypatch.setattr(tablet, "_read_resource", lambda: lines[1:])
        tablet._parsed_rows.cache_clear()
        try:
            with pytest.raises(ValueError, match="expected 15 rows, parsed 14"):
                tablet_data("robson")
            assert main(["tablet", "verify"]) == 2
            assert "expected 15 rows, parsed 14" in capsys.readouterr().err
        finally:
            monkeypatch.undo()
            tablet._parsed_rows.cache_clear()
        assert len(tablet_data("robson")) == 15


class TestCellsAndFlags:
    def test_row4_has_no_corrections(self):
        row4 = tablet_data("robson")[3]
        for cell in (row4.a, row4.s, row4.d):
            assert cell.as_written is None
            assert not cell.corrected_error

    @pytest.mark.parametrize("edition,expected", [
        ("robson", {(2, "D"), (9, "S"), (13, "S"), (15, "S")}),
        ("joyce", {(2, "D"), (9, "S"), (13, "S"), (15, "D")}),
    ])
    def test_corrected_cells_exactly_as_listed(self, edition, expected):
        got = set()
        for row in tablet_data(edition):
            for name, cell in (("A", row.a), ("S", row.s), ("D", row.d)):
                if cell.corrected_error:
                    got.add((row.n, name))
        assert got == expected

    def test_row15_per_edition(self):
        robson = tablet_data("robson")[14]
        assert render_sex(robson.s.as_written) == "56"
        assert render_sex(robson.s.corrected) == "28"
        assert render_sex(robson.d.corrected) == "53"
        assert robson.d.as_written is None
        joyce = tablet_data("joyce")[14]
        assert render_sex(joyce.s.corrected) == "56"
        assert joyce.s.as_written is None
        assert render_sex(joyce.d.as_written) == "53"
        assert render_sex(joyce.d.corrected) == "1 46"

    def test_shared_scribal_originals(self):
        for edition in EDITIONS:
            rows = tablet_data(edition)
            assert render_sex(rows[1].d.as_written) == "3 12 01"
            assert render_sex(rows[8].s.as_written) == "9 01"
            assert render_sex(rows[12].s.as_written) == "7 12 01"

    def test_a_column_fixed_reading(self):
        rows = tablet_data("robson")
        assert 1 < rows[0].a.corrected.fraction < 2
        assert render_sex(rows[3].a.corrected) == "1 53 10 29 32 52 16"


class TestVerification:
    def test_corrected_profile(self):
        results = verify_properties(tablet_data("robson"))
        by_number = {r.number: r for r in results}
        for n in (1, 2, 4, 5):
            assert by_number[n].holds, n
        assert by_number[3].failures == (11,)

    def test_row4_long_side(self):
        row = tablet_data("robson")[3]
        s, d = (int(cell.corrected.fraction) for cell in (row.s, row.d))
        root = isqrt(d * d - s * s)
        assert root * root == d * d - s * s
        assert SexValue(root) == parse_sex("3 45 00;", "fixed")

    def test_as_written_failures_at_corrected_cells_only(self):
        for edition in EDITIONS:
            corrected_rows = {r.n for r in tablet_data(edition)
                              for c in (r.s, r.d) if c.corrected_error}
            results = verify_properties(tablet_data(edition), use="as_written")
            failing = set()
            for res in results:
                failing |= set(res.failures)
            assert failing - {11} == corrected_rows

    def test_leading_one_variant_also_passes(self):
        # A read without its leading 1 is A - 1 = n/m: A - 1 and A = (n + m)/m
        # are squares, and (A - 1)(D^2 - S^2) = S^2, the same facts as
        # properties 2 and 5
        for edition in EDITIONS:
            for row in tablet_data(edition):
                s, d = (_int_value(cell.corrected) for cell in (row.s, row.d))
                n, m = _ratio(sub(row.a.corrected, SexValue(1)))
                assert _is_square(n * m), (edition, row.n)
                assert _is_square((n + m) * m), (edition, row.n)
                assert n * (d * d - s * s) == m * s * s, (edition, row.n)

    def test_properties_are_one_table(self):
        results = verify_properties(tablet_data("robson"))
        assert [r.number for r in results] == [1, *PROPERTIES] == [1, 2, 3, 4, 5]
        assert [r.description for r in results[1:]] == [
            description for description, _ in PROPERTIES.values()]

    @pytest.mark.parametrize("number,a,s,d", [
        (2, 4, 3, 5),               # 4 - 1 is not a square
        (3, 4, 6, 10),
        (4, 4, 1, 2),               # 2^2 - 1^2 is not a square
        (4, 4, 5, 5),               # nor is it positive
        (5, 2, 3, 5),               # 2 * 16 != 25
    ])
    def test_each_property_rejects_its_counterexample(self, number, a, s, d):
        # the (3, 4, 5) row, A = 25/16 = 1;33 45, passes every test, with A
        # in lowest terms or not: 50 and 32 are no squares, but 50/32 is
        _, test = PROPERTIES[number]
        assert _ratio(parse_sex("1;33 45", "fixed")) == (25, 16)
        assert test((25, 16), 3, 5) and test((50, 32), 3, 5)
        assert not test((a, 1), s, d)

    def test_column_a_must_strictly_decrease(self):
        rows = tablet_data("robson")
        assert verify_properties(rows[::-1])[0].failures == tuple(range(14, 0, -1))
        assert verify_properties([rows[0], rows[0]])[0].failures == (1,)

    @pytest.mark.parametrize("rows", [[], tablet_data("robson")])
    def test_an_unknown_use_is_a_value_error(self, rows):
        # checked before any row is read: with no rows it returned five results
        with pytest.raises(ValueError, match="use must be 'corrected' or 'as_written', not 'bogus'"):
            verify_properties(rows, use="bogus")

    def test_a_cell_refuses_an_unknown_use(self):
        # verify_properties checks use before it reads a cell
        with pytest.raises(ValueError,
                           match="^use must be 'corrected' or 'as_written', not 'both'$"):
            TabletCell(SexValue(3), None).value("both")

    def test_non_integer_side_is_a_domain_error(self):
        row = TabletRowRecord(1, TabletCell(SexValue(3), None),
                              TabletCell(SexValue(90, -1), None), TabletCell(SexValue(5), None))
        with pytest.raises(SexagesimalError, match="1 30 is not an integer"):
            verify_properties([row])

    def test_trailing_zero_places_of_a_are_read_fixed(self):
        cell = _parse_a("(1) 30 00")
        assert cell.corrected == parse_sex("1 30 00", "fixed")
        assert cell.corrected.fraction == Fraction(3, 2)


class TestIsSquare:
    """The one square test, on integers, behind properties 2 and 4: a ratio
    n/m, m > 0, is a square exactly when n*m is."""

    @pytest.mark.parametrize("x,square", [
        (13500**2, True), (1, True), (0, True), (25 * 16, True),  # 25/16
        (2, False),
        (60, False),  # 1 00 is no square in the fixed reading
        (1 * 2, False), (9 * 8, False),  # 1/2, 9/8: square numerator only
        (2 * 9, False), (-1, False), (-1 * 4, False),  # 2/9, -1, -1/4
    ])
    def test_cases(self, x, square):
        assert _is_square(x) is square

    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_rational_squares(self, p, q):
        # (p/q)**2 = p*p / (q*q), and 2 (p/q)**2 is no square
        assert _is_square(p * p * q * q)
        assert not _is_square(-p * p * q * q)
        assert not _is_square(2 * p * p * q * q)


def fraction_properties(rows, use):
    """The properties by their first statement, on Fractions: the oracle of
    verify_properties.  Property number -> the numbers of the failing rows."""
    def square(x):
        return x >= 0 and all(isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))

    rules = {2: lambda a, s, d: square(a) and square(a - 1),
             3: lambda a, s, d: gcd(s, d) == 1,
             4: lambda a, s, d: d * d > s * s and square(d * d - s * s),
             5: lambda a, s, d: a * (d * d - s * s) == d * d}
    read = [(r.n, r.a.value(use).fraction, int(r.s.value(use).fraction),
             int(r.d.value(use).fraction)) for r in rows]
    failures = {1: tuple(n for (n, a, _, _), (_, above, _, _) in zip(read[1:], read)
                         if a >= above)}
    for number, rule in rules.items():
        failures[number] = tuple(n for n, a, s, d in read if not rule(a, s, d))
    return failures


_ROOTS = st.builds(SexValue, st.integers(0, 60**2), st.integers(-2, 1))
# A from a random mantissa and exponent: below 1, 1, above 1; its square;
# or a tablet row's A, which passes property 2
_A = st.one_of(st.builds(SexValue, st.integers(0, 60**4), st.integers(-4, 1)),
               st.just(SexValue(1)), _ROOTS.map(lambda v: mul(v, v)),
               st.sampled_from([r.a.corrected for r in tablet_data()]))
_SIDE = st.integers(0, 10**5)  # S and D, either one the larger, or 0
_ROW = st.one_of(
    st.builds(lambda a, s, d: (TabletCell(a, None), TabletCell(SexValue(s), None),
                               TabletCell(SexValue(d), None)), _A, _SIDE, _SIDE),
    st.sampled_from([(r.a, r.s, r.d) for e in EDITIONS for r in tablet_data(e)]))


class TestIntegerProperties:
    """verify_properties and PROPERTIES on integers against the same
    properties on Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ROW, max_size=6), st.sampled_from(["corrected", "as_written"]))
    def test_matches_the_fraction_oracle(self, cells, use):
        rows = [TabletRowRecord(n, *row) for n, row in enumerate(cells, 1)]
        got = {r.number: r.failures for r in verify_properties(rows, use)}
        assert got == fraction_properties(rows, use)

    @given(_A, _SIDE, _SIDE, st.integers(1, 10**6))
    @example(parse_sex("1;33 45", "fixed"), 3, 5, 2)  # 50/32: 50 and 32 are no squares
    def test_a_in_lowest_terms_or_not(self, a, s, d, k):
        n, m = _ratio(a)
        for number, (_, test) in PROPERTIES.items():
            assert test((k * n, k * m), s, d) == test((n, m), s, d), number


class TestDiff:
    def test_phillips_faithful_is_exact_on_robson(self):
        report = diff_against(generate("phillips", "tablet_faithful"),
                              "robson", "exact")
        assert report.count("exact") == 15

    def test_phillips_full_similarity_on_robson(self):
        report = diff_against(generate("phillips"), "robson", "similarity")
        assert report.count("exact") == 14
        sim = [r for r in report.rows if r.status == "similarity"]
        assert len(sim) == 1
        assert sim[0].n == 11
        assert sim[0].ratio.value == SexValue(15)

    def test_full_exact_marks_row11_mismatch(self):
        report = diff_against(generate("phillips"), "robson", "exact")
        assert report.count("mismatch") == 1
        assert report.rows[10].cells == ("S", "D")

    def test_joyce_row15_adjudication(self):
        report = diff_against(generate("phillips", "tablet_faithful"),
                              "joyce", "exact")
        mismatches = [r for r in report.rows if r.status == "mismatch"]
        assert [r.n for r in mismatches] == [15]
        assert mismatches[0].cells == ("S", "D")

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diff_against(generate("friberg2007"), "robson")

    def test_ns1945_row15_is_similar_by_half(self):
        report = diff_against(generate("ns1945"), "robson", "similarity")
        row15 = report.rows[14]
        assert row15.status == "similarity"
        assert row15.ratio.value.fraction.numerator == 1
        assert row15.ratio.value.fraction.denominator == 2


def _with_row(candidates, at, **fields):
    """The candidates with row ``at`` (0-based) given new field values."""
    c = candidates[at]
    values = [fields.get(name, getattr(c, name)) for name in RowCandidate.__slots__]
    return candidates[:at] + [RowCandidate(*values)] + candidates[at + 1:]


class TestDiffComparesFixedValues:
    """A, S and D are compared in the fixed reading, and a scale of S and D
    is found only under similarity matching."""

    @pytest.mark.parametrize("matching", ["exact", "similarity"])
    def test_a_times_60_is_an_a_mismatch(self, matching):
        rows = generate("phillips", "tablet_faithful")  # exact on robson
        shifted = mul(rows[3].a, SexValue(60))
        assert shifted.mantissa == rows[3].a.mantissa  # floating-equal
        report = diff_against(_with_row(rows, 3, a=shifted), "robson", matching)
        assert report.rows[3] == RowDiff(4, "mismatch", None, ("A",))
        assert report.count("exact") == 14

    @pytest.mark.parametrize("scale,ratio", [(2, SexValue(30, -1)),
                                             (60, SexValue(1, -1))])
    def test_regularly_scaled_s_and_d_are_similar(self, scale, ratio):
        c = generate("phillips", "tablet_faithful")[4]
        rows = _with_row(generate("phillips", "tablet_faithful"), 4,
                         s=c.s * scale, d=c.d * scale)
        assert diff_against(rows, "robson", "exact").rows[4].cells == ("S", "D")
        row = diff_against(rows, "robson", "similarity").rows[4]
        assert (row.status, row.ratio.value) == ("similarity", ratio)

    def test_irregular_scale_is_a_mismatch(self):
        c = generate("phillips", "tablet_faithful")[4]
        rows = _with_row(generate("phillips", "tablet_faithful"), 4,
                         s=c.s * 7, d=c.d * 7)
        row = diff_against(rows, "robson", "similarity").rows[4]
        assert (row.status, row.cells) == ("mismatch", ("S", "D"))

    def test_an_unknown_matching_is_a_value_error(self):
        with pytest.raises(ValueError,
                           match="^matching must be 'exact' or 'similarity', not 'fuzzy'$"):
            diff_against(generate("phillips"), "robson", "fuzzy")

    @pytest.mark.parametrize("matching", ["exact", "similarity"])
    @pytest.mark.parametrize("field", ["s", "d"])
    @pytest.mark.parametrize("bad", [119.0, True, False, -1])
    def test_s_and_d_are_non_negative_ints(self, matching, field, bad):
        # compared as integers, refused where SexValue(S) refused them
        rows = _with_row(generate("phillips"), 4, **{field: bad})
        with pytest.raises(SexagesimalError, match="S and D must be non-negative ints"):
            diff_against(rows, "robson", matching)
        with pytest.raises(SexagesimalError):
            SexValue(bad)


class TestErrorAnnotations:
    def test_robson(self):
        got = [(a.n, a.column, a.as_written, a.corrected, a.kind)
               for a in error_annotations("robson")]
        assert got == [
            (2, "D", "3 12 01", "1 20 25", "unclassified"),
            (9, "S", "9 01", "8 01", "digit_slip"),
            (13, "S", "7 12 01", "2 41", "square_of_correct"),
            (15, "S", "56", "28", "digit_slip"),
        ]

    def test_square_relation_is_numeric(self):
        # 2 41 = 161 and 161**2 = 25921 = 7 12 01
        assert 161 * 161 == 25921
        assert render_sex(SexValue(25921)) == "7 12 01"

    def test_joyce_row15(self):
        by_cell = {(a.n, a.column): a.kind for a in error_annotations("joyce")}
        assert by_cell[(15, "D")] == "unclassified"
        assert (15, "S") not in by_cell


def _mantissa(places):
    return oracle.parse(" ".join(map(str, places)))


@st.composite
def _same_places(draw):
    """Two values of the same place count that differ in 0, 1 or 2 places."""
    corrected = [draw(st.integers(1, 59))] + draw(st.lists(st.integers(0, 59), max_size=7))
    written = list(corrected)
    for i in draw(st.sets(st.integers(0, len(written) - 1), max_size=2)):
        written[i] = draw(st.integers(1 if i == 0 else 0, 59)
                          .filter(lambda d, old=written[i]: d != old))
    return _mantissa(written), _mantissa(corrected)


_TWO_VALUES = st.tuples(st.integers(1, 60**8), st.integers(1, 60**8))
_SQUARE_AND_ROOT = st.integers(1, 60**4).map(lambda c: (c * c, c))


class TestClassify:
    @given(st.one_of(_same_places(), _TWO_VALUES, _SQUARE_AND_ROOT))
    @example((8 * 60 + 2, 8 * 60 + 1))   # a slip in the last place
    @example((9 * 60 + 1, 8 * 60 + 1))   # a slip in the leading place
    @example((9 * 60 + 2, 8 * 60 + 1))   # two places differ
    @example((8 * 60 + 1, 1))            # one place more
    @example((25921, 161))               # 7 12 01 is 2 41 squared
    def test_matches_the_oracle(self, pair):
        written, corrected = SexValue(pair[0]), SexValue(pair[1])
        assert _classify(written, corrected) == oracle.classify_error(
            written.mantissa, corrected.mantissa)
