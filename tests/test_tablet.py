import hashlib
from fractions import Fraction
from importlib import resources

import pytest

from plimpton.hypotheses import generate
from plimpton.rows import RowCandidate
from plimpton.sexagesimal import (
    SexValue,
    SexagesimalError,
    mul,
    parse_sex,
    render_sex,
    sqrt_exact,
    sub,
)
from plimpton.tablet import (
    EDITIONS,
    PROPERTIES,
    RowDiff,
    TabletCell,
    TabletRowRecord,
    _parse_a,
    diff_against,
    error_annotations,
    tablet_data,
    verify_properties,
)

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


class TestCellsAndFlags:
    def test_leading_one_and_break_flags(self):
        rows = tablet_data("robson")
        assert all(r.a.leading_one_implied for r in rows)
        assert [r.n for r in rows if r.a.reconstructed_break] == [1, 2, 3]
        assert [r.n for r in rows if r.label_reconstructed] == [5, 6]

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
        root = sqrt_exact(SexValue(d * d - s * s))
        assert root == parse_sex("3 45 00;", "fixed")

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
        # A read without its leading 1 is A - 1: A - 1 and A are squares,
        # and (A - 1)(D^2 - S^2) = S^2, the same facts as properties 2 and 5
        for edition in EDITIONS:
            for row in tablet_data(edition):
                a = row.a.corrected
                s, d = (int(cell.corrected.fraction) for cell in (row.s, row.d))
                without_one = sub(a, SexValue(1))
                assert sqrt_exact(without_one) is not None, (edition, row.n)
                assert sqrt_exact(a) is not None, (edition, row.n)
                assert without_one.fraction * (d * d - s * s) == s * s, (edition, row.n)

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
        # the (3, 4, 5) row, A = 25/16 = 1;33 45, passes every test
        _, test = PROPERTIES[number]
        assert test(parse_sex("1;33 45", "fixed").fraction, 3, 5)
        assert not test(Fraction(a), s, d)

    def test_column_a_must_strictly_decrease(self):
        rows = tablet_data("robson")
        assert verify_properties(rows[::-1])[0].failures == tuple(range(14, 0, -1))
        assert verify_properties([rows[0], rows[0]])[0].failures == (1,)

    def test_non_integer_side_is_a_domain_error(self):
        row = TabletRowRecord(1, TabletCell(SexValue(3)),
                              TabletCell(SexValue(90, -1)), TabletCell(SexValue(5)))
        with pytest.raises(SexagesimalError, match="1 30 is not an integer"):
            verify_properties([row])

    def test_trailing_zero_places_of_a_are_read_fixed(self):
        cell = _parse_a("(1) 30 00")
        assert cell.corrected == parse_sex("1 30 00", "fixed")
        assert cell.corrected.fraction == Fraction(3, 2)
        assert cell.leading_one_implied


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
    values = {name: getattr(c, name) for name in RowCandidate.__slots__}
    return candidates[:at] + [RowCandidate(**{**values, **fields})] + candidates[at + 1:]


class TestDiffComparesFixedValues:
    """A, S and D are compared in the fixed reading, and a scale of S and D
    is found only under similarity matching."""

    @pytest.mark.parametrize("matching", ["exact", "similarity"])
    def test_a_times_60_is_an_a_mismatch(self, matching):
        rows = generate("phillips", "tablet_faithful")  # exact on robson
        shifted = mul(rows[3].a, SexValue(60))
        assert shifted.mantissa == rows[3].a.mantissa  # floating-equal
        report = diff_against(_with_row(rows, 3, a=shifted), "robson", matching)
        assert report.rows[3] == RowDiff(4, "mismatch", cells=("A",))
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
