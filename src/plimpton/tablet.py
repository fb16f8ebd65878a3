"""The attested tablet: transcription, verification, and diffing.

The numerical content ships as a plain-text resource in the transcription's
own digit format.  Two corrected editions are supported, differing only in
row 15: Joyce keeps S = 56 and corrects D to 1 46; Robson corrects S to 28
and keeps D = 53.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .rows import RowCandidate
from .sexagesimal import (
    SexValue,
    SexagesimalError,
    _Value,
    add,
    from_fraction,
    is_regular,
    parse_sex,
    render_sex,
    sqrt_exact,
    sub,
)

EDITIONS = ("joyce", "robson")

_COLUMN_SPLIT = re.compile(r"\s{2,}")
_MARKUP = re.compile(r"[\[\]()]")


class TabletCell(_Value):
    """One attested cell: the corrected value, plus the scribal original
    when the editions disagree with it."""

    __slots__ = ("corrected", "as_written", "reconstructed_break",
                 "leading_one_implied")
    _defaults = {"as_written": None, "reconstructed_break": False,
                 "leading_one_implied": False}

    @property
    def corrected_error(self) -> bool:
        return (self.as_written is not None
                and self.as_written != self.corrected)

    def value(self, use: str) -> SexValue:
        if use == "corrected":
            return self.corrected
        if use == "as_written":
            return self.as_written if self.as_written is not None else self.corrected
        raise ValueError(f"use must be 'corrected' or 'as_written', not {use!r}")


class TabletRowRecord(_Value):
    __slots__ = ("n", "a", "s", "d", "label_reconstructed")
    _defaults = {"label_reconstructed": False}


def _read_resource() -> list[str]:
    path = os.path.join(os.path.dirname(__file__), "data", "plimpton322.txt")
    with open(path, encoding="utf-8") as f:
        return [line for line in f.read().splitlines()
                if line.strip() and not line.lstrip().startswith("#")]


def _cell_digits(text: str) -> str:
    return " ".join(_MARKUP.sub("", text).split())


def _parse_a(text: str) -> TabletCell:
    digits = _cell_digits(text)
    v = parse_sex(digits)
    # fixed reading: the (implied) leading 1 is the units digit
    v = SexValue(v.mantissa, -(len(digits.split()) - 1))
    return TabletCell(v, reconstructed_break="[" in text,
                      leading_one_implied="(1)" in text)


def _parse_int_cell(text: str) -> TabletCell:
    return TabletCell(parse_sex(_cell_digits(text)))


# Scribal originals shared by both editions: (row, column) -> written digits.
_AS_WRITTEN_SHARED = {(2, "d"): "3 12 01", (9, "s"): "9 01", (13, "s"): "7 12 01"}
# Row-15 treatment differs by edition: (corrected, written) per column.
_ROW15 = {
    "robson": {"s": ("28", "56"), "d": ("53", "53")},
    "joyce": {"s": ("56", "56"), "d": ("1 46", "53")},
}


def tablet_data(edition: str = "robson") -> list[TabletRowRecord]:
    """The 15 attested rows, corrected per the requested edition, with the
    scribal originals attached where they differ."""
    if edition not in EDITIONS:
        raise ValueError(f"edition must be one of {EDITIONS}, not {edition!r}")
    rows = list(_parsed_rows(edition))
    if len(rows) != 15:
        raise AssertionError(f"expected 15 rows, parsed {len(rows)}")
    return rows


@cache
def _parsed_rows(edition: str) -> tuple[TabletRowRecord, ...]:
    """The transcription parsed for one edition, once per process on first
    use.  The records are frozen; :func:`tablet_data` hands each caller its
    own list of them."""
    rows = []
    for line in _read_resource():
        a_text, s_text, d_text, label = _COLUMN_SPLIT.split(line.strip())
        n = int(_MARKUP.sub("", label).removeprefix("KI."))
        cells = {"a": _parse_a(a_text),
                 "s": _parse_int_cell(s_text),
                 "d": _parse_int_cell(d_text)}
        for col in ("s", "d"):
            if n == 15:
                corrected, written = _ROW15[edition][col]
            elif (n, col) in _AS_WRITTEN_SHARED:
                corrected, written = None, _AS_WRITTEN_SHARED[(n, col)]
            else:
                continue
            cell = cells[col]
            corrected_v = parse_sex(corrected) if corrected else cell.corrected
            written_v = parse_sex(written)
            cells[col] = TabletCell(
                corrected_v,
                as_written=None if written_v == corrected_v else written_v,
                reconstructed_break=cell.reconstructed_break)
        rows.append(TabletRowRecord(n, cells["a"], cells["s"], cells["d"],
                                    label_reconstructed="[" in label))
    return tuple(sorted(rows, key=lambda r: r.n))


# ---------------------------------------------------------------------------
# Property verification

class PropertyResult(_Value):
    __slots__ = ("number", "description", "failures")  # failures: row numbers

    @property
    def holds(self) -> bool:
        return not self.failures


def _int_value(v: SexValue) -> int:
    f = v.fraction
    if f.denominator != 1:
        raise AssertionError(f"{v} is not an integer in the fixed reading")
    return f.numerator


def verify_properties(rows: list[TabletRowRecord], use: str = "corrected",
                      leading_one: bool = True) -> list[PropertyResult]:
    """The five arithmetic properties of the columns, row by row.

    ``leading_one=False`` reads column A without its initial 1 (the value
    becomes A-1): property 2 then asks for a square one less than a square,
    and property 5 becomes A = S**2/(D**2 - S**2).
    """
    a_vals = [r.a.value(use) for r in rows]
    if not leading_one:
        a_vals = [sub(v, SexValue(1)) for v in a_vals]
    s_vals = [_int_value(r.s.value(use)) for r in rows]
    d_vals = [_int_value(r.d.value(use)) for r in rows]

    decreasing = tuple(rows[i].n for i in range(1, len(rows))
                       if a_vals[i].fraction >= a_vals[i - 1].fraction)

    one = SexValue(1)
    squares = []
    for r, a in zip(rows, a_vals):
        companion = sub(a, one) if leading_one else add(a, one)
        if sqrt_exact(a) is None or sqrt_exact(companion) is None:
            squares.append(r.n)

    coprime = tuple(r.n for r, s, d in zip(rows, s_vals, d_vals)
                    if gcd(s, d) != 1)

    square_diff = []
    ratio = []
    for r, a, s, d in zip(rows, a_vals, s_vals, d_vals):
        diff = d * d - s * s
        if diff <= 0 or isqrt(diff) ** 2 != diff:
            square_diff.append(r.n)
        numerator = d * d if leading_one else s * s
        if a.fraction * diff != numerator:
            ratio.append(r.n)

    two = ("A and A-1 are perfect squares" if leading_one
           else "A and A+1 are perfect squares")
    five = ("A * (D^2 - S^2) = D^2" if leading_one
            else "A * (D^2 - S^2) = S^2")
    return [
        PropertyResult(1, "column A strictly decreases", decreasing),
        PropertyResult(2, two, tuple(squares)),
        PropertyResult(3, "S and D are coprime", coprime),
        PropertyResult(4, "D^2 - S^2 is a perfect square", tuple(square_diff)),
        PropertyResult(5, five, tuple(ratio)),
    ]


# ---------------------------------------------------------------------------
# Diffing hypothesis output against the tablet

class RowDiff(_Value):
    # status: "exact" | "similarity" | "mismatch"; ratio: a RegularNumber
    __slots__ = ("n", "status", "ratio", "cells")
    _defaults = {"ratio": None, "cells": ()}


class DiffReport(_Value):
    __slots__ = ("edition", "matching", "rows")

    @property
    def exact_count(self) -> int:
        return sum(r.status == "exact" for r in self.rows)

    @property
    def similarity_count(self) -> int:
        return sum(r.status == "similarity" for r in self.rows)

    @property
    def mismatch_count(self) -> int:
        return sum(r.status == "mismatch" for r in self.rows)

    def summary(self) -> str:
        return (f"{self.exact_count}/{len(self.rows)} exact, "
                f"{self.similarity_count} similar, "
                f"{self.mismatch_count} mismatched "
                f"({self.edition} edition, {self.matching} matching)")


def diff_against(candidates: list[RowCandidate], edition: str = "robson",
                 matching: str = "exact") -> DiffReport:
    """Cell-by-cell comparison of generated rows with the corrected tablet.

    Similarity matching also accepts (S, D) equal to the tablet's values up
    to a common regular factor, and reports that factor.
    """
    if matching not in ("exact", "similarity"):
        raise ValueError(f"matching must be 'exact' or 'similarity', not {matching!r}")
    attested = tablet_data(edition)
    if len(candidates) != len(attested):
        raise ValueError(
            f"row-count mismatch: {len(candidates)} generated vs {len(attested)} attested")
    diffs = []
    for cand, row in zip(candidates, attested):
        cells = []
        if cand.a.fraction != row.a.corrected.fraction:
            cells.append("A")
        ts = _int_value(row.s.corrected)
        td = _int_value(row.d.corrected)
        if cand.s != ts:
            cells.append("S")
        if cand.d != td:
            cells.append("D")
        if not cells:
            diffs.append(RowDiff(row.n, "exact"))
            continue
        if matching == "similarity" and "A" not in cells:
            ratio = Fraction(ts, cand.s)
            if ratio == Fraction(td, cand.d):
                try:
                    scaled = is_regular(from_fraction(ratio))
                except SexagesimalError:
                    scaled = None
                if scaled is not None:
                    diffs.append(RowDiff(row.n, "similarity", ratio=scaled))
                    continue
        diffs.append(RowDiff(row.n, "mismatch", cells=tuple(cells)))
    return DiffReport(edition, matching, tuple(diffs))


# ---------------------------------------------------------------------------
# Scribal error annotations

class ErrorAnnotation(_Value):
    # kind: "square_of_correct" | "digit_slip" | "unclassified"
    __slots__ = ("n", "column", "as_written", "corrected", "kind")


def _classify(written: SexValue, corrected: SexValue) -> str:
    if written.mantissa == corrected.mantissa ** 2:
        return "square_of_correct"
    wd, cd = written.digits(), corrected.digits()
    if len(wd) == len(cd) and sum(a != b for a, b in zip(wd, cd)) == 1:
        return "digit_slip"
    return "unclassified"


def error_annotations(edition: str = "robson") -> list[ErrorAnnotation]:
    """Every cell the edition corrects, with a detected error mechanism
    where one is recognizable."""
    out = []
    for row in tablet_data(edition):
        for column, cell in (("A", row.a), ("S", row.s), ("D", row.d)):
            if cell.corrected_error:
                out.append(ErrorAnnotation(
                    row.n, column,
                    render_sex(cell.as_written),
                    render_sex(cell.corrected),
                    _classify(cell.as_written, cell.corrected)))
    return out
