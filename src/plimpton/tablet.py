"""The attested tablet: transcription, verification, and diffing.

The numerical content ships as a plain-text resource in the transcription's
own digit format.  Two corrected editions are supported, differing only in
row 15: Joyce keeps S = 56 and corrects D to 1 46; Robson corrects S to 28
and keeps D = 53.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable
from functools import cache
from math import gcd, isqrt

from .pairs import _listed
from .rows import RowCandidate
from .sexagesimal import (
    SexValue,
    SexagesimalError,
    _from_ratio,
    _ratio,
    _Value,
    is_regular,
    parse_sex,
    render_sex,
)

EDITIONS = ("joyce", "robson")
USES = ("corrected", "as_written")
MATCHINGS = ("exact", "similarity")

_COLUMN_SPLIT = re.compile(r"\s{2,}")
_MARKUP = re.compile(r"[\[\]()]")


class TabletCell(_Value):
    """One attested cell: the corrected value, plus the scribal original
    when the editions disagree with it."""

    __slots__ = ("corrected", "as_written")

    @property
    def corrected_error(self) -> bool:
        return (self.as_written is not None
                and self.as_written != self.corrected)

    def value(self, use: str) -> SexValue:
        if use not in USES:
            raise ValueError(f"use must be 'corrected' or 'as_written', not {use!r}")
        return self.corrected if use == "corrected" or self.as_written is None else self.as_written


class TabletRowRecord(_Value):
    __slots__ = ("n", "a", "s", "d")


def _read_resource() -> list[str]:
    path = os.path.join(os.path.dirname(__file__), "data", "plimpton322.txt")
    with open(path, encoding="utf-8") as f:
        return [line for line in f.read().splitlines()
                if line.strip() and not line.lstrip().startswith("#")]


def _cell_digits(text: str) -> str:
    return " ".join(_MARKUP.sub("", text).split())


def _parse_a(text: str) -> TabletCell:
    # fixed reading: the (implied) leading 1 is the units digit
    return TabletCell(parse_sex(_cell_digits(text), "fixed"), None)


# Scribal originals, (row, column) -> written digits, where not as transcribed.
_WRITTEN = {(2, "d"): "3 12 01", (9, "s"): "9 01", (13, "s"): "7 12 01",
            (15, "s"): "56"}
# Each edition's corrections of the transcription: (row, column) -> digits.
_CORRECTED = {"joyce": {(15, "s"): "56", (15, "d"): "1 46"}, "robson": {}}


def tablet_data(edition: str = "robson") -> list[TabletRowRecord]:
    """The 15 attested rows, corrected per the requested edition, with the
    scribal originals attached where they differ."""
    if edition not in EDITIONS:
        raise ValueError(f"edition must be one of {EDITIONS}, not {edition!r}")
    return list(_parsed_rows(edition))


@cache
def _parsed_rows(edition: str) -> tuple[TabletRowRecord, ...]:
    """The transcription parsed for one edition, once per process on first
    use, refused unless it has 15 rows.  The records are frozen;
    :func:`tablet_data` hands each caller its own list of them."""
    rows = []
    for line in _read_resource():
        a_text, s_text, d_text, label = _COLUMN_SPLIT.split(line.strip())
        n = int(_MARKUP.sub("", label).removeprefix("KI."))
        cells = {"a": _parse_a(a_text)}
        for col, text in (("s", s_text), ("d", d_text)):
            digits = _cell_digits(text)
            corrected = parse_sex(_CORRECTED[edition].get((n, col), digits))
            written = parse_sex(_WRITTEN.get((n, col), digits))
            cells[col] = TabletCell(corrected, None if written == corrected else written)
        rows.append(TabletRowRecord(n, cells["a"], cells["s"], cells["d"]))
    if len(rows) != 15:
        raise ValueError(f"expected 15 rows, parsed {len(rows)}")
    return tuple(sorted(rows, key=lambda r: r.n))


# ---------------------------------------------------------------------------
# Property verification

class PropertyResult(_Value):
    __slots__ = ("number", "description", "failures")  # failures: row numbers

    @property
    def holds(self) -> bool:
        return not self.failures


def _int_value(v: SexValue) -> int:
    # canonical: an integer exactly when the exponent is not negative
    if v.exponent < 0:
        raise SexagesimalError(f"{v} is not an integer in the fixed reading")
    return v.mantissa * 60**v.exponent


def _is_square(k: int) -> bool:
    return k >= 0 and isqrt(k) ** 2 == k


# Properties 2-5, number -> (description, test of one row's A, S and D), with
# A = n/m as the integers (n, m), m > 0, and S and D as integers.  n/m is a
# square exactly when n*m = (n/m) * m**2 is, in lowest terms or not.
# Property 1 compares each row's A with the row before, in verify_properties.
PROPERTIES = {
    2: ("A and A-1 are perfect squares",
        lambda a, s, d: _is_square(a[0] * a[1]) and _is_square((a[0] - a[1]) * a[1])),
    3: ("S and D are coprime", lambda a, s, d: gcd(s, d) == 1),
    4: ("D^2 - S^2 is a perfect square",
        lambda a, s, d: d * d > s * s and _is_square(d * d - s * s)),
    5: ("A * (D^2 - S^2) = D^2", lambda a, s, d: a[0] * (d * d - s * s) == a[1] * d * d),
}


def verify_properties(rows: Iterable[TabletRowRecord],
                      use: str = "corrected") -> list[PropertyResult]:
    """The five arithmetic properties of the columns: column A strictly
    decreases down the rows, and every row passes each test of PROPERTIES.
    A failure lists the numbers of the rows that break the property."""
    if use not in USES:  # checked with no rows too
        raise ValueError(f"use must be 'corrected' or 'as_written', not {use!r}")
    read = []  # each row's number, its A as (n, m), and its S and D as integers
    for r in _listed(rows, TabletRowRecord, "verified row"):
        for column, cell in (("A", r.a), ("S", r.s), ("D", r.d)):
            if type(cell) is not TabletCell or type(cell.value(use)) is not SexValue:
                raise SexagesimalError(f"row {r.n} column {column}: not a TabletCell of a SexValue")
        read.append((r.n, _ratio(r.a.value(use)), _int_value(r.s.value(use)),
                     _int_value(r.d.value(use))))
    # a row fails when its A, n/m, is not below the A above, n'/m': n*m' >= n'*m
    decreasing = tuple(n for (n, a, _, _), (_, above, _, _) in zip(read[1:], read)
                       if a[0] * above[1] >= above[0] * a[1])
    return [PropertyResult(1, "column A strictly decreases", decreasing)] + [
        PropertyResult(number, description,
                       tuple(n for n, a, s, d in read if not test(a, s, d)))
        for number, (description, test) in PROPERTIES.items()]


# ---------------------------------------------------------------------------
# Diffing hypothesis output against the tablet

class RowDiff(_Value):
    # status: "exact" | "similarity" | "mismatch"; ratio: a RegularNumber
    __slots__ = ("n", "status", "ratio", "cells")


class DiffReport(_Value):
    __slots__ = ("edition", "matching", "rows")

    def count(self, status: str) -> int:
        return sum(r.status == status for r in self.rows)

    def summary(self) -> str:
        return (f"{self.count('exact')}/{len(self.rows)} exact, "
                f"{self.count('similarity')} similar, "
                f"{self.count('mismatch')} mismatched "
                f"({self.edition} edition, {self.matching} matching)")


def diff_against(candidates: Iterable[RowCandidate], edition: str = "robson",
                 matching: str = "exact") -> DiffReport:
    """Cell-by-cell comparison of generated rows with the corrected tablet.

    Similarity matching also accepts (S, D) equal to the tablet's values up
    to a common regular factor, and reports that factor.
    """
    if matching not in MATCHINGS:
        raise ValueError(f"matching must be 'exact' or 'similarity', not {matching!r}")
    attested = tablet_data(edition)
    candidates = _listed(candidates, RowCandidate, "generated row")
    if len(candidates) != len(attested):
        raise ValueError(
            f"row-count mismatch: {len(candidates)} generated vs {len(attested)} attested")
    diffs = []
    for cand, row in zip(candidates, attested):
        s, d = cand.s, cand.d
        if not (type(s) is type(d) is int and s >= 0 and d >= 0):  # bool too
            raise SexagesimalError(f"S and D must be non-negative ints, not {s!r} and {d!r}")
        # canonical A: field equality is fixed-reading equality
        ts, td = _int_value(row.s.corrected), _int_value(row.d.corrected)
        if cand.a == row.a.corrected and s == ts and d == td:
            diffs.append(RowDiff(row.n, "exact", None, ()))
            continue
        cells = tuple(name for name, got, want in (("A", cand.a, row.a.corrected),
                      ("S", s, ts), ("D", d, td)) if got != want)
        if matching == "similarity" and "A" not in cells:
            if s > 0 and ts * d == td * s:  # ts/s == td/d
                try:
                    scaled = is_regular(_from_ratio(ts, s))
                except SexagesimalError:
                    scaled = None
                if scaled is not None:
                    diffs.append(RowDiff(row.n, "similarity", scaled, ()))
                    continue
        diffs.append(RowDiff(row.n, "mismatch", None, cells))
    return DiffReport(edition, matching, tuple(diffs))


# ---------------------------------------------------------------------------
# Scribal error annotations

class ErrorAnnotation(_Value):
    # kind: "square_of_correct" | "digit_slip" | "unclassified"
    __slots__ = ("n", "column", "as_written", "corrected", "kind")


def _classify(written: SexValue, corrected: SexValue) -> str:
    if written.mantissa == corrected.mantissa ** 2:
        return "square_of_correct"
    wd, cd = render_sex(written).split(), render_sex(corrected).split()
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
