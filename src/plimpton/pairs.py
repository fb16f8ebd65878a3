"""Enumeration of regular numbers and reciprocal pairs.

The central selection rule: a reciprocal pair belongs to the table when both
members, padded with trailing zeros to four sexagesimal places, are divisible
by 10.  The older four-place and exponent-based exclusion rules are kept as
alternative criteria so the competing selections can be compared.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import ceil, floor

from .sexagesimal import (
    RegularNumber,
    SexValue,
    SexagesimalError,
    _set,
    _Value,
    parse_sex,
    place_length,
    reciprocal,
    regular_from_int,
    render_sex,
)


class ReciprocalPair(_Value):
    """Ordered (T, Tbar) with exact fixed product 1.

    T carries its units place at the first digit; Tbar is read one
    sexagesimal place further right, so T_fixed * Tbar_fixed == 1 exactly.
    """

    __slots__ = ("T", "Tbar")

    def __init__(self, T: RegularNumber, Tbar: RegularNumber) -> None:
        _set(self, "T", T)
        _set(self, "Tbar", Tbar)

    @classmethod
    def from_T_mantissa(cls, mantissa: int) -> "ReciprocalPair":
        """The pair whose T has this mantissa, factors of 60 stripped."""
        return cls.from_triple(regular_from_int(mantissa).triple)

    @classmethod
    def from_triple(cls, triple: tuple[int, int, int]) -> "ReciprocalPair":
        """The pair whose T is 2**a 3**b 5**c up to powers of 60, for any
        integer triple (a, b, c).

        Removing (2, 1, 1) n times, n = min(a//2, b, c) (adding it when n is
        negative), gives T's canonical mantissa.  T's units place moves to its first digit; Tbar's triple
        comes from :func:`reciprocal`.  Mantissas multiply to 60**k with k
        the sum of the two 5-exponents, so Tbar's units place is set to make
        the fixed product exactly 1.
        """
        a, b, c = triple
        n = min(a // 2, b, c)
        a, b, c = a - 2 * n, b - n, c - n
        mantissa, places = 2**a * 3**b * 5**c, 1
        while 60**places <= mantissa:
            places += 1
        t = RegularNumber(SexValue(mantissa, 1 - places), a, b, c)
        tbar = reciprocal(t)
        return cls(t, RegularNumber(
            SexValue(tbar.mantissa, places - 1 - (t.gamma + tbar.gamma)),
            *tbar.triple))

    @property
    def t_fraction(self) -> Fraction:
        return self.T.value.fraction

    def __str__(self) -> str:
        return f"({render_sex(self.T.value)}, {render_sex(self.Tbar.value)})"


def plimpton_range() -> tuple[SexValue, SexValue]:
    """The fixed-reading T range covering the fifteen tablet rows."""
    return parse_sex("1;48", "fixed"), parse_sex("2;24", "fixed")


def mult10_criterion(r: RegularNumber) -> bool:
    """At most four places, and a four-place value ends in a multiple of 10.

    Equivalently: the mantissa padded with trailing zero digits to exactly
    four places is divisible by 10 (see :func:`padded_multiple_of_10`).
    """
    digits = r.value.digits()
    if len(digits) > 4:
        return False
    return len(digits) < 4 or digits[-1] % 10 == 0


def padded_multiple_of_10(r: RegularNumber) -> bool:
    """Arithmetic form of the rule; defined only for values of <= 4 places."""
    places = place_length(r.value)
    if places > 4:
        raise SexagesimalError("padded four-place reading needs <= 4 places")
    return (r.mantissa * 60 ** (4 - places)) % 10 == 0


def bruins_excluded(p: ReciprocalPair) -> bool:
    """Exclusion by exponent counts: one member has alpha+beta+gamma > 13
    while the other has gamma > 3.

    This conjunctive reading reproduces exactly six exclusions in the
    tablet range.
    """
    return any(sum(a.triple) > 13 and b.gamma > 3
               for a, b in ((p.T, p.Tbar), (p.Tbar, p.T)))


def _regular_triples(max_places: int):
    """(mantissa, exponent triple) of every canonical regular mantissa of at
    most max_places digits, unordered; sweep bounds derive from 60**max_places."""
    if max_places < 1:
        raise ValueError("max_places must be >= 1")
    limit = 60**max_places
    p2, a = 1, 0
    while p2 < limit:
        p23, b = p2, 0
        while p23 < limit:
            p235, c = p23, 0
            while p235 < limit:
                if p235 % 60:
                    yield p235, (a, b, c)
                p235, c = p235 * 5, c + 1
            p23, b = p23 * 3, b + 1
        p2, a = p2 * 2, a + 1


@cache
def _four_place_table() -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Every canonical regular mantissa of at most four places, ascending,
    and its exponent triples in the same order; built once per process on
    first use."""
    mantissas, triples = zip(*sorted(_regular_triples(4)))
    return mantissas, triples


def _regular_triple(n: int) -> tuple[int, int, int]:
    """The exponent triple of the regular integer n, looked up in the
    four-place table when n is there, else by factorization."""
    mantissas, triples = _four_place_table()
    i = bisect_left(mantissas, n)
    if i < len(mantissas) and mantissas[i] == n:
        return triples[i]
    return regular_from_int(n).triple


def regular_mantissas(max_places: int) -> list[int]:
    """All canonical regular mantissas of at most max_places digits, ascending."""
    return sorted(m for m, _ in _regular_triples(max_places))


def _four_place_pairs(kind: str, lo: int, hi: int) -> list[ReciprocalPair]:
    """The pairs of regular T of at most four places with lo <= padded T
    <= hi that pass criterion ``kind``, by decreasing T.

    Padded T, the mantissa padded with zero places to four digits, is T's
    fixed value times 60**3.  T's range and, under mult10, T's own rule
    (padded T divisible by 10) are tested on it before any pair is built;
    the survivors' pairs come from the enumerated triples, then Tbar's test.
    """
    found = []
    for padded, triple in zip(*_four_place_table()):
        while padded < 60**3:
            padded *= 60
        if lo <= padded <= hi and (kind != "mult10" or padded % 10 == 0):
            found.append((padded, triple))
    found.sort(reverse=True)
    pairs = (ReciprocalPair.from_triple(triple) for _, triple in found)
    return [pair for pair in pairs if _tbar_passes(kind, pair)]


def _tbar_passes(kind: str, pair: ReciprocalPair) -> bool:
    if kind == "mult10":
        return mult10_criterion(pair.Tbar)
    # Tbar has at most four places too; bruins drops the exponent-rule ones
    return place_length(pair.Tbar.value) <= 4 and (
        kind == "places_only" or not bruins_excluded(pair))


def enumerate_pairs(kind: str, lower: SexValue,
                    upper: SexValue) -> list[ReciprocalPair]:
    """All four-place pairs whose T lies in [lower, upper] (fixed reading,
    both ends inclusive) and that pass criterion ``kind``, one of "mult10",
    "bruins" and "places_only", by decreasing T."""
    if kind not in ("mult10", "bruins", "places_only"):
        raise ValueError(f"unknown criterion kind {kind!r}")
    if lower.fraction > upper.fraction:
        raise ValueError("empty range: lower bound exceeds upper bound")
    return _four_place_pairs(kind, ceil(lower.fraction * 60**3),
                             floor(upper.fraction * 60**3))


def full_mult10_list() -> list[ReciprocalPair]:
    """Every pair with both members passing the multiple-of-10 rule, over
    the whole floating range, by decreasing T.

    Both orientations of each pair appear (T and Tbar trade places); the
    degenerate self-reciprocal 1 is left out since it generates no triple.
    """
    return _four_place_pairs("mult10", 60**3 + 1, 60**4 - 1)


class Correction(_Value):
    """A printed source value that disagrees with the computed one."""

    __slots__ = ("table", "label", "column", "printed", "computed")

    def __str__(self) -> str:
        return (f"[{self.table}] row {self.label} {self.column}: "
                f"printed {self.printed!r}, computed {self.computed}")


def pair_corrections(table: str, printed: list[tuple],
                     pairs: list[ReciprocalPair]) -> list[Correction]:
    """Digit log of printed rows (label, T, Tbar, ...) against the pairs.

    A printed member matches when its digits, trailing zero places dropped,
    are the computed mantissa's digits (which never end in a zero place).
    Printed digits are read as written, so a misprinted 64 compares too.
    """
    out = []
    for (label, *texts), pair in zip(printed, pairs):
        for column, text, member in zip(("T", "Tbar"), texts, (pair.T, pair.Tbar)):
            digits = [int(d) for d in text.split()]
            while digits[-1] == 0:
                digits.pop()
            if digits != member.value.digits():
                out.append(Correction(table, label, column, text,
                                      render_sex(member.value)))
    return out
