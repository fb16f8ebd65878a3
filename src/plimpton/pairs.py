"""Reciprocal pairs and the rules that select them.

The central selection rule: a reciprocal pair belongs to the table when both
members, padded with trailing zeros to four sexagesimal places, are divisible
by 10.  The plain four-place table and Bruins's exponent-based exclusion are
the alternative rules; all three are entries of one table, ``CRITERIA``,
tested on the members of the one enumeration of four-place regular
mantissas before any pair is built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from math import ceil, floor

from .sexagesimal import (
    RegularNumber,
    SexValue,
    _places,
    _set,
    _Value,
    parse_sex,
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
        mantissa = 2**a * 3**b * 5**c
        # log2(60) < 5.906890596: a lower bound, a step or two short at most
        places = (mantissa.bit_length() - 1) * 10**9 // 5_906_890_596 + 1
        power = 60**places
        while power <= mantissa:
            power, places = power * 60, places + 1
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


# The selection rules, by the CLI's names.  Each tests one member of a pair
# against the other, both given as (padded, triple): the mantissa padded
# with zero places to four digits, and the exponent triple.  A pair passes
# when both members pass; a member of more than four places fails it.
# places4 is the plain four-place table; bruins excludes a member with
# alpha+beta+gamma > 13 whose other member has gamma > 3.
CRITERIA = {
    "mult10": lambda member, other: member[0] % 10 == 0,
    "places4": lambda member, other: True,
    "bruins": lambda member, other: not (sum(member[1]) > 13 and other[1][2] > 3),
}


@cache
def _four_place_members() -> dict[int, tuple[int, tuple[int, int, int]]]:
    """Every canonical regular mantissa of at most four places, ascending,
    mapped to (padded, triple): padded is a T's fixed value times 60**3,
    triple its exponents.  Built once per process on first use; every
    caller shares the dict, so none may change it."""
    found = []
    p2, a = 1, 0
    while p2 < 60**4:
        p23, b = p2, 0
        while p23 < 60**4:
            p235, c = p23, 0
            while p235 < 60**4:
                if p235 % 60:
                    padded = p235
                    while padded < 60**3:
                        padded *= 60
                    found.append((p235, (padded, (a, b, c))))
                p235, c = p235 * 5, c + 1
            p23, b = p23 * 3, b + 1
        p2, a = p2 * 2, a + 1
    return dict(sorted(found))


def _both_ways(kind: str):
    """Criterion ``kind`` as a test of (T, Tbar): both members pass it."""
    rule = CRITERIA[kind]
    return lambda t, tbar: rule(t, tbar) and rule(tbar, t)


@cache
def _four_place_index() -> tuple[list[int], list[tuple]]:
    """The four-place members as (T, Tbar) by ascending padded T, with the
    padded values apart for bisection.  Tbar's mantissa, 60**k over T's as
    in :func:`reciprocal`, is looked up once in the four-place table
    (absent: more than four places, and Tbar is None)."""
    members = _four_place_members()
    # padded values are distinct, so sorting compares no two Tbar
    index = sorted((t, members.get(60 ** _places(*t[1]) // m))
                   for m, t in members.items())
    return [t[0] for t, _ in index], index


def _four_place_pairs(lo: int, hi: int, keep) -> list[ReciprocalPair]:
    """The pairs of regular T of at most four places with lo <= padded T
    <= hi and keep(T, Tbar) true, both members given as (padded, triple),
    by decreasing T.  Only the index entries of that range are visited,
    and both tests come before any pair is built."""
    padded, index = _four_place_index()
    found = []
    for i in range(bisect_right(padded, hi) - 1, bisect_left(padded, lo) - 1, -1):
        t, tbar = index[i]
        if tbar and keep(t, tbar):
            found.append(ReciprocalPair.from_triple(t[1]))
    return found


def enumerate_pairs(kind: str, lower: SexValue,
                    upper: SexValue) -> list[ReciprocalPair]:
    """All four-place pairs whose T lies in [lower, upper] (fixed reading,
    both ends inclusive) and that pass criterion ``kind``, a key of
    :data:`CRITERIA`, by decreasing T."""
    if kind not in CRITERIA:
        raise ValueError(f"unknown criterion kind {kind!r}")
    if lower.fraction > upper.fraction:
        raise ValueError("empty range: lower bound exceeds upper bound")
    return _four_place_pairs(ceil(lower.fraction * 60**3),
                             floor(upper.fraction * 60**3), _both_ways(kind))


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
            computed = render_sex(member.value)
            if digits != [int(d) for d in computed.split()]:
                out.append(Correction(table, label, column, text, computed))
    return out
