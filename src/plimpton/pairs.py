"""Reciprocal pairs and the rules that select them.

The central selection rule: a reciprocal pair belongs to the table when both
members, padded with trailing zeros to four sexagesimal places, are divisible
by 10.  The plain four-place table and Bruins's exponent-based exclusion are
the alternative rules; all three are tests of both members, the entries of
one table, ``CRITERIA``.  Every table of pairs is a record (lo, hi, keep):
the pairs of padded T in [lo, hi] that pass keep, selected from the one set
of four-place pairs, built once per process.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache

from .sexagesimal import (
    RegularNumber,
    SexagesimalError,
    SexValue,
    _exceeds,
    _places,
    _Value,
    reciprocal,
    regular_from_int,
    render_sex,
)


class ReciprocalPair(_Value):
    """Ordered (T, Tbar) with exact fixed product 1, refused otherwise.

    From :meth:`from_triple`, T carries its units place at the first digit
    and Tbar is read one sexagesimal place further right.
    """

    __slots__ = ("T", "Tbar")

    def __init__(self, T: RegularNumber, Tbar: RegularNumber) -> None:
        if not (type(T) is type(Tbar) is RegularNumber):
            raise SexagesimalError("both members of a pair must be RegularNumbers")
        t, tbar = T.value, Tbar.value
        # T * Tbar = product / 60**k, and 60**k > 2**k > product past product's bit length
        product, k = t.mantissa * tbar.mantissa, -(t.exponent + tbar.exponent)
        if not (0 <= k <= product.bit_length() and product == 60**k):
            raise SexagesimalError("(T, T̄) is not a reciprocal pair")
        set_T, set_Tbar = self._setters
        set_T(self, T)
        set_Tbar(self, Tbar)

    @classmethod
    def from_T_mantissa(cls, mantissa: int) -> "ReciprocalPair":
        """The pair whose T has this mantissa, factors of 60 stripped."""
        return cls.from_triple(regular_from_int(mantissa).triple)

    @classmethod
    def from_triple(cls, triple: tuple[int, int, int]) -> "ReciprocalPair":
        """The pair whose T is 2**a 3**b 5**c up to powers of 60, for any
        integer triple (a, b, c).

        Removing (2, 1, 1) n times, n = min(a//2, b, c) (adding it when n is
        negative), gives T's canonical mantissa.  T's units place moves to
        its first digit; Tbar's triple comes from :func:`reciprocal`.
        Mantissas multiply to 60**k with k the sum of the two 5-exponents, so
        Tbar's units place is set to make the fixed product exactly 1.
        """
        if type(triple) is not tuple or tuple(map(type, triple)) != (int, int, int):
            raise SexagesimalError("an exponent triple must be a tuple of three ints")
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

    def __str__(self) -> str:
        return f"({render_sex(self.T.value)}, {render_sex(self.Tbar.value)})"


# The tablet's T range, 1;48 <= T <= 2;24, as T * 60**3.
PLIMPTON_PADDED = (388800, 518400)


# The selection rules, by the CLI's names.  Each tests a pair (T, Tbar),
# both members given as (padded, triple): the mantissa padded with zero
# places to four digits, and the exponent triple.  A member of more than
# four places is in no table of pairs.  places4 is the plain four-place
# table; bruins excludes a pair where either member has
# alpha+beta+gamma > 13 while the other has gamma > 3.
CRITERIA = {
    "mult10": lambda t, tbar: t[0] % 10 == 0 and tbar[0] % 10 == 0,
    "places4": lambda t, tbar: True,
    "bruins": lambda t, tbar: not (sum(t[1]) > 13 and tbar[1][2] > 3
                                   or sum(tbar[1]) > 13 and t[1][2] > 3),
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


@cache
def _four_place_index() -> tuple[list[int], list[tuple]]:
    """Every four-place pair once, as (T, Tbar, pair) by ascending padded T,
    with the padded values apart for bisection.  Tbar's mantissa, 60**k over
    T's as in :func:`reciprocal`, is looked up in the four-place table; a T
    whose Tbar has more places has no entry.  The pair is T = padded / 60**3
    and Tbar = 1/T one place further right, padded / 60**4 (/ 60**3 at
    T = 1).  Built once per process on first use; callers share the pairs."""
    members = _four_place_members()
    index = []
    for m, t in sorted(members.items(), key=lambda item: item[1]):  # by padded T
        if tbar := members.get(60 ** _places(*t[1]) // m):
            index.append((t, tbar, ReciprocalPair(
                RegularNumber(SexValue(t[0], -3), *t[1]),
                RegularNumber(SexValue(tbar[0], -3 if t[0] == 60**3 else -4), *tbar[1]))))
    return [t[0] for t, _, _ in index], index


def _four_place_pairs(lo: int, hi: int, keep) -> list[ReciprocalPair]:
    """The shared pairs of regular T of at most four places with lo <= padded
    T <= hi and keep(T, Tbar) true, each member given as (padded, triple), by
    decreasing T.  Only that range's entries are visited."""
    padded, index = _four_place_index()
    return [pair for t, tbar, pair in
            reversed(index[bisect_left(padded, lo):bisect_right(padded, hi)])
            if keep(t, tbar)]


def _padded(v: SexValue, up: bool) -> int:
    """v * 60**3 rounded up or down, clamped to [0, 60**4] by its exponent
    (every padded T lies in [60**3, 60**4)) to bound the powers of 60."""
    m, k = v.mantissa, v.exponent + 3
    if k >= 0:
        return min(m * 60 ** min(k, 4), 60**4)
    q = 60 ** min(-k, m.bit_length())  # past m.bit_length(), q > m either way
    return -(-m // q) if up else m // q


def enumerate_pairs(kind: str, lower: SexValue,
                    upper: SexValue) -> list[ReciprocalPair]:
    """All four-place pairs whose T lies in [lower, upper] (fixed reading,
    both ends inclusive) and that pass criterion ``kind``, a key of
    :data:`CRITERIA`, by decreasing T."""
    if kind not in CRITERIA:
        raise ValueError(f"unknown criterion kind {kind!r}")
    if not (type(lower) is type(upper) is SexValue):
        raise SexagesimalError(f"the bounds must be SexValues, not "
                               f"{type(lower).__name__} and {type(upper).__name__}")
    if _exceeds(lower, upper):
        raise ValueError("empty range: lower bound exceeds upper bound")
    return _four_place_pairs(_padded(lower, True), _padded(upper, False),
                             CRITERIA[kind])
