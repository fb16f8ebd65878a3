"""Reciprocal pairs and the rules that select them.

The central selection rule: a reciprocal pair belongs to the table when both
members, padded with trailing zeros to four sexagesimal places, are divisible
by 10.  The plain four-place table and Bruins's exponent-based exclusion are
the alternative rules; all three, the entries of one table ``CRITERIA``, test
one entry (t, tbar, p, q, pair) of the four-place index, one list by padded
T.  Every table of pairs is one selection record of :func:`_four_place_pairs`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache

from .sexagesimal import (
    RegularNumber,
    SexagesimalError,
    SexValue,
    _canonical,
    _complement,
    _exceeds,
    _product,
    _ratio,
    _Value,
    regular_from_int,
    render_sex,
)


class ReciprocalPair(_Value):
    """Ordered (T, Tbar) with exact fixed product 1, refused otherwise.

    From :meth:`from_triple` and the four-place index, T carries its units
    place at its first digit, and Tbar's units place makes the product 1.
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
        negative), gives T's canonical triple; :func:`_pair` builds both
        members from it and T's place count.
        """
        if type(triple) is not tuple or tuple(map(type, triple)) != (int, int, int):
            raise SexagesimalError("an exponent triple must be a tuple of three ints")
        a, b, c = triple
        n = min(a // 2, b, c)
        a, b, c = a - 2 * n, b - n, c - n
        return _pair((a, b, c), _place_count(_product(a, b, c)))

    def __str__(self) -> str:
        return f"({render_sex(self.T.value)}, {render_sex(self.Tbar.value)})"


def _place_count(mantissa: int) -> int:
    """The base-60 places of mantissa > 0."""
    # log2(60) < 5.906890596: a lower bound, a step or two short at most
    places = (mantissa.bit_length() - 1) * 10**9 // 5_906_890_596 + 1
    power = 60**places
    while power <= mantissa:
        power, places = power * 60, places + 1
    return places


def _pair(triple: tuple[int, int, int], places: int) -> ReciprocalPair:
    """The pair whose T has this canonical triple and place count, units at
    its first digit; Tbar, from :func:`_complement`'s triple, has mantissas'
    product 60**k, so its units place is places - 1 - k."""
    k, bar = _complement(*triple)
    return ReciprocalPair(RegularNumber(_canonical(_product(*triple), 1 - places), *triple),
                          RegularNumber(_canonical(_product(*bar), places - 1 - k), *bar))


# The tablet's T range, 1;48 <= T <= 2;24, as T * 60**3.
PLIMPTON_PADDED = (388800, 518400)


# The selection rules, by the CLI's names: the keep tests of a selection
# record (see _four_place_pairs), each a test of one index entry's fields.  A
# member of more than four places is in no table of pairs.  places4 is the
# plain four-place table; bruins excludes a pair where either member has
# alpha+beta+gamma > 13 while the other has gamma > 3.
CRITERIA = {
    "mult10": lambda t, tbar, p, q, pair: t % 10 == 0 and tbar % 10 == 0,
    "places4": lambda t, tbar, p, q, pair: True,
    "bruins": lambda t, tbar, p, q, pair: not (pair.Tbar.gamma > 3 and sum(pair.T.triple) > 13
                                               or pair.T.gamma > 3 and sum(pair.Tbar.triple) > 13),
}


def _named(records: dict, name, what: str):
    """``records[name]``; an unknown or unhashable name is a ValueError naming it."""
    try:
        return records[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what} {name!r}") from None


def _listed(items, kind: type, what: str) -> list:
    """``items`` read once into a list; refused unless iterable with every item a ``kind``."""
    try:
        iterator = iter(items)
    except TypeError:
        raise SexagesimalError(f"{what}s must be iterable, not {type(items).__name__}") from None
    listed = list(iterator)  # a TypeError raised while iterating is not caught
    for item in listed:
        if type(item) is not kind:
            raise SexagesimalError(f"a {what} must be a {kind.__name__}, not {type(item).__name__}")
    return listed


@cache
def _four_place_index() -> list[tuple]:
    """Every four-place pair once, as the entry (t, tbar, p, q, pair) in one
    list by ascending padded T: T and Tbar padded to four places, T = P/Q in
    lowest terms (:func:`_ratio`) and the pair, whose members hold their
    exponent triples.  The pairs are built from the canonical triples of T
    below 60**4 whose complement is below 60**4 too, by :func:`_pair` as in
    :meth:`ReciprocalPair.from_triple`.  Built once per process on first use;
    callers share the pairs."""
    index = []
    for a in range(24):  # 2**23 < 60**4 < 2**24
        for b in range(15):  # 3**14 < 60**4 < 3**15
            m = _product(a, b, 0)
            for c in range(11):  # 5**10 < 60**4 < 5**11
                if m >= 60**4:
                    break
                if m % 60 and (m_bar := _product(*_complement(a, b, c)[1])) < 60**4:
                    places = _place_count(m)
                    pair = _pair((a, b, c), places)
                    index.append((m * 60 ** (4 - places), m_bar * 60 ** (4 - _place_count(m_bar)),
                                  *_ratio(pair.T.value), pair))
                m *= 5
    index.sort(key=lambda entry: entry[0])
    return index


def _four_place_pairs(lo: int, hi: int, keep) -> list[ReciprocalPair]:
    """The pairs of the selection record (lo, hi, keep), by decreasing T: the
    shared four-place pairs with lo <= padded T <= hi whose index entry passes
    keep(t, tbar, p, q, pair).  A member's padded value is its mantissa padded
    with zero places to four digits (T * 60**3, units at T's first digit).
    Every table of pairs is such a record: a criterion over a range, a theory,
    a printed table.  Only the range's entries are visited, cut by bisecting
    the entries: (lo,) sorts just before one at lo, (hi + 1,) just after one at hi."""
    index = _four_place_index()
    return [pair for t, tbar, p, q, pair in
            reversed(index[bisect_left(index, (lo,)):bisect_left(index, (hi + 1,))])
            if keep(t, tbar, p, q, pair)]


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
    criterion = _named(CRITERIA, kind, "criterion kind")
    if not (type(lower) is type(upper) is SexValue):
        raise SexagesimalError(f"the bounds must be SexValues, not "
                               f"{type(lower).__name__} and {type(upper).__name__}")
    if _exceeds(lower, upper):
        raise ValueError("empty range: lower bound exceeds upper bound")
    return _four_place_pairs(_padded(lower, True), _padded(upper, False), criterion)
