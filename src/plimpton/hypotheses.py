"""The published generation theories as row-set generators.

Each hypothesis produces an ordered list of row candidates from reciprocal
pairs, chosen either by a criterion on both members or by a test of T read
as P/Q in lowest terms.  Also here: the printed tables of pairs (the
fifteen, the excluded six and the extensions above and below them) with the
computed pairs each is checked against and the log of their misprints, and
the minimal chain linking any regular pair to the standard reciprocal table
(:func:`link_to_standard`).  Theories and printed tables are data: a row
rule or printed rows, then a selection record of ``pairs._four_place_pairs``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from functools import cache, partial
from math import gcd

from .pairs import (
    CRITERIA,
    PLIMPTON_PADDED,
    ReciprocalPair,
    _four_place_index,
    _four_place_pairs,
)
from .rows import RowCandidate, _candidate, build_row
from .sexagesimal import (
    RegularNumber,
    SexagesimalError,
    _product,
    _ratio,
    _ratio_text,
    _Value,
    parse_sex,
    render_sex,
)

# (P, Q) generators for the fifteen rows, as first published.
TABLE1_PQ = [
    (12, 5), (64, 27), (75, 32), (125, 54), (9, 4),
    (20, 9), (54, 25), (32, 15), (25, 12), (81, 40),
    (2, 1), (48, 25), (15, 8), (50, 27), (9, 5),
]
_TABLE1_PQ_SET = frozenset(TABLE1_PQ)  # ns1945's row test: one lookup per index entry


def _pq_keep(least_q: int, q_limit: int, p_limit: int | None, test, t, tbar, p, q, pair) -> bool:
    """A (P, Q) theory's row as a test of an index entry, T = P/Q in lowest terms in (1, 3]:
    least Q <= Q < Q limit, P < P limit (None: no limit) and test(P, Q)."""
    return least_q <= q < q_limit and (p_limit is None or p < p_limit) and test(p, q)


def _pq(*args):
    """A (P, Q) theory's record: T in (1, 3], as every surveyed bound on P/Q
    is below 3, and its row test, whose ``.args`` are the published ones."""
    return 60**3 + 1, 3 * 60**3, partial(_pq_keep, *args)


def _table1_row(pair: ReciprocalPair, n: int, reduction: str) -> RowCandidate:
    """Table 1's row, whatever the reduction: S = P**2 - Q**2 and D = P**2 +
    Q**2 for T = P/Q in lowest terms, with X, Y and A as build_row derives
    them.  The row counts as reduced when S and D are coprime: when P and Q
    are not both odd."""
    row = build_row(pair, n, reduction)
    p, q = _ratio(pair.T.value)
    s, d = p * p - q * q, p * p + q * q
    return _candidate(n, pair, row.x, row.y, s, d, row.a, 1, gcd(s, d) == 1)


# Every theory, in survey order, as its row rule (pair, n, reduction) ->
# RowCandidate, then its selection record (see pairs._four_place_pairs):
# either a pairs.CRITERIA test over the tablet's T range, or a (P, Q) row
# test (see _pq).  ns1945's test is membership in TABLE1_PQ; its rows keep
# the formulas' raw S and D (see _table1_row).
# Each published bound on P/Q is an exact integer inequality in P > Q >= 1:
# P/Q > sqrt(3) iff P**2 > 3 Q**2, P/Q < 1 + sqrt(2) iff (P - Q)**2 < 2 Q**2.
# Friberg 1981 bounds Q/P by 5/9 and sqrt(2) - 1, the same as P/Q >= 9/5
# and P/Q < 1 + sqrt(2).  Price's text misprints his upper bound 12/5 as
# 2;25, which admits no further regular ratio (tests/test_hypotheses.py).
THEORIES = {
    "ns1945": (_table1_row, *_pq(1, 60, None, lambda p, q: (p, q) in _TABLE1_PQ_SET)),
    "bruins1949": (build_row, *PLIMPTON_PADDED, CRITERIA["bruins"]),
    "price1964": (build_row, *_pq(2, 60, None, lambda p, q: 9 * p > 16 * q and 5 * p <= 12 * q)),
    "buck1980": (build_row, *_pq(1, 100, 100,
                                 lambda p, q: p * p > 3 * q * q and (p - q) ** 2 < 2 * q * q)),
    "friberg1981": (build_row, *_pq(1, 60, None,
                                    lambda p, q: 5 * p >= 9 * q and (p - q) ** 2 < 2 * q * q)),
    "friberg2007": (build_row, *_pq(1, 60, None, lambda p, q: 12 * p < 29 * q)),
    "phillips": (build_row, *PLIMPTON_PADDED, CRITERIA["mult10"]),
}


def generate(tag: str, reduction: str = "full") -> list[RowCandidate]:
    """Row candidates under one hypothesis, ordered by decreasing T."""
    try:
        row, *record = THEORIES[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown hypothesis {tag!r}") from None
    return [row(p, n, reduction) for n, p in enumerate(_four_place_pairs(*record), 1)]


# ---------------------------------------------------------------------------
# Printed tables of pairs

# The fifteen reciprocal pairs with their links to the standard table, as
# printed.  Row 12's T is misprinted ("1 55 2"); the computed value is
# 1 55 12.  Links are (first member, second member, exponent triple of the
# factor applied to the first member) or None for pairs in the table.
PLIMPTON_PAIRS_PRINTED = [
    ("1", "2 24", "25", None),
    ("2", "2 22 13 20", "25 18 45", ("1 04", "56 15", (0, -3, 0))),
    ("3", "2 20 37 30", "25 36", ("1 15", "48", (-5, 0, 0))),
    ("4", "2 18 53 20", "25 55 12", ("54", "1 06 40", (0, 0, -3))),
    ("5", "2 15", "26 40", ("9", "6 40", (-2, 0, 0))),
    ("6", "2 13 20", "27", None),
    ("7", "2 09 36", "27 46 40", ("54", "1 06 40", (0, 0, -2))),
    ("8", "2 08", "28 07 30", ("1 04", "56 15", (1, 0, 0))),
    ("9", "2 05", "28 48", ("1 06 40", "54", (-5, 0, 0))),
    ("10", "2 01 30", "29 37 46 40", ("1 21", "44 26 40", (-1, 1, 0))),
    ("11", "2", "30", None),
    ("12", "1 55 2", "31 15", ("54", "1 06 40", (7, 0, 0))),
    ("13", "1 52 30", "32", None),
    ("14", "1 51 06 40", "32 24", ("16 40", "3 36", (0, -2, 0))),
    ("15", "1 48", "33 20", ("54", "1 06 40", (1, 0, 0))),
]

# The six pairs present in a plain four-place table of the tablet's range
# but absent from the tablet, keyed by the interpolated row labels used in
# Robson's listing.  Digit strings are as printed; row 8a's second member
# is misprinted in the source (28 06 40 is not regular) and the computed
# value is 28 26 40.
EXCLUDED_PAIRS_PRINTED = [
    ("4a", "2 18 14 24", "26 02 30"),
    ("6a", "2 10 12 30", "27 38 52 48"),
    ("8a", "2 06 33 45", "28 06 40"),
    ("9a", "2 02 52 48", "29 17 48 45"),
    ("11a", "1 57 11 15", "30 43 12"),
    ("12a", "1 53 46 40", "31 38 26 15"),
]

# Printed extension tables, digit strings as printed: four places per
# member, padded with trailing zeros.  Digit 64 appears twice in the source
# (a misprint of "06 4"); the affected rows are corrected by computation and
# logged, never silently fixed.
LOWER_EXTENSION_PRINTED = [
    ("-21", "3 54 22 30", "15 21 36 0"),
    ("i", "3 50 24 0", "15 37 30 0"),
    ("-20", "3 45 0 0", "16 0 0 0"),
    ("ii", "3 42 13 20", "16 12 0 0"),
    ("-19", "3 36 0 0", "16 40 0 0"),
    ("-18", "3 33 20 0", "16 52 30 0"),
    ("-17", "3 28 20 0", "17 16 48 0"),
    ("-16", "3 22 30 0", "17 46 40 0"),
    ("-15", "3 20 0 0", "18 0 0 0"),
    ("-14", "3 14 24 0", "18 31 64 0"),
    ("-13", "3 12 0 0", "18 45 0 0"),
    ("-12", "3 7 30 0", "19 12 0 0"),
    ("-11", "3 0 0 0", "20 0 0 0"),
    ("-10", "2 57 46 40", "20 15 0 0"),
    ("-9", "2 52 48 0", "20 50 0 0"),
    ("iii", "2 50 40 0", "21 5 37 30"),
    ("-8", "2 48 45 0", "21 20 0 0"),
    ("-7", "2 46 40 0", "21 36 0 0"),
    ("-6", "2 42 0 0", "22 13 20 0"),
    ("-5", "2 40 0 0", "22 30 0 0"),
    ("-4", "2 36 15 0", "23 2 24 0"),
    ("-3", "2 33 36 0", "23 26 15 0"),
    ("-2", "2 31 52 30", "23 42 13 20"),
    ("-1", "2 30 0 0", "24 0 0 0"),
]

UPPER_EXTENSION_PRINTED = [
    ("16", "1 46 40 0", "33 45 0 0"),
    ("iv", "1 44 10 0", "34 33 36 0"),
    ("v", "1 42 24 0", "35 9 22 30"),
    ("17", "1 41 15 0", "35 33 20 0"),
    ("18", "1 40 0 0", "36 0 0 0"),
    ("19", "1 37 12 0", "37 2 13 20"),
    ("20", "1 36 0 0", "37 30 0 0"),
    ("21", "1 33 45 0", "38 24 0 0"),
    ("22", "1 30 0 0", "40 0 0 0"),
    ("23", "1 28 53 20", "40 30 0 0"),
    ("24", "1 26 24 0", "41 40 0 0"),
    ("25", "1 25 20 0", "42 11 15 0"),
    ("26", "1 24 22 30", "42 40 0 0"),
    ("27", "1 23 20 0", "43 12 0 0"),
    ("28", "1 21 0 0", "44 26 40 0"),
    ("29", "1 20 0 0", "45 0 0 0"),
    ("vi", "1 18 7 30", "46 4 48 0"),
    ("30", "1 16 48 0", "46 52 30 0"),
    ("31", "1 15 0 0", "48 0 0 0"),
    ("32", "1 12 0 0", "50 0 0 0"),
    ("33", "1 11 64 0", "50 37 30 0"),
    ("vii", "1 9 26 40", "51 50 24 0"),
    ("34", "1 7 30 0", "53 20 0 0"),
    ("35", "1 6 40 0", "54 0 0 0"),
    ("36", "1 4 48 0", "55 33 20 0"),
    ("37", "1 4 0 0", "56 15 0 0"),
    ("38", "1 2 30 0", "57 36 0 0"),
    ("viii", "1 0 45 0", "59 15 33 20"),
]

# A cited earlier reconstruction gives row -17's T as 3 29 10; computation
# confirms the tabulated 3 28 20 (the reciprocal of 17 16 48).  A table's
# variant rows are logged after its own, each against its label's row.
PRINTED_VARIANTS = {"extension-lower": [("-17", "3 29 10")]}

# Every printed table of pairs, by the name its correction log carries: its
# rows as printed, (label, T, Tbar, ...), then the selection record (see
# pairs._four_place_pairs) of the pairs it is checked against, by decreasing
# T.  The fifteen are the phillips theory's pairs; the excluded pairs fail
# the multiple-of-10 rule over the tablet's range; each extension passes it
# over its own, lower from the printed top down to above the tablet's first
# row, upper from below its last row down to above 1.
_mult10 = CRITERIA["mult10"]
PRINTED_TABLES = {
    "standard-15": (PLIMPTON_PAIRS_PRINTED, *THEORIES["phillips"][1:]),
    "excluded-pairs": (EXCLUDED_PAIRS_PRINTED, *PLIMPTON_PADDED,
                       lambda t, tbar, p, q, pair: not _mult10(t, tbar, p, q, pair)),
    # 2;24 < T <= 3;54 22 30
    "extension-lower": (LOWER_EXTENSION_PRINTED, PLIMPTON_PADDED[1] + 1, 843750, _mult10),
    # 1 < T < 1;48
    "extension-upper": (UPPER_EXTENSION_PRINTED, 60**3 + 1, PLIMPTON_PADDED[0] - 1, _mult10),
}


class Correction(_Value):
    """A printed source value that disagrees with the computed one."""

    __slots__ = ("table", "label", "column", "printed", "computed")

    def __str__(self) -> str:
        return (f"[{self.table}] row {self.label} {self.column}: "
                f"printed {self.printed!r}, computed {self.computed}")


def printed_pairs(table: str) -> list[tuple[str, ReciprocalPair]]:
    """The computed pairs of one printed table, each with its printed
    label, in printed order."""
    try:
        printed, *record = PRINTED_TABLES[table]
    except (KeyError, TypeError):
        raise ValueError(f"unknown printed table {table!r}") from None
    pairs = _four_place_pairs(*record)
    if len(pairs) != len(printed):
        raise ValueError(f"{table}: computed {len(pairs)} pairs, "
                         f"printed table has {len(printed)}")
    return [(label, pair) for (label, *_), pair in zip(printed, pairs)]


@cache
def _printed_log(table: str) -> tuple[tuple[tuple[int, int, int], Correction], ...]:
    """The whole log of one printed table, then of its variants (each checked
    against its label's row), built once per process on first use: every
    printed member that parse_sex does not read as its own row's computed
    member's mantissa (the misprinted 64s do not parse), keyed by the T
    triple of that row's computed pair."""
    own = printed_pairs(table)
    labelled = dict(own)
    rows = [(table, row, pair) for row, (_, pair) in zip(PRINTED_TABLES[table][0], own)]
    try:
        rows += [(f"{table}(variant)", row, labelled[row[0]])
                 for row in PRINTED_VARIANTS.get(table, [])]
    except KeyError as e:
        raise ValueError(f"{table}: a variant row's label {e} is not the table's") from None
    log = []
    for name, (label, *texts), pair in rows:
        for column, text in zip(("T", "Tbar"), texts):
            member = getattr(pair, column)
            try:
                matches = parse_sex(text).mantissa == member.mantissa
            except SexagesimalError:
                matches = False
            if not matches:
                log.append((pair.T.triple,
                            Correction(name, label, column, text, render_sex(member.value))))
    return tuple(log)


def printed_corrections(table: str,
                        pairs: Iterable[ReciprocalPair]) -> list[Correction]:
    """The entries of one printed table's log whose row's computed pair is
    among ``pairs``, in any order, matched by T's exponent triple: a listed
    pair only selects rows, and each printed member is checked against its
    own row's computed member."""
    try:
        log = _printed_log(table)
    except TypeError:  # the cache cannot key an unhashable name
        raise ValueError(f"unknown printed table {table!r}") from None
    listed = set()
    for pair in pairs:
        if type(pair) is not ReciprocalPair:
            raise SexagesimalError("every listed pair must be a ReciprocalPair")
        listed.add(pair.T.triple)
    return [c for key, c in log if key in listed]


# ---------------------------------------------------------------------------
# Linking to the standard reciprocal table

class LinkChain(_Value):
    """A minimal multiplication chain from a standard-table pair.

    ``factor`` is the exponent triple (a, b, c): multiplying the start
    pair's T by 2**a 3**b 5**c (and its Tbar by the inverse) reproduces the
    target pair.  An all-zero factor means the pair is in the table.
    """

    __slots__ = ("start", "factor")

    def __init__(self, start: ReciprocalPair, factor: tuple[int, int, int]) -> None:
        if type(start) is not ReciprocalPair:
            raise SexagesimalError(f"a start must be a ReciprocalPair, not {type(start).__name__}")
        if type(factor) is not tuple or tuple(map(type, factor)) != (int, int, int):
            raise SexagesimalError("a factor must be a tuple of three ints")
        set_start, set_factor = self._setters
        set_start(self, start)
        set_factor(self, factor)

    @property
    def steps(self) -> int:
        return sum(abs(e) for e in self.factor)

    @property
    def in_table(self) -> bool:
        return self.factor == (0, 0, 0)

    @property
    def factor_ratio(self) -> tuple[int, int]:
        """The factor as coprime (numerator, denominator): the primes of
        positive exponent make the numerator, the others the denominator."""
        return (_product(*(max(e, 0) for e in self.factor)),
                _product(*(max(-e, 0) for e in self.factor)))

    def replay(self) -> ReciprocalPair:
        return ReciprocalPair.from_triple(
            tuple(e + f for e, f in zip(self.start.T.triple, self.factor)))

    def __str__(self) -> str:
        if self.in_table:
            return "in table"
        num, den = self.factor_ratio
        return f"{self.start} × ({_ratio_text(num, den)}, {_ratio_text(den, num)})"


def standard_table() -> list[ReciprocalPair]:
    """The conventional school list: the shared pairs whose T's canonical
    mantissa is a regular number 2 through 81, ascending.  (60 reads as the
    unit and is omitted: its canonical mantissa is 1.)"""
    return sorted((pair for *_, pair in _four_place_index()[1] if 1 < pair.T.mantissa < 82),
                  key=lambda pair: pair.T.mantissa)


def _lattice_class(r: RegularNumber) -> tuple[int, int]:
    # Multiplying by 60 adds (2, 1, 1) to the exponents and keeps
    # (alpha - 2 gamma, beta - gamma): the value up to powers of 60.
    return r.alpha - 2 * r.gamma, r.beta - r.gamma


@cache
def _start_classes() -> tuple[dict[tuple[int, int], ReciprocalPair], list[int],
                              list[tuple[int, int, ReciprocalPair]]]:
    """Lattice class -> the shared pair whose T is either member of a
    standard-table pair (a member's reciprocal has the opposite class); the
    classes' a = s1 - s2, ascending; and (s1, s2, pair) in that order."""
    pairs = {pair.T.mantissa: pair for *_, pair in _four_place_index()[1]}
    starts = {_lattice_class(r): pairs[r.mantissa] for p in standard_table() for r in (p.T, p.Tbar)}
    by_a = sorted(((s1, s2, start) for (s1, s2), start in starts.items()),
                  key=lambda c: c[0] - c[1])
    return starts, [s1 - s2 for s1, s2, _ in by_a], by_a


def link_to_standard(p: ReciprocalPair) -> LinkChain:
    """Minimal-step chain of simultaneous (x, 1/x) multiplications, x in
    {2, 3, 5}, from a standard-table pair to p.

    Closed form on the exponent lattice: from a start of class s, the
    factors reaching p's class t are (d1 + 2j, d2 + j, j) for d = t - s and
    any integer j, at |d1 + 2j| + |d2 + j| + |j| steps.  The fewest are
    max(|d1 - d2|, |d2| + d1 mod 2): for j between 0 and -d2 the last two
    terms sum to |d2|, and the first is least, d1 mod 2, where -d1 lies
    between 0 and -2 d2; outside, it is least at the nearer end.  Only the
    starts that reach the fewest steps so far are scored further.  The sum,
    like each exponent's size, is convex and piecewise linear in j, so
    j = 0, -d2 and either side of -d1/2 reach the fewest steps and the
    tie-break's choice.

    The starts are visited nearest first: by nondecreasing |u - a| for
    u = t1 - t2 and a = s1 - s2, outward from where u falls among the
    sorted a.  As d1 - d2 = u - a, a start's fewest steps are at least
    |u - a| and |d2|, so the scan stops at the first start whose |u - a|
    exceeds the fewest so far and skips one whose |d2| does: neither can
    reach the final fewest, and every start that does is scored.  The
    tie-break is a total order, start mantissas being distinct, so the
    order of the visits does not change the chain.

    Ties at minimal length prefer the chain using the smaller primes
    (doubling over tripling over quintupling), then the lexicographically
    largest exponent triple, then the smallest start mantissa.
    """
    if type(p) is not ReciprocalPair:
        raise SexagesimalError(f"a link is defined for ReciprocalPairs, not {type(p).__name__}")
    t1, t2 = _lattice_class(p.T)  # Tbar's is the opposite, by the pair's type
    starts, a_values, by_a = _start_classes()
    if (t1, t2) in starts:
        return LinkChain(p, (0, 0, 0))
    u = t1 - t2
    lo = hi = bisect_left(a_values, u)
    fewest, ties = None, []
    while lo or hi < len(by_a):
        # the nearer of the next start below u and the next at or above it
        if lo and (hi == len(by_a) or u - a_values[lo - 1] < a_values[hi] - u):
            lo -= 1
            s1, s2, start = by_a[lo]
        else:
            s1, s2, start = by_a[hi]
            hi += 1
        d1, d2 = t1 - s1, t2 - s2
        if fewest is not None:
            if abs(d1 - d2) > fewest:
                break
            if abs(d2) > fewest:
                continue
        steps = max(abs(d1 - d2), abs(d2) + (d1 & 1))
        if fewest is None or steps < fewest:
            fewest, ties = steps, []
        elif steps > fewest:
            continue
        for j in {0, -d2, -d1 // 2, -(d1 // 2)}:
            if abs(d1 + 2 * j) + abs(d2 + j) + abs(j) == steps:
                ties.append(((d1 + 2 * j, d2 + j, j), start))
    factor, start = min(ties, key=lambda c: (
        -abs(c[0][0]), -abs(c[0][1]), -abs(c[0][2]), -c[0][0], -c[0][1], -c[0][2],
        c[1].T.mantissa))
    return LinkChain(start, factor)
