import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from plimpton.hypotheses import (
    EXCLUDED_PAIRS_PRINTED,
    PRINTED_TABLES,
    THEORIES,
    printed_corrections,
    printed_pairs,
)

from plimpton.pairs import (
    CRITERIA,
    PLIMPTON_PADDED,
    ReciprocalPair,
    _four_place_index,
    _four_place_pairs,
    enumerate_pairs,
)
from plimpton import hypotheses
from plimpton import pairs as pairs_module
from plimpton.sexagesimal import (
    RegularNumber,
    SexValue,
    SexagesimalError,
    factor_2_3_5,
    parse_sex,
    regular_from_int,
    render_sex,
)
from bench_oracle import oracle
from counting import counted
from test_cli import run_python_bounded

# The fifteen pairs of the tablet's range under the multiple-of-10 rule.
PHILLIPS_15 = [
    ("2 24", "25"),
    ("2 22 13 20", "25 18 45"),
    ("2 20 37 30", "25 36"),
    ("2 18 53 20", "25 55 12"),
    ("2 15", "26 40"),
    ("2 13 20", "27"),
    ("2 09 36", "27 46 40"),
    ("2 08", "28 07 30"),
    ("2 05", "28 48"),
    ("2 01 30", "29 37 46 40"),
    ("2", "30"),
    ("1 55 12", "31 15"),
    ("1 52 30", "32"),
    ("1 51 06 40", "32 24"),
    ("1 48", "33 20"),
]

# The tablet's T range as two fixed-reading values, 1;48 and 2;24.
TABLET_RANGE = tuple(SexValue(t, -3) for t in PLIMPTON_PADDED)


def _pairs(kind):
    lo, hi = TABLET_RANGE
    return enumerate_pairs(kind, lo, hi)


# The four-place members from the benchmark's oracle, as the index gives
# them: each canonical regular mantissa below 60**4, ascending, mapped to
# (padded, triple), padded being the mantissa with zero places to four digits.
MEMBERS = {m: (m * 60 ** (4 - oracle.places(m)), oracle.factor235(m))
           for m in oracle.regular_mantissas(60**4)}


@cache
def _oracle_table(kind):
    return oracle.pairs_between(kind, 0, 60)


def oracle_pairs(kind, lo, hi):
    """The benchmark oracle's four-place pairs (T, Tbar) passing criterion
    ``kind`` with lo <= T <= hi, as Fractions by decreasing T: one list of
    the whole table per criterion, filtered by the range."""
    return [(t, tbar) for t, tbar in _oracle_table(kind) if lo <= t <= hi]


def as_fractions(pairs):
    """Each pair as (T, Tbar), the oracle's form: Fractions in the fixed
    reading."""
    return [(p.T.value.fraction, p.Tbar.value.fraction) for p in pairs]


# The criteria as member rules, the reference for CRITERIA's pair tests:
# each tests one member against the other, and a pair passes when both
# members pass.
MEMBER_RULES = {
    "mult10": lambda member, other: member[0] % 10 == 0,
    "places4": lambda member, other: True,
    "bruins": lambda member, other: not (sum(member[1]) > 13 and other[1][2] > 3),
}


def both_ways(kind):
    """Member rule ``kind`` as a test of an index entry: both members of its
    pair, read from the oracle's MEMBERS by their mantissas, pass it."""
    rule = MEMBER_RULES[kind]

    def keep(t, tbar, p, q, pair):
        t, tbar = MEMBERS[pair.T.mantissa], MEMBERS[pair.Tbar.mantissa]
        return rule(t, tbar) and rule(tbar, t)
    return keep


def full_mult10():
    """Every pair whose members both pass the multiple-of-10 rule, over the
    whole floating range but the self-reciprocal 1, by decreasing T."""
    return _four_place_pairs(60**3 + 1, 60**4 - 1, CRITERIA["mult10"])


class TestReciprocalPair:
    @pytest.mark.parametrize("m,expected", [
        (144, ("2 24", "25")),
        (125, ("2 05", "28 48")),
        (108, ("1 48", "33 20")),
    ])
    def test_from_T_mantissa(self, m, expected):
        p = ReciprocalPair.from_T_mantissa(m)
        assert (render_sex(p.T.value), render_sex(p.Tbar.value)) == expected

    @given(st.integers(0, 10), st.integers(0, 6), st.integers(0, 5))
    def test_fixed_product_is_exactly_one(self, a, b, c):
        p = ReciprocalPair.from_T_mantissa(2**a * 3**b * 5**c)
        assert p.T.value.fraction * p.Tbar.value.fraction == 1
        assert 1 <= p.T.value.fraction < 60
        for member in (p.T, p.Tbar):
            assert member.triple == factor_2_3_5(member.mantissa)

    def test_factorizes_once(self):
        for m in (144, 2 * 60**3, 500000, 1):
            with counted(factor_2_3_5) as (calls,):
                ReciprocalPair.from_T_mantissa(m)
            assert len(calls) == 1, m

    def test_tbar_sits_one_place_right(self):
        p = ReciprocalPair.from_T_mantissa(144)
        assert p.T.value.fraction == Fraction(12, 5)
        assert p.Tbar.value.fraction == Fraction(5, 12)

    def test_pair_of_tbar_swaps_roles(self):
        p = ReciprocalPair.from_T_mantissa(144)
        swapped = ReciprocalPair.from_triple(p.Tbar.triple)
        assert swapped.T.mantissa == 25
        assert ReciprocalPair.from_triple(swapped.Tbar.triple) == p

    @pytest.mark.parametrize("members", [
        (1, 2), (None, None), (SexValue(2), SexValue(30)),
        ("T", regular_from_int(2)), (regular_from_int(2), (1, 0, 0)),
    ])
    def test_refuses_members_that_are_not_regular_numbers(self, members):
        # ReciprocalPair(1, 2) was accepted; its str() and its link raised
        # AttributeError
        with pytest.raises(SexagesimalError, match="must be RegularNumbers"):
            ReciprocalPair(*members)

    # members of any mantissa and exponent: the constructor reads neither
    # member's triple, so each member keeps the triple it is drawn with
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), st.integers(-50, 50),
           st.integers(0, 10**6), st.integers(-50, 50))
    @example(144, -1, 25, -1)   # (2 24, 25) at one exponent: 144 * 25 = 60**2
    @example(1, 25, 1, -25)
    @example(2, 0, 30, 0)       # lattice classes cancel, the product is 60
    @example(2, 0, 30, -2)      # a product of 1/60
    @example(0, 0, 1, 0)
    def test_accepts_exactly_a_fixed_product_of_one(self, mt, et, mtbar, etbar):
        t, tbar = SexValue(mt, et), SexValue(mtbar, etbar)
        members = RegularNumber(t, 0, 0, 0), RegularNumber(tbar, 0, 0, 0)
        if t.fraction * tbar.fraction == 1:
            assert ReciprocalPair(*members).T.value == t
        else:
            with pytest.raises(SexagesimalError, match="not a reciprocal pair"):
                ReciprocalPair(*members)

    @given(st.tuples(*[st.integers(-60, 60)] * 3), st.sampled_from(["T", "Tbar"]),
           st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    @example((0, 0, 0), "T", (-1, 0))  # mantissa 0
    @example((4, 1, 0), "Tbar", (1, 0))
    def test_refuses_a_pair_one_step_off(self, triple, side, step):
        # from_triple's pair is built; one member's mantissa or exponent
        # moved by one is not its reciprocal's partner
        p = ReciprocalPair.from_triple(triple)
        assert p.T.value.fraction * p.Tbar.value.fraction == 1
        dm, de = step
        member = getattr(p, side)
        moved = RegularNumber(SexValue(member.mantissa + dm, member.value.exponent + de),
                              *member.triple)
        members = (moved, p.Tbar) if side == "T" else (p.T, moved)
        with pytest.raises(SexagesimalError, match="not a reciprocal pair"):
            ReciprocalPair(*members)

    @pytest.mark.parametrize("exponents, accepted", [
        # 2 * 60**(-2 * 10**7) would be compared with 60**(2 * 10**7):
        # ~74 s to build, and 1.5 GiB at an exponent of 10**9
        (((2, -10**7), (1, -10**7)), False),
        (((1, 10**7), (1, -10**7)), True),
    ])
    def test_far_exponents_take_bounded_work(self, exponents, accepted):
        code = ("from plimpton.pairs import ReciprocalPair\n"
                "from plimpton.sexagesimal import RegularNumber, SexValue, SexagesimalError\n"
                f"t, tbar = {exponents!r}\n"
                "try:\n"
                "    ReciprocalPair(RegularNumber(SexValue(*t), 1, 0, 0),\n"
                "                   RegularNumber(SexValue(*tbar), 0, 0, 0))\n"
                "    print('accepted')\n"
                "except SexagesimalError as e:\n"
                "    print('refused' if 'not a reciprocal pair' in str(e) else e)\n")
        status, out, err = run_python_bounded("-c", code)
        assert status == 0, err
        assert out.strip() == ("accepted" if accepted else "refused")


def _canonical_mantissa(a, b, c):
    return oracle.floating_mantissa(Fraction(2)**a * Fraction(3)**b * Fraction(5)**c)


class TestFromTriple:
    """from_triple against mantissas canonicalised by rational scaling."""

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
    @example(0, 0, 0)
    @example(2, 1, 1)
    @example(-1, 0, 0)
    @example(0, 0, -1)
    def test_oracle(self, a, b, c):
        p = ReciprocalPair.from_triple((a, b, c))
        assert p.T.mantissa == _canonical_mantissa(a, b, c)
        assert p.Tbar.mantissa == _canonical_mantissa(-a, -b, -c)
        assert p.T.value.fraction * p.Tbar.value.fraction == 1
        assert 1 <= p.T.value.fraction < 60
        for member in (p.T, p.Tbar):
            assert member.triple == factor_2_3_5(member.mantissa)

    @given(st.integers(-3000, 3000), st.integers(-3000, 3000),
           st.integers(-3000, 3000))
    @example(50000, 0, 0)
    @example(-14290, 0, 0)
    def test_wide_triples(self, a, b, c):
        p = ReciprocalPair.from_triple((a, b, c))
        assert 1 <= p.T.value.fraction < 60
        assert p.T.value.fraction * p.Tbar.value.fraction == 1

    @pytest.mark.parametrize("triple", [
        (0.5, 0, 0), (0, 0, 1.0), (True, 0, 0), (0, 0, False), (Fraction(1), 0, 0),
        (1, 0), (1, 0, 0, 0), (), ("1", 0, 0), 5, None, [1, 0, 0], "abc",
    ])
    def test_refuses_anything_but_three_ints(self, triple):
        # (0.5, 0, 0) raised AttributeError, 5 TypeError: 'int' object is
        # not iterable
        with pytest.raises(SexagesimalError, match="three ints"):
            ReciprocalPair.from_triple(triple)

    @pytest.mark.parametrize("prime,top", [(0, 1800), (1, 1140), (2, 780)])
    def test_place_count_across_powers_of_60(self, prime, top):
        # the powers of 2, 3 and 5 below top cross every 60**k, k < 300
        for e in range(top):
            triple = tuple(e * (i == prime) for i in range(3))
            p = ReciprocalPair.from_triple(triple)
            assert 1 <= p.T.value.fraction < 60, e


class TestRegularEnumeration:
    def test_one_place_regulars(self):
        assert [m for m in MEMBERS if m < 60] == [
            1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25,
            27, 30, 32, 36, 40, 45, 48, 50, 54]

    def test_four_place_count(self):
        ms = list(MEMBERS)
        assert len(ms) == 432
        assert 455625 in ms  # 3^6 * 5^4, a 4-place regular
        assert all(m % 60 for m in ms)
        assert list(ms) == sorted(set(ms))

    def test_members_are_padded_to_four_places(self):
        # both members of every index entry, padded value and exponent
        # triple, against the oracle's, and P/Q as T's exact fraction in
        # lowest terms
        for t, tbar, p, q, pair in _four_place_index()[1]:
            assert (t, tbar) == (MEMBERS[pair.T.mantissa][0], MEMBERS[pair.Tbar.mantissa][0])
            assert (pair.T.triple, pair.Tbar.triple) == \
                (MEMBERS[pair.T.mantissa][1], MEMBERS[pair.Tbar.mantissa][1])
            assert (p, q) == pair.T.value.fraction.as_integer_ratio()

    def test_triple_lookup_matches_factorization(self):
        # the oracle's four-place table against factorization
        for m, (_, triple) in MEMBERS.items():
            assert triple == factor_2_3_5(m)

    def test_index_weighs_every_four_place_member(self):
        # the index takes the complement of each of the 432 canonical
        # triples below 60**4 once, and _pair again of each of the 271 kept
        _four_place_index.cache_clear()
        hypotheses._start_classes.cache_clear()
        with counted((pairs_module, "_complement")) as (weighed,):
            _four_place_index()
        assert {call.args for call in weighed} == {triple for _, triple in MEMBERS.values()}
        assert len(weighed) == 432 + 271


class TestPairCriteria:
    """CRITERIA test both members of a pair at once: each against its member
    rule applied both ways, over every index entry that has a Tbar."""

    ENTRIES = _four_place_index()[1]

    def test_every_entry_with_a_tbar_and_every_criterion(self):
        assert len(self.ENTRIES) == 271
        assert list(CRITERIA) == list(MEMBER_RULES)

    @pytest.mark.parametrize("kind", list(MEMBER_RULES))
    def test_criterion_is_its_member_rule_both_ways(self, kind):
        reference = both_ways(kind)
        kept = [reference(*entry) for entry in self.ENTRIES]
        assert [CRITERIA[kind](*entry) for entry in self.ENTRIES] == kept

    def test_excluded_pairs_keep_is_the_complement_of_mult10(self):
        keep = PRINTED_TABLES["excluded-pairs"][3]
        reference = both_ways("mult10")
        assert [keep(*entry) for entry in self.ENTRIES] == \
            [not reference(*entry) for entry in self.ENTRIES]


class TestCriteria:
    def test_phillips_enumeration_digit_exact(self):
        got = [(render_sex(p.T.value), render_sex(p.Tbar.value))
               for p in _pairs("mult10")]
        assert got == PHILLIPS_15

    def test_places4_gives_21(self):
        assert len(_pairs("places4")) == 21

    def test_exclusions_are_the_same_six_both_ways(self):
        by_difference = set(as_fractions(_pairs("places4"))) - set(as_fractions(_pairs("mult10")))
        by_bruins_rule = {p for p in oracle_pairs("places4", oracle.TABLET_LOW, oracle.TABLET_HIGH)
                          if not oracle.criterion_holds("bruins", p[0])}
        listed = set(as_fractions(pair for _, pair in printed_pairs("excluded-pairs")))
        assert by_difference == by_bruins_rule == listed
        assert len(listed) == 6

    def test_bruins_matches_mult10_inside_places4(self):
        assert [p.T.mantissa for p in _pairs("bruins")] == \
            [p.T.mantissa for p in _pairs("mult10")]

    def test_disjunctive_reading_excludes_more(self):
        conj = sum(not oracle.criterion_holds("bruins", p.T.value.fraction)
                   for p in _pairs("places4"))
        # either member heavy (alpha+beta+gamma > 13) or deep (gamma > 3)
        disj = sum(any(sum(r.triple) > 13 or r.gamma > 3 for r in (p.T, p.Tbar))
                   for p in _pairs("places4"))
        assert disj > conj == 6

    def test_excluded_pair_corrections_flag_only_8a(self):
        excluded = [pair for _, pair in printed_pairs("excluded-pairs")]
        corrections = printed_corrections("excluded-pairs", excluded)
        assert [(c.label, c.printed, c.computed) for c in corrections] == \
            [("8a", "28 06 40", "28 26 40")]

    def test_printed_excluded_labels(self):
        assert [label for label, *_ in EXCLUDED_PAIRS_PRINTED] == \
            [label for label, _ in printed_pairs("excluded-pairs")] == \
            ["4a", "6a", "8a", "9a", "11a", "12a"]

    def test_tablet_range_is_1_48_to_2_24(self):
        assert TABLET_RANGE == (parse_sex("1;48", "fixed"), parse_sex("2;24", "fixed"))

    def test_empty_range_rejected(self):
        lo, hi = TABLET_RANGE
        with pytest.raises(ValueError, match="empty range"):
            enumerate_pairs("mult10", hi, lo)

    # a name of an unhashable type is unknown too, not a TypeError
    @pytest.mark.parametrize("kind", ["nope", ["x"]])
    def test_unknown_kind_rejected(self, kind):
        lo, hi = TABLET_RANGE
        with pytest.raises(ValueError, match="unknown criterion kind " + re.escape(repr(kind))):
            enumerate_pairs(kind, lo, hi)

    @pytest.mark.parametrize("ends", [(1, 2), (SexValue(1), 2), (0.5, SexValue(2)),
                                      ("1;48", "2;24")])
    def test_bounds_must_be_sexvalues(self, ends):
        # ints raised AttributeError
        with pytest.raises(SexagesimalError, match="bounds must be SexValues"):
            enumerate_pairs("mult10", *ends)

    # (lower, upper) as (mantissa, exponent) with an exponent of +-10**9,
    # each with small ends that select the same pairs (None: empty range)
    FAR_ENDS = [
        (((1, 0), (2, 10**9)), ((1, 0), (1, 1))),
        (((0, 0), (2, 10**9)), ((0, 0), (1, 1))),
        (((1, -10**9), (2, 0)), ((0, 0), (2, 0))),
        (((1, -10**9), (1, -10**9 + 1)), ((0, 0), (0, 0))),
        (((7, 10**9), (1, 10**9 + 1)), ((1, 1), (1, 1))),
        (((3, 10**9), (2, 10**9)), None),
        (((1, 10**9), (1, -10**9)), None),
        (((1, -10**9), (0, 0)), None),
    ]

    def test_far_ends_take_bounded_work(self):
        # at most 271 pairs, whatever the ends: building 60**(10**9) to align
        # them would not finish within the budget
        code = ("from plimpton.pairs import enumerate_pairs\n"
                "from plimpton.sexagesimal import SexValue\n"
                f"for lo, hi in {[far for far, _ in self.FAR_ENDS]!r}:\n"
                "    try:\n"
                "        found = enumerate_pairs('mult10', SexValue(*lo), SexValue(*hi))\n"
                "        print(' '.join(str(p.T.mantissa) for p in found))\n"
                "    except ValueError as e:\n"
                "        print(e)\n")
        status, out, err = run_python_bounded("-c", code)
        assert status == 0, err
        expected = []
        for _, near in self.FAR_ENDS:
            if near is None:
                expected.append("empty range: lower bound exceeds upper bound")
            else:
                found = enumerate_pairs("mult10", SexValue(*near[0]), SexValue(*near[1]))
                expected.append(" ".join(str(p.T.mantissa) for p in found))
        assert out.splitlines() == expected
        assert len(expected[0].split()) == 205  # full_mult10 and (1, 1)

    def test_single_point_range(self):
        v = parse_sex("2;24", "fixed")
        assert len(enumerate_pairs("mult10", v, v)) == 1

    def test_clearing_a_returned_list_leaves_the_next_call_unchanged(self):
        # the pairs are shared by every call, the list holding them is not
        lo, hi = TABLET_RANGE
        found = enumerate_pairs("mult10", lo, hi)
        expected = list(found)
        found.clear()
        assert enumerate_pairs("mult10", lo, hi) == expected
        assert len(expected) == 15


class TestFullList:
    def test_count_and_endpoints(self):
        full = full_mult10()
        assert len(full) == 204
        assert render_sex(full[0].T.value) == "59 15 33 20"
        assert render_sex(full[0].Tbar.value) == "1 00 45"
        assert render_sex(full[-1].T.value) == "1 00 45"

    def test_both_orientations_present_and_distinct(self):
        full = full_mult10()
        ts = [p.T.mantissa for p in full]
        assert len(ts) == len(set(ts))
        as_set = set(ts)
        for p in full:
            assert p.Tbar.mantissa in as_set

    def test_strictly_decreasing(self):
        full = full_mult10()
        assert all(a.T.value.fraction > b.T.value.fraction
                   for a, b in zip(full, full[1:]))


_fixed = st.one_of(
    # on the grid of padded four-place T, T * 60**3 an integer
    st.integers(0, 61 * 60**3).map(lambda n: SexValue(n, -3)),
    # up to six fractional places: bounds between grid points
    st.integers(0, 61 * 60**6).map(lambda n: SexValue(n, -6)),
    # anywhere, inside and outside [1, 60)
    st.builds(SexValue, st.integers(0, 10**6), st.integers(-8, 2)),
)


class TestFastPathOracle:
    """enumerate_pairs selects T by range and rule before building pairs;
    it must list exactly the oracle's pairs, in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["mult10", "bruins", "places4"]),
           a=_fixed, b=_fixed)
    @example(kind="mult10", a=parse_sex("1;48 00 00 00 01", "fixed"),
             b=parse_sex("2;24", "fixed"))
    @example(kind="bruins", a=parse_sex("1;47 59 59 59 59", "fixed"),
             b=parse_sex("2;24 00 00 00 01", "fixed"))
    @example(kind="places4", a=SexValue(0), b=SexValue(1))
    @example(kind="mult10", a=parse_sex("59;59 59", "fixed"), b=SexValue(100))
    @example(kind="places4", a=SexValue(1, -3), b=SexValue(10**9))
    def test_enumerate_pairs_equals_oracle(self, kind, a, b):
        lo, hi = sorted((a, b), key=lambda v: v.fraction)
        assert as_fractions(enumerate_pairs(kind, lo, hi)) == \
            oracle_pairs(kind, lo.fraction, hi.fraction)

    def test_bound_past_the_fourth_place(self):
        lo = parse_sex("1;48 00 00 00 01", "fixed")
        hi = parse_sex("2;24", "fixed")
        got = as_fractions(enumerate_pairs("mult10", lo, hi))
        assert got == oracle_pairs("mult10", lo.fraction, hi.fraction)
        assert len(got) == 14

    def test_full_mult10_list(self):
        # the whole range but the self-reciprocal 1
        full = as_fractions(full_mult10())
        assert full == [p for p in oracle_pairs("mult10", 0, 60) if p[0] != 1]
        assert len(full) == 204

    @pytest.mark.parametrize("side,count", [("lower", 24), ("upper", 28)])
    def test_extension_sides_are_slices_of_the_full_list(self, side, count):
        expected = oracle.extension_pairs(side)
        assert as_fractions(pair for _, pair in printed_pairs(f"extension-{side}")) == expected
        assert len(expected) == count


# The scan over the whole four-place table that the bisected index replaced:
# every member's padded T is tested against the range, Tbar is found by the
# oracle's division, 60**k // m, and P/Q is the padded T over 60**3.  The
# pair the keep reads holds the oracle's triples for T and Tbar.

def _scan(lo, hi, keep):
    found = []
    for m, (t, triple) in MEMBERS.items():
        tbar = MEMBERS.get(60 ** oracle.reciprocal_places(m) // m)
        if lo <= t <= hi and tbar:
            pair = ReciprocalPair.from_triple(triple)
            assert (pair.T.triple, pair.Tbar.triple) == (triple, tbar[1])
            if keep(t, tbar[0], *Fraction(t, 60**3).as_integer_ratio(), pair):
                found.append((t, pair))
    return [pair for _, pair in sorted(found, key=lambda item: item[0], reverse=True)]


def count_visits(lo, hi, keep) -> int:
    """How many index entries ``_four_place_pairs`` visits: the times it
    tests one with keep."""
    visits = []
    _four_place_pairs(lo, hi, lambda *entry: visits.append(1) or keep(*entry))
    return len(visits)


_PADDED = sorted(t[0] for t in MEMBERS.values())
_bound = st.one_of(
    # exactly on a member's padded T, or one either side of it
    st.builds(lambda p, d: p + d, st.sampled_from(_PADDED), st.integers(-1, 1)),
    # anywhere in the table's span [60**3, 60**4)
    st.integers(60**3, 60**4 - 1),
    # outside it, on either side
    st.integers(-60**4, 60**3 - 1),
    st.integers(60**4, 2 * 60**4),
)
_KEEPS = dict(CRITERIA, buck1980=THEORIES["buck1980"][3])


class TestPairsFromTheIndex:
    """_four_place_index builds each pair through the builder from_triple
    uses: the pair must be the one from_triple builds."""

    def test_every_entry_with_a_tbar_equals_from_triple(self):
        _, index = _four_place_index()
        assert len(index) == 271
        for padded, *_, pair in index:
            triple = MEMBERS[pair.T.mantissa][1]
            assert _four_place_pairs(padded, padded, lambda *entry: True) == \
                [pair] == [ReciprocalPair.from_triple(triple)], triple

    def test_selections_share_the_index_pairs(self):
        # two selections hold the same pair objects, built once
        pairs = {id(pair) for *_, pair in _four_place_index()[1]}
        assert {id(p) for p in full_mult10()} <= pairs
        assert [id(p) for p in full_mult10()] == [id(p) for p in full_mult10()]

    def test_t_one_is_its_own_tbar(self):
        # Tbar = 1/T sits at places - 1 - k: one place right of T's first
        # digit everywhere but at T = 1, where k = 0
        (pair,) = _four_place_pairs(60**3, 60**3, lambda *entry: True)
        assert pair == ReciprocalPair.from_triple((0, 0, 0))
        assert pair.T.value == pair.Tbar.value == SexValue(1)


class TestBisectedIndex:
    """_four_place_pairs bisects an index sorted by padded T and visits
    only the entries of its range."""

    @pytest.mark.parametrize("lo,hi,members,visits", [
        (388800, 518400, 28, 21),  # 1;48 <= T <= 2;24, the tablet's range
        (60**3 + 1, 3 * 60**3, 95, 73),  # 1 < T <= 3, the (P, Q) theories' range
        (518400, 388800, 0, 0),
    ])
    def test_visits_only_the_range(self, lo, hi, members, visits):
        # of the members whose padded T is in the range (of all 432), only
        # those whose Tbar has at most four places have an entry (of 271)
        assert sum(lo <= p <= hi for p in _PADDED) == members
        assert sum(lo <= p <= hi for p in _four_place_index()[0]) == visits
        assert count_visits(lo, hi, CRITERIA["mult10"]) == visits

    @settings(max_examples=300, deadline=None)
    @given(keep=st.sampled_from(sorted(_KEEPS)), lo=_bound, hi=_bound)
    @example(keep="mult10", lo=388800, hi=518400)
    @example(keep="places4", lo=518400, hi=388800)
    @example(keep="bruins", lo=518400, hi=518400)
    @example(keep="buck1980", lo=60**3 + 1, hi=3 * 60**3)
    @example(keep="places4", lo=0, hi=60**3)
    @example(keep="places4", lo=60**4 - 1, hi=10**9)
    @example(keep="mult10", lo=-1, hi=10**9)
    def test_equals_a_scan_of_the_table(self, keep, lo, hi):
        assert _four_place_pairs(lo, hi, _KEEPS[keep]) == _scan(lo, hi, _KEEPS[keep])
