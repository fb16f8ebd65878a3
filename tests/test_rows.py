from collections import namedtuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plimpton.hypotheses import TABLE1_PQ, generate
from plimpton.pairs import ReciprocalPair, _four_place_pairs
from plimpton.rows import RowCandidate, build_row
from plimpton.sexagesimal import (
    RegularNumber,
    SexValue,
    SexagesimalError,
    factor_2_3_5,
    mul,
    reciprocal,
    regular_from_int,
    render_sex,
    sub,
)
from bench_oracle import oracle

ROW1 = ReciprocalPair.from_T_mantissa(144)       # (2 24, 25)
ROW11 = ReciprocalPair.from_T_mantissa(2)        # (2, 30)
ROW4 = ReciprocalPair.from_T_mantissa(500000)    # (2 18 53 20, 25 55 12)
UNIT = ReciprocalPair.from_T_mantissa(1)         # (1, 1)


class TestXY:
    def test_half_difference_half_sum(self):
        row = build_row(ROW1)
        assert row.x.fraction == Fraction(12, 5) / 2 - Fraction(5, 12) / 2
        assert row.y.fraction == Fraction(12, 5) / 2 + Fraction(5, 12) / 2

    def test_defining_identity(self):
        for m in (144, 2, 500000, 512000, 108):
            row = build_row(ReciprocalPair.from_T_mantissa(m))
            assert row.y.fraction ** 2 - row.x.fraction ** 2 == 1

    def test_degenerate_unit_pair_rejected(self):
        # (1, 1) would give X = 0: refused by orientation
        with pytest.raises(SexagesimalError, match="orientation"):
            build_row(ReciprocalPair.from_T_mantissa(1))

    def test_orientation_is_compared_in_the_fixed_reading(self):
        # (2, 30): Tbar's mantissa is the larger, its fixed value 1/2 is not
        assert build_row(ROW11).x == SexValue(45, -1)
        for p in (ROW1, ROW11, ROW4):
            with pytest.raises(SexagesimalError, match="orientation"):
                build_row(ReciprocalPair(p.Tbar, p.T))


def gcd_reduced(x, y):
    """(X, Y), two Fractions, as integers at a common denominator,
    divided by their gcd: the coprime (S, D) of any pair (k X, k Y)."""
    den = x.denominator * y.denominator
    mx, my = int(x * den), int(y * den)
    g = gcd(mx, my)
    return mx // g, my // g


class TestReduction:
    def test_row1(self):
        row = build_row(ROW1)
        assert (row.s, row.d) == (119, 169)
        assert row.reduction_factor == 30
        assert gcd(row.s, row.d) == 1

    def test_row11_reduces_to_3_5(self):
        row = build_row(ROW11)
        assert (row.s, row.d, row.reduction_factor) == (3, 5, 15)

    @given(st.integers(0, 8), st.integers(0, 5), st.integers(0, 4),
           st.integers(1, 400))
    def test_invariant_under_regular_prescaling(self, a, b, c, seed):
        # scaling (X, Y) by any regular factor must not change (S, D)
        ms = oracle.regular_mantissas(60**2)
        m = ms[seed % len(ms)]
        if m == 1:
            m = 144
        row = build_row(ReciprocalPair.from_T_mantissa(m))
        k = 2**a * 3**b * 5**c
        assert (row.s, row.d) == gcd_reduced(k * row.x.fraction, k * row.y.fraction)


class TestColumnA:
    def test_row4_eight_place_value(self):
        row = build_row(ROW4)
        assert render_sex(row.a) == "1 53 10 29 32 52 16"
        assert sub(row.a, mul(row.x, row.x)) == SexValue(1)

    def test_a_is_y_squared(self):
        row = build_row(ROW1)
        assert row.a == mul(row.y, row.y)


def pq_pair(p, q):
    """The pair of T = P/Q, P and Q regular: T's triple is P's minus Q's.
    The test-local (P, Q) route, against which the one enumeration's rows
    are checked."""
    return ReciprocalPair.from_triple(
        tuple(e - f for e, f in zip(factor_2_3_5(p), factor_2_3_5(q))))


class TestPQ:
    def test_triple_formulas_on_table1_rows(self):
        rows = generate("ns1945")
        assert [r.pair for r in rows] == [pq_pair(p, q) for p, q in TABLE1_PQ]
        for row, (p, q) in zip(rows, TABLE1_PQ):
            assert (row.s, row.d) == (p * p - q * q, p * p + q * q)
            assert row.reduction_factor == 1 and row.reduced == (gcd(row.s, row.d) == 1)
            assert row.s ** 2 + (2 * p * q) ** 2 == row.d ** 2
        assert (rows[0].s, rows[0].d) == (119, 169)    # (12, 5): L = 120
        assert (rows[10].s, rows[10].d) == (3, 5)      # (2, 1): L = 4

    def test_pq_route(self):
        assert pq_pair(12, 5).T.mantissa == 144
        assert pq_pair(9, 5).T.mantissa == 108

    def test_pq_route_matches_reciprocal_route(self):
        # reference: T = P * recip(Q) by SexValue arithmetic, then the pair
        # of that mantissa; every coprime regular P > Q with Q < 100, P <= 3Q
        regs = [n for n in range(1, 300) if factor_2_3_5(n) is not None]
        compared = 0
        for q in (n for n in regs if n < 100):
            for p in (n for n in regs if q < n <= 3 * q and gcd(n, q) == 1):
                t = mul(SexValue(p), reciprocal(regular_from_int(q)).value)
                assert pq_pair(p, q) == \
                    ReciprocalPair.from_T_mantissa(t.mantissa), (p, q)
                compared += 1
        assert compared == 63

    @example(60, 1)
    @given(st.integers(1, 60), st.integers(1, 60))
    def test_pq_route_matches_xy_route(self, p, q):
        if p <= q or factor_2_3_5(p) is None or factor_2_3_5(q) is None:
            return
        pair = pq_pair(p, q)
        if p == 60 * q:  # P/Q = 60, the one power of 60 in range: no triple
            assert pair.T.mantissa == 1
            with pytest.raises(SexagesimalError, match="orientation"):
                build_row(pair)
            return
        row = build_row(pair)
        s, d = row.s, row.d
        l, ps, pd = 2 * p * q, p * p - q * q, p * p + q * q
        g = gcd(ps, pd)
        assert (s, d) == (ps // g, pd // g)
        assert ps * ps + l * l == pd * pd


class TestBuildRow:
    def test_full_always_reduces(self):
        row = build_row(ROW11, 11, "full")
        assert (row.s, row.d) == (3, 5)
        assert row.reduction_factor == 15
        assert row.reduced

    def test_tablet_faithful_keeps_small_mantissas(self):
        row = build_row(ROW11, 11, "tablet_faithful")
        assert (row.s, row.d) == (45, 75)
        assert not row.reduced
        assert render_sex(SexValue(row.d)) == "1 15"

    def test_tablet_faithful_reduces_large_mantissas(self):
        row = build_row(ROW4, 4, "tablet_faithful")
        assert (row.s, row.d) == (12709, 18541)
        assert row.reduced

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_row(ROW1, 1, "partial")

    @pytest.mark.parametrize("reduction", ["full", "tablet_faithful"])
    def test_non_reciprocal_pair_rejected(self, reduction):
        # (2 24, 30) multiplies to 1;12, not 1: Y**2 - X**2 != 1.  The pair
        # is refused where it is built, by an explicit raise that holds
        # under python -O as well, so no row is built from it.
        with pytest.raises(SexagesimalError, match="not a reciprocal pair"):
            build_row(ReciprocalPair(ROW1.T, ROW11.Tbar), 1, reduction)


# X, Y, A, S, D and the factor computed in Fractions from T and Tbar's
# exact values: the reference of build_row's integer construction, which
# reads them off one aligned pair.

def _composed_xy(p):
    t, tbar = p.T.value.fraction, p.Tbar.value.fraction
    if tbar >= t:
        raise SexagesimalError("pair is not in T > Tbar orientation")
    return (t - tbar) / 2, (t + tbar) / 2


def _fractions(row):
    return row.x.fraction, row.y.fraction


def _sex(f):
    """A terminating Fraction as a SexValue: its denominator 2**a 3**b 5**c
    has a, b, c below its bit length k, so it divides 60**k."""
    k = f.denominator.bit_length()
    return SexValue(f.numerator * 60**k // f.denominator, -k)


def _composed_row(p, n, reduction):
    """A pair's construction and build_row composed in Fractions, from any p
    with members T and Tbar: refused where Y**2 - X**2 != 1, then X and Y
    from T and Tbar, A = Y**2, (S, D) as X/Y in lowest terms, and the factor
    X / S at the lesser of X's and Y's canonical exponents."""
    t, tbar = p.T.value.fraction, p.Tbar.value.fraction
    if ((t + tbar) / 2) ** 2 - ((t - tbar) / 2) ** 2 != 1:
        raise SexagesimalError("(T, T̄) is not a reciprocal pair")
    x, y = _composed_xy(p)
    sx, sy, a = _sex(x), _sex(y), _sex(y * y)
    s, d = gcd_reduced(x, y)
    factor = x / s / Fraction(60) ** min(sx.exponent, sy.exponent)
    assert factor.denominator == 1
    factor = int(factor)
    if reduction == "tablet_faithful" and s * factor < 3600 and d * factor < 3600:
        return RowCandidate(n, p, sx, sy, s * factor, d * factor, a, 1, False)
    return RowCandidate(n, p, sx, sy, s, d, a, factor, True)


# two members, read as a pair is, with no pair built from them
Members = namedtuple("Members", "T Tbar")


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


_wide = st.integers(-2000, 2000)


class TestAgainstTheComposition:
    @settings(deadline=None)
    @given(st.tuples(_wide, _wide, _wide),
           st.sampled_from(["full", "tablet_faithful"]))
    @example((2, 0, 0), "full")
    @example((0, 0, 2), "tablet_faithful")
    @example((-1, 0, 0), "full")
    def test_rows_of_pairs_from_triples(self, triple, reduction):
        p = ReciprocalPair.from_triple(triple)
        assume(p.T.mantissa != 1)
        row = build_row(p, 7, reduction)
        assert _fractions(row) == _composed_xy(p)
        assert row.a.fraction == row.y.fraction ** 2
        assert row == _composed_row(p, 7, reduction)

    @pytest.mark.parametrize("reduction", ["full", "tablet_faithful"])
    def test_every_four_place_pair(self, reduction):
        # the 271 whose Tbar has four places too; (1, 1) has no orientation
        pairs = _four_place_pairs(60**3, 60**4 - 1, lambda *entry: True)
        assert len(pairs) == 271
        for n, p in enumerate(pairs, 1):
            if p.T.mantissa == 1:
                assert _raised(build_row, p, n, reduction) == \
                    _raised(_composed_row, p, n, reduction)
            else:
                assert build_row(p, n, reduction) == _composed_row(p, n, reduction), p

    @pytest.mark.parametrize("reduction", ["full", "tablet_faithful"])
    def test_generated_rows(self, reduction):
        for tag in ("phillips", "friberg2007", "buck1980"):
            for row in generate(tag, reduction):
                assert row == _composed_row(row.pair, row.n, reduction)

    @pytest.mark.parametrize("members, refusal", [
        ((ROW1.Tbar, ROW1.T), "orientation"),                # swapped
        ((ROW4.Tbar, ROW4.T), "orientation"),
        ((ROW1.T, ROW1.T), "not a reciprocal pair"),        # (T, T)
        ((UNIT.T, UNIT.Tbar), "orientation"),                # (1, 1)
        ((ROW1.T, ROW11.Tbar), "not a reciprocal pair"),    # T * Tbar = 1;12
        ((ROW4.T, ROW1.Tbar), "not a reciprocal pair"),
        ((ROW11.Tbar, ROW1.Tbar), "not a reciprocal pair"),  # not reciprocal, swapped
        ((ROW1.Tbar, ROW11.T), "not a reciprocal pair"),    # not reciprocal, Tbar > T
        # T = 2 00 and Tbar = 1 00: aligned at exponent 1, product 2 00 00
        ((RegularNumber(SexValue(2, 1), 1, 0, 0),
          RegularNumber(SexValue(1, 1), 0, 0, 0)), "not a reciprocal pair"),
        # aligned exponent 400: the check is on integers, not 60**-800
        ((RegularNumber(SexValue(3, 401), 0, 1, 0),
          RegularNumber(SexValue(2, 400), 1, 0, 0)), "not a reciprocal pair"),
        # floating product 1, fixed product 60: the lattice classes cancel
        ((regular_from_int(2), regular_from_int(30)), "not a reciprocal pair"),
    ])
    @pytest.mark.parametrize("reduction", ["full", "tablet_faithful"])
    def test_bad_pairs_raise_as_before(self, members, refusal, reduction):
        # the reference reads the two members before any pair is built; the
        # library refuses a pair where it is built, an orientation in build_row
        expected = _raised(_composed_row, Members(*members), 1, reduction)
        assert _raised(lambda: build_row(ReciprocalPair(*members), 1, reduction)) == expected
        assert expected[0] is SexagesimalError and refusal in expected[1]
