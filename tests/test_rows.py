from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plimpton.hypotheses import TABLE1_PQ, generate
from plimpton.pairs import ReciprocalPair, _four_place_pairs
from plimpton.rows import (
    RowCandidate,
    XYPair,
    build_row,
    column_A,
    reduce_factorization,
    xy_from_pair,
)
from plimpton.sexagesimal import (
    RegularNumber,
    SexValue,
    SexagesimalError,
    factor_2_3_5,
    from_fraction,
    mul,
    parse_sex,
    reciprocal,
    regular_from_int,
    render_sex,
    sub,
)
from test_pairs import regular_mantissas

ROW1 = ReciprocalPair.from_T_mantissa(144)       # (2 24, 25)
ROW11 = ReciprocalPair.from_T_mantissa(2)        # (2, 30)
ROW4 = ReciprocalPair.from_T_mantissa(500000)    # (2 18 53 20, 25 55 12)


class TestXY:
    def test_half_difference_half_sum(self):
        xy = xy_from_pair(ROW1)
        assert xy.x.fraction == Fraction(12, 5) / 2 - Fraction(5, 12) / 2
        assert xy.y.fraction == Fraction(12, 5) / 2 + Fraction(5, 12) / 2

    def test_defining_identity(self):
        for m in (144, 2, 500000, 512000, 108):
            xy = xy_from_pair(ReciprocalPair.from_T_mantissa(m))
            assert xy.y.fraction ** 2 - xy.x.fraction ** 2 == 1

    def test_degenerate_unit_pair_rejected(self):
        with pytest.raises(SexagesimalError, match="orientation"):
            xy_from_pair(ReciprocalPair.from_T_mantissa(1))

    def test_orientation_is_compared_in_the_fixed_reading(self):
        # (2, 30): Tbar's mantissa is the larger, its fixed value 1/2 is not
        assert xy_from_pair(ROW11).x == SexValue(45, -1)
        for p in (ROW1, ROW11, ROW4):
            with pytest.raises(SexagesimalError, match="orientation"):
                xy_from_pair(ReciprocalPair(p.Tbar, p.T))


class TestReduction:
    def test_row1(self):
        s, d, factor = reduce_factorization(xy_from_pair(ROW1))
        assert (s, d) == (119, 169)
        assert factor == 30
        assert gcd(s, d) == 1

    def test_row11_reduces_to_3_5(self):
        s, d, factor = reduce_factorization(xy_from_pair(ROW11))
        assert (s, d, factor) == (3, 5, 15)

    def test_degenerate_isosceles_rejected(self):
        with pytest.raises(SexagesimalError):
            reduce_factorization(XYPair(SexValue(0), SexValue(1)))

    @given(st.integers(0, 8), st.integers(0, 5), st.integers(0, 4),
           st.integers(1, 400))
    def test_invariant_under_regular_prescaling(self, a, b, c, seed):
        # scaling (X, Y) by any regular factor must not change (S, D)
        ms = regular_mantissas(2)
        m = ms[seed % len(ms)]
        if m == 1:
            m = 144
        pair = ReciprocalPair.from_T_mantissa(m)
        xy = xy_from_pair(pair)
        scale = SexValue(2**a * 3**b * 5**c)
        scaled = XYPair(mul(xy.x, scale), mul(xy.y, scale))
        assert reduce_factorization(xy)[:2] == reduce_factorization(scaled)[:2]


class TestColumnA:
    def test_row4_eight_place_value(self):
        xy = xy_from_pair(ROW4)
        a = column_A(xy)
        assert render_sex(a) == "1 53 10 29 32 52 16"
        assert sub(a, mul(xy.x, xy.x)) == SexValue(1)

    def test_a_is_y_squared(self):
        xy = xy_from_pair(ROW1)
        assert column_A(xy) == mul(xy.y, xy.y)


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
                xy_from_pair(pair)
            return
        s, d, _ = reduce_factorization(xy_from_pair(pair))
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
        # (2 24, 30) multiplies to 1;12, not 1: Y**2 - X**2 != 1.  An
        # explicit raise, so the check holds under python -O as well.
        bad = ReciprocalPair(ROW1.T, ROW11.Tbar)
        with pytest.raises(SexagesimalError, match="not a reciprocal pair"):
            build_row(bad, 1, reduction)


# X, Y and A computed in Fractions from T and Tbar's exact values: the
# reference of the integer construction, which reads X and Y off one
# aligned pair.

def _composed_xy(p):
    t, tbar = p.T.value.fraction, p.Tbar.value.fraction
    if tbar >= t:
        raise SexagesimalError("pair is not in T > Tbar orientation")
    return (t - tbar) / 2, (t + tbar) / 2


def _fractions(xy):
    return xy.x.fraction, xy.y.fraction


def _composed_row(p, n, reduction):
    """build_row as the composition xy_from_pair -> reduce_factorization ->
    column_A, which aligns three times, with X, Y and A checked against
    Fractions; S, D and the factor are cast out of the X and Y that match."""
    x, y = _composed_xy(p)
    if y * y - x * x != 1:
        raise SexagesimalError(f"{p} is not a reciprocal pair: Y**2 - X**2 != 1")
    xy = xy_from_pair(p)
    a = column_A(xy)
    assert _fractions(xy) == (x, y) and a.fraction == y * y
    s, d, factor = reduce_factorization(xy)
    if reduction == "tablet_faithful" and s * factor < 3600 and d * factor < 3600:
        return RowCandidate(n, p, xy, s * factor, d * factor, a, 1, False)
    return RowCandidate(n, p, xy, s, d, a, factor, True)


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
        xy = xy_from_pair(p)
        assert _fractions(xy) == _composed_xy(p)
        assert column_A(xy).fraction == xy.y.fraction ** 2
        assert build_row(p, 7, reduction) == _composed_row(p, 7, reduction)

    @pytest.mark.parametrize("reduction", ["full", "tablet_faithful"])
    def test_every_four_place_pair(self, reduction):
        # the 271 whose Tbar has four places too; (1, 1) has no orientation
        pairs = _four_place_pairs(60**3, 60**4 - 1, lambda t, tbar: True)
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

    @pytest.mark.parametrize("pair", [
        ReciprocalPair(ROW1.Tbar, ROW1.T),                # swapped
        ReciprocalPair(ROW4.Tbar, ROW4.T),
        ReciprocalPair(ROW1.T, ROW1.T),                   # (T, T)
        ReciprocalPair.from_T_mantissa(1),                # (1, 1)
        ReciprocalPair(ROW1.T, ROW11.Tbar),               # T * Tbar = 1;12
        ReciprocalPair(ROW4.T, ROW1.Tbar),
        ReciprocalPair(ROW11.Tbar, ROW1.Tbar),            # not reciprocal, swapped
        # T = 2 00 and Tbar = 1 00: aligned at exponent 1, product 2 00 00
        ReciprocalPair(RegularNumber(SexValue(2, 1), 1, 0, 0),
                       RegularNumber(SexValue(1, 1), 0, 0, 0)),
        # aligned exponent 400: the check is on integers, not 60**-800
        ReciprocalPair(RegularNumber(SexValue(3, 401), 0, 1, 0),
                       RegularNumber(SexValue(2, 400), 1, 0, 0)),
    ])
    @pytest.mark.parametrize("reduction", ["full", "tablet_faithful"])
    def test_bad_pairs_raise_as_before(self, pair, reduction):
        expected = _raised(_composed_row, pair, 1, reduction)
        assert _raised(build_row, pair, 1, reduction) == expected
        assert expected[0] is SexagesimalError
