from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from plimpton.sexagesimal import (
    ONE,
    ZERO,
    SexValue,
    SexagesimalError,
    add,
    factor_2_3_5,
    from_fraction,
    halve,
    is_regular,
    mul,
    parse_sex,
    reciprocal,
    regular_from_int,
    render_sex,
    sqrt_exact,
    sub,
)


def _places(n: int, count: int) -> list[str]:
    """At least ``count`` base-60 places of n, two characters each."""
    out = []
    while n or len(out) < count:
        n, d = divmod(n, 60)
        out.append(f"{d:02d}")
    return out[::-1]


def render_fixed(v: SexValue) -> str:
    """The fixed reading written out, as ``parse_sex(..., "fixed")`` reads
    it: the integer places (the leading one unpadded), then ";" and one
    place per negative power of 60."""
    frac = max(-v.exponent, 0)
    whole, part = divmod(v.mantissa * 60 ** max(v.exponent, 0), 60**frac)
    text = " ".join(_places(whole, 1)).lstrip("0") or "0"
    return text + ";" + " ".join(_places(part, frac)) if frac else text


class TestCanonicalForm:
    def test_trailing_sixty_factors_move_to_exponent(self):
        assert SexValue(3600) == SexValue(1, 2)
        assert SexValue(120, -1) == SexValue(2, 0)

    def test_zero_is_unique(self):
        assert SexValue(0, 5) == ZERO

    def test_negative_mantissa_rejected(self):
        with pytest.raises(SexagesimalError):
            SexValue(-1)

    @given(st.integers(1, 10**12), st.integers(-6, 6))
    def test_canonical_mantissa_never_divisible_by_60(self, m, e):
        v = SexValue(m, e)
        assert v.mantissa % 60 != 0
        assert v.fraction == Fraction(m) * Fraction(60) ** e

    def test_floating_eq_ignores_exponent(self):
        # floating equality is equality of the canonical mantissas
        assert SexValue(125, -2).mantissa == SexValue(125, 3).mantissa
        assert SexValue(7500, -2).mantissa == SexValue(125).mantissa
        assert SexValue(125).mantissa != SexValue(126).mantissa


class TestParseRender:
    @pytest.mark.parametrize("text,mantissa", [
        ("1", 1), ("2 05", 125), ("28 48", 1728),
        ("1 06 40", 4000), ("2:22:13:20", 512000),
    ])
    def test_parse_floating(self, text, mantissa):
        assert parse_sex(text).mantissa == mantissa

    def test_parse_fixed_units_marker(self):
        assert parse_sex("2;24", "fixed").fraction == Fraction(12, 5)
        assert parse_sex("1;48", "fixed").fraction == Fraction(9, 5)
        # without a marker, the first digit is the units place
        assert parse_sex("2 24", "fixed").fraction == Fraction(12, 5)

    @pytest.mark.parametrize("bad", ["", "  ", "60", "1 99", "x", "1;;2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(SexagesimalError):
            parse_sex(bad, "fixed")

    # Arabic-Indic 12, mathematical bold 7, superscript 2, fullwidth 12:
    # str.isdigit accepts them all, int() reads the first two as 12 and 7
    @pytest.mark.parametrize("digits", ["\u0661\u0662", "\U0001d7df", "\u00b2",
                                        "\uff11\uff12"])
    def test_parse_accepts_ascii_digits_only(self, digits):
        for text, mode in ((digits, "floating"), (digits, "fixed"),
                           (f"1 {digits}", "floating"), (f"{digits};30", "fixed"),
                           (f"1;{digits}", "fixed")):
            with pytest.raises(SexagesimalError, match="bad digit token"):
                parse_sex(text, mode)

    def test_marker_invalid_in_floating_mode(self):
        with pytest.raises(SexagesimalError):
            parse_sex("2;24")

    def test_render_interior_digits_two_wide(self):
        assert render_sex(SexValue(4000)) == "1 06 40"
        assert render_sex(SexValue(25921)) == "7 12 01"
        assert render_sex(SexValue(1)) == "1"

    def test_render_fixed(self):
        assert render_fixed(SexValue(144, -1)) == "2;24"
        assert render_fixed(SexValue(119, -2)) == "0;01 59"
        assert render_fixed(SexValue(225, 1)) == "3 45 00"
        # and the fixed parser reads each back
        assert parse_sex("2;24", "fixed") == SexValue(144, -1)
        assert parse_sex("0;01 59", "fixed") == SexValue(119, -2)
        assert parse_sex("3 45 00;", "fixed") == SexValue(225, 1)

    @given(st.integers(1, 60**8))
    def test_round_trip(self, m):
        # floating rendering works on the equivalence class
        v = SexValue(m)
        assert parse_sex(render_sex(v)).mantissa == v.mantissa

    @given(st.one_of(st.integers(0, 59), st.integers(0, 60**80)))
    @example(0)
    @example(59)
    @example(60**2 + 1)  # an interior quotient of exactly 60
    @example(60**80 - 1)
    def test_render_matches_the_digit_join(self, m):
        # the table-driven renderer against the naive join of digits()
        v = SexValue(m)
        naive = " ".join(str(d) if i == 0 else f"{d:02d}"
                         for i, d in enumerate(v.digits()))
        assert render_sex(v) == naive

    @given(st.integers(1, 60**6), st.integers(-4, 0))
    def test_round_trip_fixed(self, m, e):
        # the marker-free reading puts the units at the first digit, so the
        # round trip is guaranteed for values below 60 (one integer place)
        v = SexValue(m, e)
        assume(v.fraction < 60)
        assert parse_sex(render_fixed(v), "fixed") == v

    @given(st.integers(1, 60**4), st.integers(0, 3))
    def test_nonnegative_exponent_fixed_form_reparses_floating(self, m, e):
        # values with trailing zero places render as padded integers,
        # which the floating parser recovers exactly
        v = SexValue(m, e)
        assert parse_sex(render_fixed(v)) == v


class TestArithmetic:
    @given(st.integers(0, 10**9), st.integers(0, 10**9),
           st.integers(-4, 4), st.integers(-4, 4))
    def test_mul_add_match_fractions(self, ma, mb, ea, eb):
        a, b = SexValue(ma, ea), SexValue(mb, eb)
        assert mul(a, b).fraction == a.fraction * b.fraction
        assert add(a, b).fraction == a.fraction + b.fraction

    def test_sub_underflow(self):
        with pytest.raises(SexagesimalError):
            sub(SexValue(1), SexValue(2))

    @given(st.integers(0, 10**9), st.integers(-4, 4))
    def test_halve_is_exact(self, m, e):
        v = SexValue(m, e)
        assert add(halve(v), halve(v)) == v

    def test_from_fraction(self):
        assert from_fraction(Fraction(12, 5)) == SexValue(144, -1)
        with pytest.raises(SexagesimalError):
            from_fraction(Fraction(1, 7))


class TestRegulars:
    def test_factor_2_3_5(self):
        assert factor_2_3_5(512000) == (12, 0, 3)
        assert factor_2_3_5(7) is None
        assert factor_2_3_5(1) == (0, 0, 0)

    def test_is_regular_uses_canonical_mantissa(self):
        assert is_regular(SexValue(7 * 60)) is None
        r = is_regular(SexValue(45))
        assert r.triple == (0, 2, 1)

    @pytest.mark.parametrize("n,recip_m", [
        (1, 1), (2, 30), (3, 20), (48, 75), (81, 160000),
        (125, 1728), (512000, 91125),
    ])
    def test_reciprocal(self, n, recip_m):
        assert reciprocal(regular_from_int(n)).mantissa == recip_m

    @given(st.integers(0, 12), st.integers(0, 8), st.integers(0, 6))
    def test_reciprocal_floating_product_is_one(self, a, b, c):
        r = regular_from_int(2**a * 3**b * 5**c)
        recip = reciprocal(r)
        product = mul(r.value, recip.value)
        assert product.mantissa == 1
        assert recip.value.exponent == 0
        assert recip.triple == factor_2_3_5(recip.mantissa)


class TestSqrt:
    def test_sqrt_exact(self):
        assert sqrt_exact(SexValue(13500 * 13500)) == SexValue(13500)
        assert sqrt_exact(ONE) == ONE
        assert sqrt_exact(SexValue(2)) is None
        # 1 00 is not a perfect square in the fixed reading
        assert sqrt_exact(SexValue(1, 1)) is None

    @given(st.integers(1, 10**6), st.integers(-3, 3))
    def test_sqrt_squares(self, m, e):
        v = SexValue(m, e)
        assert sqrt_exact(mul(v, v)) == v
