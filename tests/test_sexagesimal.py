import inspect
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plimpton import sexagesimal
from plimpton.sexagesimal import (
    RegularNumber,
    SexValue,
    SexagesimalError,
    _canonical,
    _digit,
    _exceeds,
    _ratio,
    _valuation,
    factor_2_3_5,
    from_fraction,
    is_regular,
    mul,
    parse_sex,
    reciprocal,
    regular_from_int,
    render_sex,
    sub,
)
from bench_oracle import oracle


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


def traced(fn, call) -> tuple[int, Counter]:
    """(calls, lines): how often ``fn`` is entered while ``call()`` runs, and
    how often each line of its source runs, keyed by the line's text."""
    lines, first = inspect.getsourcelines(fn)
    code, calls, ran = fn.__code__, 0, Counter()

    def on_line(frame, event, arg):
        if event == "line":
            ran[lines[frame.f_lineno - first].strip()] += 1
        return on_line

    def on_call(frame, event, arg):
        nonlocal calls
        if frame.f_code is not code:
            return None
        calls += 1
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(previous)
    return calls, ran


def valuation_passes(call) -> int:
    """How often the loop bodies of ``_valuation`` run while ``call()`` runs:
    each body starts with its one division."""
    _, ran = traced(_valuation, call)
    return sum(n for line, n in ran.items() if line.startswith("n //="))


def outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as e:  # SexagesimalError among them
        return type(e), str(e)


def naive_valuation(n: int, p: int) -> tuple[int, int]:
    """One division per factor, as factor_2_3_5 and _split_base60 did."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def loop_from_fraction(value) -> SexValue:
    """from_fraction as one multiplication by 60 per place, up to 64."""
    f = Fraction(value)
    if f < 0:
        raise SexagesimalError("negative values are out of domain")
    k = 0
    num, den = f.numerator, f.denominator
    while num % den:
        num *= 60
        k += 1
        if k > 64:
            raise SexagesimalError(f"{f} has no terminating base-60 form")
    return SexValue(num // den, -k)


class _FractionSubclass(Fraction):
    """Read by from_fraction as the Fraction it is."""


def tokenwise_parse_digits(text: str) -> list[int]:
    """_parse_digits with every token checked alone, without the table."""
    if not text:
        raise SexagesimalError("empty digit string")
    digits = []
    ascii_text = text.isascii()
    for tok in re.split(r"[ :]", text):
        if not (tok.isdigit() and (ascii_text or tok.isascii())):
            raise SexagesimalError(f"bad digit token {tok!r}")
        try:
            d = int(tok)
        except ValueError:
            raise SexagesimalError(
                f"digit token of {len(tok)} characters is too long") from None
        if d >= 60:
            raise SexagesimalError(f"digit {d} out of range 0..59")
        digits.append(d)
    return digits


class Power:
    """p**e held as e, with the arithmetic _valuation does on it and a count
    of its divisions, so the passes over a huge e cost no big division."""

    __slots__ = ("e",)
    divisions = 0

    def __init__(self, e: int) -> None:
        self.e = e

    def __mod__(self, q: "Power") -> int:
        return 0 if q.e <= self.e else 1

    def __floordiv__(self, q: "Power") -> "Power":
        Power.divisions += 1
        return Power(self.e - q.e)

    def __mul__(self, other: "Power") -> "Power":
        return Power(self.e + other.e)


def power_passes(e: int) -> int:
    """The loop bodies _valuation runs on p**e, one division each."""
    Power.divisions = 0
    found, rest = _valuation(Power(e), Power(1))
    assert (found, rest.e) == (e, 0)
    return Power.divisions


LARGE_PRIME = 2**127 - 1


class TestValuation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000),
           st.sampled_from([1, 7, LARGE_PRIME, 7 * LARGE_PRIME]))
    @example(0, 0, 0, 1)
    @example(2000, 2000, 2000, 7 * LARGE_PRIME)
    def test_matches_one_division_per_factor(self, a, b, c, r):
        n = 2**a * 3**b * 5**c * r
        for p in (2, 3, 5, 60):
            assert _valuation(n, p) == naive_valuation(n, p), p
        assert factor_2_3_5(n) == ((a, b, c) if r == 1 else None)
        # the canonical form against stripping one factor of 60 per step
        e60, m60 = naive_valuation(n, 60)
        assert SexValue(n, -7) == SexValue(m60, e60 - 7)

    def test_passes_below_two_to_the_sixteen(self):
        # every exponent below 2**12, and the worst of those below 2**16
        assert max(power_passes(e) for e in range(2**12)) <= 121
        assert power_passes(2**16 - 16) == 121
        assert power_passes(2**16 - 1) == 16

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2**12, 2**16 - 1))
    def test_passes_bounded_for_every_exponent_below_two_to_the_sixteen(self, e):
        assert power_passes(e) <= 121

    def test_counted_passes_on_a_real_power(self):
        # the symbolic count agrees with a line tracer on the real function
        n = 3**40000
        assert valuation_passes(lambda: _valuation(n, 3)) == power_passes(40000) == 58

    def test_trailing_sixty_factors_move_to_exponent(self):
        assert SexValue(3600) == SexValue(1, 2)
        assert SexValue(120, -1) == SexValue(2, 0)

    def test_zero_is_unique(self):
        assert SexValue(0, 5) == SexValue(0)

    def test_negative_mantissa_rejected(self):
        with pytest.raises(SexagesimalError):
            SexValue(-1)

    @pytest.mark.parametrize("mantissa, exponent", [
        (0.5, 0), (2.0, 0), (True, 0), (False, 0), (Fraction(1, 2), 0),
        (Decimal(1), 0), ("1", 0), (None, 0),
        (1, 0.5), (1, True), (1, False), (1, Fraction(1)), (1, None),
    ])
    def test_only_int_fields(self, mantissa, exponent):
        # a bool is an int to Python, but True is not a digit
        with pytest.raises(SexagesimalError, match="must be int"):
            SexValue(mantissa, exponent)

    def test_refusal_names_types_not_digits(self):
        # a long int's digits would exceed the int string conversion limit
        with pytest.raises(SexagesimalError, match="not int and float"):
            SexValue(10**5000, -0.5)

    def test_refused_bool_does_not_render(self):
        # True used to build, and render_sex printed "True"
        with pytest.raises(SexagesimalError):
            render_sex(SexValue(True))

    @given(st.integers(1, 10**12), st.integers(-6, 6))
    def test_canonical_mantissa_never_divisible_by_60(self, m, e):
        v = SexValue(m, e)
        assert v.mantissa % 60 != 0
        assert v.fraction == Fraction(m) * Fraction(60) ** e

    @given(st.integers(0, 10**12), st.integers(0, 4), st.integers(-9, 9))
    @example(0, 0, 5)
    @example(7, 3, -2)
    def test_unchecked_builder_matches_the_constructor(self, m, k, e):
        # the library's own builder strips 60**k as the checking one does
        v = _canonical(m * 60**k, e)
        assert (type(v), v) == (SexValue, SexValue(m * 60**k, e))
        assert v.mantissa % 60 != 0 or v == SexValue(0)
        assert v.fraction == Fraction(m * 60**k) * Fraction(60) ** e

    @given(st.integers(0, 10**12), st.integers(-5, 5))
    @example(59, -1)
    @example(3600, -1)
    @example(0, 0)
    def test_ratio_is_the_fraction_in_lowest_terms(self, m, e):
        value = Fraction(m) * Fraction(60) ** e
        assert _ratio(SexValue(m, e)) == (value.numerator, value.denominator)

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

    @pytest.mark.parametrize("text", [None, 125, b"2 05", ["2", "05"]])
    @pytest.mark.parametrize("mode", ["floating", "fixed"])
    def test_parse_non_text_is_a_domain_error(self, text, mode):
        with pytest.raises(SexagesimalError, match="digit text must be a str"):
            parse_sex(text, mode)

    def test_parse_fixed_units_marker(self):
        assert parse_sex("2;24", "fixed").fraction == Fraction(12, 5)
        assert parse_sex("1;48", "fixed").fraction == Fraction(9, 5)
        # without a marker, the first digit is the units place
        assert parse_sex("2 24", "fixed").fraction == Fraction(12, 5)

    @pytest.mark.parametrize("bad", ["", "  ", "60", "1 99", "x", "1;;2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(SexagesimalError):
            parse_sex(bad, "fixed")

    @pytest.mark.parametrize("text, mode, error, match", [
        (";30", "fixed", SexagesimalError, "^empty digit string$"),  # no units digit
        ("1 2", "octal", ValueError, "^unknown mode 'octal'$"),
    ])
    def test_parse_names_what_it_refuses(self, text, mode, error, match):
        with pytest.raises(error, match=match):
            parse_sex(text, mode)

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
        # the table-driven renderer against the benchmark oracle's naive join
        v = SexValue(m)
        assert render_sex(v) == oracle.render(v.mantissa)

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
    def test_mul_sub_match_fractions(self, ma, mb, ea, eb):
        a, b = SexValue(ma, ea), SexValue(mb, eb)
        assert mul(a, b).fraction == a.fraction * b.fraction
        lo, hi = sorted((a, b), key=lambda v: v.fraction)
        assert sub(hi, lo).fraction == hi.fraction - lo.fraction

    _far = st.builds(SexValue, st.integers(0, 60**5), st.integers(-40, 40))

    @settings(max_examples=300, deadline=None)
    @given(_far, _far)
    @example(SexValue(1, 1), SexValue(63))  # 63 = 1 03: bit_length 6
    @example(SexValue(63, -5), SexValue(1, 0))
    @example(SexValue(1, 6), SexValue(63))
    @example(SexValue(0), SexValue(1, -40))
    def test_order_check_matches_fractions(self, a, b):
        assert _exceeds(a, b) is (a.fraction > b.fraction)

    def test_sub_underflow(self):
        with pytest.raises(SexagesimalError):
            sub(SexValue(1), SexValue(2))

    @given(st.integers(0, 10**9), st.integers(-4, 4))
    def test_half_is_exact(self, m, e):
        # 1/2 terminates in base 60: 0;30, the half X and Y are taken with
        v = SexValue(m, e)
        half = mul(v, SexValue(30, -1))
        assert half.fraction * 2 == v.fraction
        assert mul(half, SexValue(2)) == v

    def test_from_fraction(self):
        assert from_fraction(Fraction(12, 5)) == SexValue(144, -1)
        with pytest.raises(SexagesimalError):
            from_fraction(Fraction(1, 7))

    @pytest.mark.parametrize("value", [Fraction(1, 10), Decimal("0.1"), "0.1", "1/10"])
    def test_exact_tenth_is_six_sixtieths(self, value):
        assert from_fraction(value) == parse_sex("0;06", "fixed")

    @pytest.mark.parametrize("value", [0.1, 0.5, 2.0, -0.5])
    def test_float_is_refused(self, value):
        # 0.1 as a double is 3602879701896397/2**55, 28 places long
        with pytest.raises(SexagesimalError, match="is a float"):
            from_fraction(value)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_refused(self, value):
        # True was read as SexValue(1) and False as SexValue(0)
        with pytest.raises(SexagesimalError, match="is a bool"):
            from_fraction(value)


class TestRegulars:
    def test_factor_2_3_5(self):
        assert factor_2_3_5(512000) == (12, 0, 3)
        assert factor_2_3_5(7) is None
        assert factor_2_3_5(1) == (0, 0, 0)
        assert factor_2_3_5(0) is None and factor_2_3_5(-8) is None

    def test_is_regular_uses_canonical_mantissa(self):
        assert is_regular(SexValue(7 * 60)) is None
        r = is_regular(SexValue(45))
        assert r.triple == (0, 2, 1)

    def test_zero_and_non_regular_values_are_refused(self):
        with pytest.raises(SexagesimalError, match="^regularity is defined for positive values$"):
            is_regular(SexValue(0))
        with pytest.raises(SexagesimalError, match="^7 is not regular$"):
            regular_from_int(7)

    @pytest.mark.parametrize("n", [0.5, 2.0, True, False, Fraction(2), Decimal(2), "2", None])
    def test_factor_2_3_5_takes_only_an_int(self, n):
        # True factored as (0, 0, 0) and 0.5 raised TypeError
        with pytest.raises(SexagesimalError, match="defined for ints"):
            factor_2_3_5(n)

    @pytest.mark.parametrize("v", [2, 0.5, True, Fraction(2), "2", None])
    def test_is_regular_takes_only_a_sexvalue(self, v):
        # an int raised AttributeError
        with pytest.raises(SexagesimalError, match="defined for SexValues"):
            is_regular(v)

    @pytest.mark.parametrize("r", [SexValue(2), 2, (1, 0, 0), None])
    def test_reciprocal_takes_only_a_regular_number(self, r):
        # SexValue(2) and 2 raised AttributeError
        with pytest.raises(SexagesimalError, match="defined for RegularNumbers"):
            reciprocal(r)

    @pytest.mark.parametrize("triple", [(0, -1, 0), (True, 0, 0), (1.5, 0, 0), (-4, -1, -1)])
    def test_reciprocal_refuses_a_bad_triple(self, triple):
        # (0, -1, 0) gave mantissa 1 with the triple (0, 1, 0), and
        # (True, 0, 0) 1 with (1, 1, 1); (1.5, 0, 0) and (-4, -1, -1) raised
        # only because 60**k turned into a float
        with pytest.raises(SexagesimalError, match="three ints >= 0"):
            reciprocal(RegularNumber(SexValue(1), *triple))

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


class TestClosedFormFromFraction:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(0, 140), st.integers(0, 70),
           st.integers(0, 70), st.sampled_from([1, 1, 7, 49, LARGE_PRIME]))
    @example(1, 128, 0, 0, 1)   # 64 places: the last that passes
    @example(1, 129, 0, 0, 1)   # 65 places: raises
    @example(7, 0, 64, 64, 1)
    @example(0, 0, 0, 0, 7)
    @example(-1, 1, 0, 0, 1)
    def test_matches_one_place_per_step(self, num, a, b, c, r):
        value = Fraction(num, 2**a * 3**b * 5**c * r)
        assert outcome(from_fraction, value) == outcome(loop_from_fraction, value)
        # an integer argument too
        assert outcome(from_fraction, num) == outcome(loop_from_fraction, num)

    @pytest.mark.parametrize("value", [
        0, 7, -3, 10**30, Fraction(12, 5), Fraction(1, 7), Fraction(-1, 2),
        _FractionSubclass(1, 2), _FractionSubclass(1, 7), _FractionSubclass(-5, 4),
        Decimal("0.1"), Decimal("2.5"), Decimal("1E-70"), Decimal("-1"), Decimal("NaN"),
        Decimal("Infinity"), "1/10", " 3/4 ", "0.125", "1/7", "-2", "abc", "", None, [1],
    ], ids=repr)
    def test_each_accepted_type_reads_as_its_fraction(self, value):
        # whatever Fraction(value) reads, a Fraction subclass included, gives
        # the same value, and whatever it refuses, the same error
        def result(fn):
            try:
                return fn(value)
            except (ValueError, TypeError, OverflowError) as e:
                return type(e), str(e)
        assert result(from_fraction) == result(loop_from_fraction)

    def test_the_cap_is_unchanged(self):
        assert from_fraction(Fraction(1, 2**128)) == SexValue(15**64, -64)
        with pytest.raises(SexagesimalError, match="no terminating base-60 form"):
            from_fraction(Fraction(1, 2**129))

    def test_no_loop_over_places(self):
        # no line of from_fraction runs twice, whatever the place count
        for value in (Fraction(1, 2), Fraction(1, 2**128), Fraction(7, 60**64),
                      Fraction(1, 7), Fraction(1, 2**129), 5):
            calls, ran = traced(from_fraction, lambda: outcome(from_fraction, value))
            assert calls == 1 and max(ran.values()) == 1, value


_TOKENS = st.one_of(
    st.sampled_from(["007", "", "\t", "1\t2", "\u0662", "\u00b2", "60", "59",
                     "0", "00", "05", "5", "x", "1" * 5000, "0" * 5000]),
    st.integers(0, 99).map(str),
    st.integers(0, 59).map("{:02d}".format),
)
_DIGIT_TEXT = st.builds(
    lambda toks, seps: "".join(t + s for t, s in zip(toks, seps)) + toks[-1],
    st.lists(_TOKENS, min_size=1, max_size=8),
    st.lists(st.sampled_from([" ", ":"]), min_size=8, max_size=8))


class TestTableParse:
    @settings(max_examples=300, deadline=None)
    @given(_DIGIT_TEXT, st.one_of(st.none(), _DIGIT_TEXT),
           st.sampled_from(["floating", "fixed"]))
    @example("007 1:05", None, "floating")
    @example("1  2", None, "fixed")
    @example("1 60 \u0662", None, "floating")
    @example("1" * 5000, "00", "fixed")
    def test_matches_the_tokenwise_check(self, text, frac, mode):
        # a fractional part after ";" for the fixed reading
        if frac is not None:
            text = f"{text};{frac}"
        got = outcome(parse_sex, text, mode)
        with mock.patch.object(sexagesimal, "_parse_digits", tokenwise_parse_digits):
            assert got == outcome(parse_sex, text, mode)

    @given(st.one_of(st.integers(0, 60**3), st.integers(0, 60**80)))
    @example(0)
    @example(59)
    @example(60**80 - 1)
    def test_rendered_digits_skip_the_tokenwise_check(self, m):
        text = render_sex(SexValue(m))
        calls, _ = traced(_digit, lambda: parse_sex(text))
        assert calls == 0
        # while a token outside the table takes it
        assert traced(_digit, lambda: parse_sex(text + " 007"))[0] == 1
