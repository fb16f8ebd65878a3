"""Exact arithmetic on terminating sexagesimal (base-60) numbers.

A value is a natural mantissa times a power of 60.  Two readings coexist:

* floating: the exponent is ignored, numbers are defined up to powers of 60
  (Old Babylonian notation has no units marker);
* fixed: the exponent places the units digit, so sums and differences
  are meaningful.

Canonical form strips factors of 60 from the mantissa into the exponent,
which makes floating equality a plain mantissa comparison.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter


class SexagesimalError(ValueError):
    """Malformed digit string or an operation leaving the domain."""


class _Value:
    """An immutable value whose fields are its ``__slots__``: built from all
    of them in slot order; equal and hashed by them within one type; copied
    and pickled by them.  Not a frozen dataclass, so that importing the
    package loads neither ``dataclasses`` nor ``inspect``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)
        # __init__ sets each field by its slot's own __set__, in slot order
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *args) -> None:
        if len(args) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(e, n // p**e) for the largest e with p**e dividing n > 0.  A pass
    strips p, p**2, p**4, ... while they divide: half or more of what is left."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
        q, k = p * p, 2
        while n % q == 0:
            n //= q
            e += k
            q, k = q * q, 2 * k
    return e, n


class SexValue(_Value):
    """A terminating sexagesimal number, mantissa * 60**exponent.

    Instances are always canonical: mantissa 0 implies exponent 0, and a
    nonzero mantissa is never divisible by 60.  Equality of the two fields
    is therefore fixed-reading equality, and equality of the mantissas is
    floating-reading equality.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0) -> None:
        if type(mantissa) is not int or type(exponent) is not int:  # bool too
            raise SexagesimalError(f"mantissa and exponent must be int, not "
                                   f"{type(mantissa).__name__} and {type(exponent).__name__}")
        if mantissa < 0:
            raise SexagesimalError("negative values are out of domain")
        _set_canonical(self, mantissa, exponent)

    @property
    def fraction(self) -> Fraction:
        """Fixed-reading value as an exact ``fractions.Fraction``."""
        import fractions
        return fractions.Fraction(*_ratio(self))

    def __str__(self) -> str:
        return render_sex(self)


_set_mantissa, _set_exponent = SexValue._setters  # module names: the class built most


def _set_canonical(v: SexValue, mantissa: int, exponent: int) -> None:
    """Set v's fields to mantissa * 60**exponent with the factors of 60
    stripped from the mantissa into the exponent."""
    if mantissa % 60 == 0:  # zero (exponent 0), or not canonical
        e, mantissa = _valuation(mantissa, 60) if mantissa else (-exponent, 0)
        exponent += e
    _set_mantissa(v, mantissa)
    _set_exponent(v, exponent)


def _canonical(mantissa: int, exponent: int) -> SexValue:
    """``SexValue(mantissa, exponent)`` without its checks, for the ints
    mantissa >= 0 and exponent that the library derived itself, never a
    caller's input: products, reciprocals, the members of a pair built from
    triples, a row's X, Y and A (``rows.build_row``) and the S and D that the
    CLI prints for a generated row."""
    v = object.__new__(SexValue)
    _set_canonical(v, mantissa, exponent)
    return v


ONE = SexValue(1)


def _ratio(v: SexValue) -> tuple[int, int]:
    """The fixed reading in lowest terms, (numerator, denominator)."""
    m, e = v.mantissa, v.exponent
    if e >= 0:  # an integer: no denominator to reduce
        return m * 60**e, 1
    den = 60**-e
    g = gcd(m, den)
    return m // g, den // g


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms as the fractions module writes it: n or n/d."""
    return str(num) if den == 1 else f"{num}/{den}"


def _from_ratio(num: int, den: int) -> SexValue:
    """num/den, den > 0, exactly: its lowest-terms denominator divides 60**64."""
    if num < 0:
        raise SexagesimalError("negative values are out of domain")
    g = gcd(num, den)
    num, den = num // g, den // g
    alpha, beta, gamma, cofactor = _split_2_3_5(den)
    k, triple = _complement(alpha, beta, gamma)
    if cofactor != 1 or k > 64:
        raise SexagesimalError(f"{_ratio_text(num, den)} has no terminating base-60 form")
    return SexValue(num * _product(*triple), -k)


def from_fraction(value: Fraction | int) -> SexValue:
    """Exact conversion; the denominator in lowest terms must divide 60**64.
    A float is refused (its binary value is rarely the number meant), and so is a bool."""
    if isinstance(value, (float, bool)):
        raise SexagesimalError(f"{value!r} is a {type(value).__name__}; pass an int or Fraction")
    import fractions  # cheaper per call than a from-import
    if type(value) is not fractions.Fraction:
        value = fractions.Fraction(value)
    return _from_ratio(*value.as_integer_ratio())


# each base-60 place below the leading one, two characters wide
_PLACES = tuple(f"{d:02d}" for d in range(60))
# the digit of each place render_sex writes, leading ones included
_PLACE_VALUE = {place: int(place) for place in _PLACES + tuple("0123456789")}


def _digit(tok: str) -> int:
    # str.isdigit also accepts non-ASCII digits such as "٢" and "²"
    if not (tok.isdigit() and tok.isascii()):
        raise SexagesimalError(f"bad digit token {tok!r}")
    try:
        d = int(tok)
    except ValueError:  # past the digits int() converts to an int
        raise SexagesimalError(f"digit token of {len(tok)} characters is too long") from None
    if d >= 60:
        raise SexagesimalError(f"digit {d} out of range 0..59")
    return d


def _parse_digits(text: str) -> list[int]:
    if not text:
        raise SexagesimalError("empty digit string")
    # a token not in the table, such as "007", takes the full check
    return [_PLACE_VALUE[tok] if tok in _PLACE_VALUE else _digit(tok)
            for tok in text.replace(":", " ").split(" ")]


def parse_sex(text: str, mode: str = "floating") -> SexValue:
    """Parse space- or colon-separated base-60 digits.

    In fixed mode an optional ";" marks the units place; with no marker the
    units place is the first digit.  Floating mode strips trailing zero
    digits into the exponent.
    """
    if not isinstance(text, str):
        raise SexagesimalError(f"digit text must be a str, not {type(text).__name__}")
    text = text.strip()
    if not text:
        raise SexagesimalError("empty input")
    if mode == "floating":
        if ";" in text:
            raise SexagesimalError("units marker ';' is a fixed-mode notation")
        digits = _parse_digits(text)
        frac_places = 0
    elif mode == "fixed":
        if text.count(";") > 1:
            raise SexagesimalError("multiple ';' markers")
        if ";" in text:
            int_part, frac_part = text.split(";")
            int_digits = _parse_digits(int_part.strip())
            # a trailing ";" marks an integer whose units sit at the last digit
            frac_digits = _parse_digits(frac_part.strip()) if frac_part.strip() else []
            digits = int_digits + frac_digits
            frac_places = len(frac_digits)
        else:
            digits = _parse_digits(text)
            frac_places = len(digits) - 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    mantissa = 0
    for d in digits:
        mantissa = mantissa * 60 + d
    return SexValue(mantissa, -frac_places)


def render_sex(v: SexValue) -> str:
    """Render the mantissa's base-60 digits, most significant first.

    The leading digit is unpadded, the others are two characters wide, all
    one space apart.  Round-trips with :func:`parse_sex` (floating reading).
    """
    if type(v) is not SexValue:
        raise SexagesimalError(f"rendering is defined for SexValues, not {type(v).__name__}")
    m = v.mantissa
    places = []
    while m >= 60:
        m, d = divmod(m, 60)
        places.append(_PLACES[d])
    places.append(str(m))
    places.reverse()
    return " ".join(places)


def mul(a: SexValue, b: SexValue) -> SexValue:
    if not (type(a) is type(b) is SexValue):
        raise SexagesimalError(f"a product is defined for SexValues, "
                               f"not {type(b if type(a) is SexValue else a).__name__}")
    return _canonical(a.mantissa * b.mantissa, a.exponent + b.exponent)


def _aligned(a: SexValue, b: SexValue) -> tuple[int, int, int]:
    e = min(a.exponent, b.exponent)
    return a.mantissa * 60 ** (a.exponent - e), b.mantissa * 60 ** (b.exponent - e), e


def _exceeds(a: SexValue, b: SexValue) -> bool:
    """a > b in the fixed reading, unaligned when the exponents are far apart:
    a mantissa m > 0 at exponent e lies in [60**e, 60**(e + m.bit_length()))."""
    if not (a.mantissa and b.mantissa):
        return a.mantissa > b.mantissa
    gap = a.exponent - b.exponent
    if not -a.mantissa.bit_length() < gap < b.mantissa.bit_length():
        return gap > 0
    ma, mb, _ = _aligned(a, b)
    return ma > mb


def sub(a: SexValue, b: SexValue) -> SexValue:
    if not (type(a) is type(b) is SexValue):
        raise SexagesimalError(f"a difference is defined for SexValues, "
                               f"not {type(b if type(a) is SexValue else a).__name__}")
    ma, mb, e = _aligned(a, b)
    if ma < mb:
        raise SexagesimalError("subtraction underflow")
    return SexValue(ma - mb, e)


class RegularNumber(_Value):
    """A SexValue whose canonical mantissa is 2**alpha * 3**beta * 5**gamma."""

    __slots__ = ("value", "alpha", "beta", "gamma")

    def __init__(self, value: SexValue, alpha: int, beta: int, gamma: int) -> None:
        set_value, set_alpha, set_beta, set_gamma = self._setters
        set_value(self, value)
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_gamma(self, gamma)

    @property
    def mantissa(self) -> int:
        return self.value.mantissa

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)


def _split_2_3_5(n: int) -> tuple[int, int, int, int]:
    """The exponents of 2, 3 and 5 in n > 0, and its cofactor prime to 30."""
    alpha = (n & -n).bit_length() - 1
    beta, n = _valuation(n >> alpha, 3)
    gamma, n = _valuation(n, 5)
    return alpha, beta, gamma, n


def factor_2_3_5(n: int) -> tuple[int, int, int] | None:
    """Exponent triple of n when n is 60-smooth, else None."""
    if type(n) is not int:  # bool too
        raise SexagesimalError(f"factorization is defined for ints, not {type(n).__name__}")
    if n <= 0:
        return None
    alpha, beta, gamma, cofactor = _split_2_3_5(n)
    return (alpha, beta, gamma) if cofactor == 1 else None


def is_regular(v: SexValue) -> RegularNumber | None:
    """The exponent triple of the canonical mantissa, or None if a prime
    factor other than 2, 3, 5 divides it."""
    if type(v) is not SexValue:
        raise SexagesimalError(f"regularity is defined for SexValues, not {type(v).__name__}")
    if v.mantissa <= 0:
        raise SexagesimalError("regularity is defined for positive values")
    triple = factor_2_3_5(v.mantissa)
    return None if triple is None else RegularNumber(v, *triple)


def regular_from_int(n: int) -> RegularNumber:
    r = is_regular(SexValue(n))
    if r is None:
        raise SexagesimalError(f"{n} is not regular")
    return r


def _complement(alpha: int, beta: int, gamma: int) -> tuple[int, tuple[int, int, int]]:
    """The package's one reciprocal formula.  For r = 2**alpha * 3**beta *
    5**gamma, all three >= 0: the least k with r dividing 60**k, which is
    max(ceil(alpha/2), beta, gamma), and the triple (2k - alpha, k - beta,
    k - gamma) of 60**k / r, r's reciprocal up to powers of 60, a power
    product, so no mantissa is divided, and canonical, as k is least."""
    k = max((alpha + 1) // 2, beta, gamma)
    return k, (2 * k - alpha, k - beta, k - gamma)


def _product(alpha: int, beta: int, gamma: int) -> int:
    """2**alpha * 3**beta * 5**gamma, all three exponents >= 0."""
    return 3**beta * 5**gamma << alpha


def reciprocal(r: RegularNumber) -> RegularNumber:
    """The unique regular s with floating product r*s = 1, from r's triple
    by :func:`_complement`.  A triple of other than three ints >= 0 is
    refused."""
    if type(r) is not RegularNumber:
        raise SexagesimalError(f"a reciprocal is defined for RegularNumbers, not {type(r).__name__}")
    a, b, c = r.triple
    if not (type(a) is type(b) is type(c) is int and min(a, b, c) >= 0):  # bool too
        raise SexagesimalError(f"an exponent triple must be three ints >= 0, not {r.triple!r}")
    _, triple = _complement(a, b, c)
    return RegularNumber(_canonical(_product(*triple), 0), *triple)
