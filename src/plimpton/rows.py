"""From reciprocal pairs to tablet rows.

A reciprocal pair (T, Tbar) gives X = (T - Tbar)/2, Y = (T + Tbar)/2; the
coprime short side and diagonal fall out of casting common regular factors
out of (X, Y).
"""

from __future__ import annotations

from math import gcd

from .pairs import ReciprocalPair
from .sexagesimal import SexValue, SexagesimalError, _aligned, _Value, mul


class XYPair(_Value):
    """Fixed-reading pair with Y**2 - X**2 = 1 exactly."""

    __slots__ = ("x", "y")


class RowCandidate(_Value):
    __slots__ = ("n", "pair", "xy", "s", "d", "a", "reduction_factor", "reduced")
    _defaults = {"reduced": True}  # False when the scribal small-number form is kept


def _xy(p: ReciprocalPair) -> tuple[int, int, int, int, int, XYPair]:
    """(mt, mtbar, e, mx, my, xy): T and Tbar as integers at one exponent e;
    X = (T - Tbar)/2 and Y = (T + Tbar)/2 at e - 1, where a half is 30."""
    mt, mtbar, e = _aligned(p.T.value, p.Tbar.value)
    if mtbar >= mt:
        raise SexagesimalError("pair is not in T > Tbar orientation")
    mx, my = 30 * (mt - mtbar), 30 * (mt + mtbar)
    return mt, mtbar, e, mx, my, XYPair(SexValue(mx, e - 1), SexValue(my, e - 1))


def xy_from_pair(p: ReciprocalPair) -> XYPair:
    """X = (T - Tbar)/2, Y = (T + Tbar)/2, exact in the fixed reading."""
    return _xy(p)[-1]


def reduce_factorization(xy: XYPair) -> tuple[int, int, int]:
    """Cast common regular factors out of (X, Y).

    Returns (S, D, factor): the mantissas at a common exponent divided by
    their gcd.  Any common factor of X and Y divides both T = X + Y and
    Tbar = Y - X and is therefore regular, so S and D end up coprime.
    """
    if xy.x.mantissa == 0:
        raise SexagesimalError("degenerate isosceles pair: X = 0")
    mx, my, _ = _aligned(xy.x, xy.y)
    factor = gcd(mx, my)
    return mx // factor, my // factor, factor


def column_A(xy: XYPair) -> SexValue:
    """A = Y**2, which is X**2 + 1."""
    return mul(xy.y, xy.y)


# A scribe working in two-place cells has no reason to reduce numbers that
# already fit; row 11 keeps (45, 1 15).  This is a labeled reconstruction,
# not an attested rule.
_SCRIBAL_PLACE_LIMIT = 60**2


def build_row(p: ReciprocalPair, n: int = 0,
              reduction: str = "full") -> RowCandidate:
    """The X/Y step, the factor reduction and column A, from one aligned
    pair: equal to composing xy_from_pair, reduce_factorization and column_A.

    ``reduction="tablet_faithful"`` keeps the unreduced mantissas whenever
    both already fit in two places; ``"full"`` always reduces.
    """
    if reduction not in ("full", "tablet_faithful"):
        raise ValueError(f"unknown reduction mode {reduction!r}")
    mt, mtbar, e, mx, my, xy = _xy(p)
    # Y**2 - X**2 = T * Tbar = mt * mtbar * 60**(2e): 1 only when e <= 0
    if e > 0 or mt * mtbar != 60 ** (-2 * e):
        raise SexagesimalError(f"{p} is not a reciprocal pair: Y**2 - X**2 != 1")
    # the factor is X and Y's gcd at the lesser of their canonical exponents
    g = gcd(mx, my)
    s, d, factor = mx // g, my // g, g // 60 ** (min(xy.x.exponent, xy.y.exponent) + 1 - e)
    a = column_A(xy)
    if (reduction == "tablet_faithful" and s * factor < _SCRIBAL_PLACE_LIMIT
            and d * factor < _SCRIBAL_PLACE_LIMIT):
        return RowCandidate(n, p, xy, s * factor, d * factor, a, 1, False)
    return RowCandidate(n, p, xy, s, d, a, factor, True)
