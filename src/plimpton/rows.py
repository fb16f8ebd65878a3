"""From reciprocal pairs to tablet rows.

A reciprocal pair (T, Tbar) gives X = (T - Tbar)/2, Y = (T + Tbar)/2; the
coprime short side and diagonal fall out of casting common regular factors
out of (X, Y); :func:`build_row` derives the whole row.
"""

from __future__ import annotations

from math import gcd

from .pairs import ReciprocalPair
from .sexagesimal import SexagesimalError, SexValue, _aligned, _canonical, _Value


class RowCandidate(_Value):
    """One tablet row, its fields in derivation order; ``reduced`` is False
    when the scribal small-number form is kept.  A row built by
    :func:`build_row` has Y**2 - X**2 = 1; the public constructor checks
    nothing of the kind."""

    __slots__ = ("n", "pair", "x", "y", "s", "d", "a", "reduction_factor", "reduced")


_set_n, _set_pair, _set_x, _set_y, _set_s, _set_d, _set_a, _set_factor, _set_reduced = \
    RowCandidate._setters


def _candidate(n: int, p: ReciprocalPair, x: SexValue, y: SexValue, s: int, d: int,
               a: SexValue, factor: int, reduced: bool) -> RowCandidate:
    """``RowCandidate(n, p, x, y, s, d, a, factor, reduced)`` set slot by
    slot, in order, without the generic loop: the one row builder, for the
    fields a row rule derived itself."""
    row = object.__new__(RowCandidate)
    _set_n(row, n)
    _set_pair(row, p)
    _set_x(row, x)
    _set_y(row, y)
    _set_s(row, s)
    _set_d(row, d)
    _set_a(row, a)
    _set_factor(row, factor)
    _set_reduced(row, reduced)
    return row


# A scribe working in two-place cells has no reason to reduce numbers that
# already fit; row 11 keeps (45, 1 15).  This is a labeled reconstruction,
# not an attested rule.
_SCRIBAL_PLACE_LIMIT = 60**2


def build_row(p: ReciprocalPair, n: int = 0,
              reduction: str = "full") -> RowCandidate:
    """The X/Y step, the factor reduction and column A = Y**2, from one
    aligned pair with T > Tbar; Y**2 - X**2 = T * Tbar = 1 by the pair's
    type.  Any common factor of X and Y divides both T = X + Y and Tbar =
    Y - X and is therefore regular, so S and D end up coprime.

    ``reduction="tablet_faithful"`` keeps the unreduced mantissas whenever
    both already fit in two places; ``"full"`` always reduces.
    """
    if reduction not in ("full", "tablet_faithful"):
        raise ValueError(f"unknown reduction mode {reduction!r}")
    if type(p) is not ReciprocalPair:
        raise SexagesimalError(f"a row is built from a ReciprocalPair, not {type(p).__name__}")
    mt, mtbar, e = _aligned(p.T.value, p.Tbar.value)  # T, Tbar at one exponent e
    if mtbar >= mt:
        raise SexagesimalError("pair is not in T > Tbar orientation")
    mx, my = 30 * (mt - mtbar), 30 * (mt + mtbar)  # X, Y at e - 1: a half is 30
    x, y = _canonical(mx, e - 1), _canonical(my, e - 1)
    # the factor is X and Y's gcd at the lesser of their canonical exponents
    g = gcd(mx, my)
    s, d, factor = mx // g, my // g, g // 60 ** (min(x.exponent, y.exponent) + 1 - e)
    a = _canonical(y.mantissa * y.mantissa, 2 * y.exponent)  # A = Y**2
    if (reduction == "tablet_faithful" and s * factor < _SCRIBAL_PLACE_LIMIT
            and d * factor < _SCRIBAL_PLACE_LIMIT):
        return _candidate(n, p, x, y, s * factor, d * factor, a, 1, False)
    return _candidate(n, p, x, y, s, d, a, factor, True)
