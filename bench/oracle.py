"""The benchmark's own arithmetic, independent of the package under test.

Everything here works on plain integers and ``Fraction``s and imports
nothing from ``plimpton``: the checks in ``checks.py`` compare the program's
outputs with these computations, never with saved output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

TABLET_LOW = Fraction(9, 5)  # 1;48, the tablet's last T
TABLET_HIGH = Fraction(12, 5)  # 2;24, the tablet's first T
FOUR_PLACES = 60**4
SCRIBAL_LIMIT = 60**2  # two-place cells: the unreduced form is kept below it


def factor235(n: int) -> tuple[int, int, int] | None:
    """Exponents (a, b, c) with n == 2**a * 3**b * 5**c, or None."""
    if n <= 0:
        return None
    exps = []
    for p in (2, 3, 5):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps.append(e)
    return tuple(exps) if n == 1 else None


def strip60(n: int) -> int:
    while n and n % 60 == 0:
        n //= 60
    return n


def digits60(n: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, 60)
        out.append(d)
    return out[::-1] or [0]


def render(n: int) -> str:
    """Digit string in the package's notation: '2 05', '1 00 45'."""
    return " ".join(str(d) if i == 0 else f"{d:02d}"
                    for i, d in enumerate(digits60(n)))


def parse(text: str) -> int:
    n = 0
    for tok in text.replace(":", " ").split(" "):
        d = int(tok)
        if not 0 <= d < 60:
            raise ValueError(f"digit {d} out of range")
        n = n * 60 + d
    return n


def places(n: int) -> int:
    return len(digits60(n))


def floating_mantissa(f: Fraction) -> int:
    """The value up to powers of 60: the integer, not divisible by 60, that
    differs from f by a power of 60.  f must terminate in base 60."""
    num, den = f.numerator, f.denominator
    for _ in range(4 * den.bit_length() + 1):
        if num % den == 0:
            return strip60(num // den)
        num *= 60
    raise ValueError(f"{f} does not terminate in base 60")


def split60(f: Fraction) -> tuple[int, int]:
    """(m, e) with f == m * 60**e and m a whole number not divisible by 60."""
    m = floating_mantissa(f)
    r, e = f / m, 0
    while r > 1:
        r /= 60
        e += 1
    while r < 1:
        r *= 60
        e -= 1
    return m, e


def reciprocal_places(m: int) -> int:
    """Smallest k with 60**k divisible by m: the places 1/m needs."""
    k, p = 0, 1
    while p % m:
        p *= 60
        k += 1
        if k > 4 * m.bit_length() + 1:
            raise ValueError(f"{m} is not regular")
    return k


def is_power_of_60(n: int) -> bool:
    return n > 0 and strip60(n) == 1


# ---------------------------------------------------------------------------
# Reciprocal pairs, by brute force over exponent triples

def regular_mantissas(limit: int = FOUR_PLACES) -> list[int]:
    """Every n < limit with only the prime factors 2, 3, 5 and not divisible
    by 60, ascending."""
    out = []
    a_max = limit.bit_length()
    for a in range(a_max + 1):
        for b in range(a_max + 1):
            for c in range(a_max + 1):
                n = 2**a * 3**b * 5**c
                if n >= limit:
                    break
                if n % 60:
                    out.append(n)
    return sorted(out)


def pair_of(m: int) -> tuple[Fraction, Fraction]:
    """(T, Tbar) in the fixed reading: T has its units place at its first
    digit and T * Tbar == 1."""
    t = Fraction(m, 60 ** (places(m) - 1))
    return t, 1 / t


def _mult10(m: int) -> bool:
    p = places(m)
    return p <= 4 and (m * 60 ** (4 - p)) % 10 == 0


def _bruins_excluded(tm: int, tbm: int) -> bool:
    def one_sided(x, y):
        return sum(factor235(x)) > 13 and factor235(y)[2] > 3
    return one_sided(tm, tbm) or one_sided(tbm, tm)


def criterion_holds(kind: str, t: Fraction) -> bool:
    """kind is the CLI's --criterion: mult10, places4 or bruins."""
    tm, tbm = floating_mantissa(t), floating_mantissa(1 / t)
    if kind == "mult10":
        return _mult10(tm) and _mult10(tbm)
    four = places(tm) <= 4 and places(tbm) <= 4
    if kind == "places4":
        return four
    if kind == "bruins":
        return four and not _bruins_excluded(tm, tbm)
    raise ValueError(kind)


def pairs_between(kind: str, low: Fraction, high: Fraction,
                  low_inclusive: bool = True,
                  high_inclusive: bool = True) -> list[tuple[Fraction, Fraction]]:
    """Pairs of four-place T passing the criterion with T in the range, by
    decreasing T."""
    out = []
    for m in regular_mantissas():
        t, tbar = pair_of(m)
        if ((low <= t if low_inclusive else low < t)
                and (t <= high if high_inclusive else t < high)
                and criterion_holds(kind, t)):
            out.append((t, tbar))
    return sorted(out, reverse=True)


def extension_pairs(side: str) -> list[tuple[Fraction, Fraction]]:
    """The multiple-of-10 pairs next to the fifteen rows: 24 above the first
    row ("lower", the negative labels) and 28 below the last ("upper")."""
    if side == "lower":
        above = pairs_between("mult10", TABLET_HIGH, Fraction(60), False, False)
        return above[-24:]
    below = pairs_between("mult10", Fraction(1), TABLET_LOW, False, False)
    return below[:28]


# ---------------------------------------------------------------------------
# Rows

def build_row(t: Fraction, tbar: Fraction, reduction: str) -> dict:
    """X, Y, A and the short side and diagonal (S, D) of the row generated by
    the pair.  ``reduction`` is the CLI's --reduction."""
    x, y = (t - tbar) / 2, (t + tbar) / 2
    (mx, ex), (my, ey) = split60(x), split60(y)
    e = min(ex, ey)  # the common exponent: both mantissas whole numbers
    mx, my = mx * 60 ** (ex - e), my * 60 ** (ey - e)
    unreduced = (reduction == "tablet-faithful"
                 and mx < SCRIBAL_LIMIT and my < SCRIBAL_LIMIT)
    g = 1 if unreduced else gcd(mx, my)
    return {"T": t, "Tbar": tbar, "X": x, "Y": y, "A": y * y,
            "S": mx // g, "D": my // g, "unreduced": unreduced}


def tablet_rows(edition: str) -> list[dict]:
    """The fifteen attested rows (A, S, D), rebuilt from the fifteen
    multiple-of-10 pairs under the tablet-faithful reduction.  The Robson
    edition reads exactly these values; the Joyce edition differs only in
    row 15, where it keeps the written S = 56 and corrects D to 1 46."""
    rows = [build_row(t, tbar, "tablet-faithful")
            for t, tbar in pairs_between("mult10", TABLET_LOW, TABLET_HIGH)]
    out = [{"A": r["A"], "S": r["S"], "D": r["D"]} for r in rows]
    if edition == "joyce":
        out[14] = dict(out[14], S=56, D=106)
    return out


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def classify_error(written: int, corrected: int) -> str:
    """The scribal-error kinds: the square of the right value, one digit
    wrong, or neither."""
    if written == corrected * corrected:
        return "square_of_correct"
    wd, cd = digits60(written), digits60(corrected)
    if len(wd) == len(cd) and sum(a != b for a, b in zip(wd, cd)) == 1:
        return "digit_slip"
    return "unclassified"


# ---------------------------------------------------------------------------
# Links to the standard reciprocal table, in closed form

def _class(triple: tuple[int, int, int]) -> tuple[int, int]:
    # The state of a pair up to powers of 60: multiplying by 60 adds
    # (2, 1, 1) to the exponents and leaves (a - 2c, b - c) unchanged.
    a, b, c = triple
    return a - 2 * c, b - c


def standard_mantissas() -> frozenset[int]:
    """Regular numbers 2 through 81 but 60, as mantissas."""
    return frozenset(strip60(n) for n in range(2, 82)
                     if n != 60 and factor235(n) is not None)


def _standard_classes() -> frozenset[tuple[int, int]]:
    out = set()
    for m in standard_mantissas():
        d1, d2 = _class(factor235(m))
        out.update({(d1, d2), (-d1, -d2)})  # the reciprocal has the opposite class
    return frozenset(out)


_STANDARD_CLASSES = _standard_classes()


def link_depth(m: int) -> int:
    """Fewest doublings, triplings and quintuplings (or their inverses)
    linking the pair of T mantissa m to the standard table:
    min over standard classes of min over k of |d1 + 2k| + |d2 + k| + |k|."""
    t1, t2 = _class(factor235(m))
    best = None
    for s1, s2 in _STANDARD_CLASSES:
        d1, d2 = t1 - s1, t2 - s2
        # convex and piecewise linear in k: the minimum sits at a breakpoint
        w = min(abs(d1 + 2 * k) + abs(d2 + k) + abs(k)
                for k in (-d1 // 2, (1 - d1) // 2, -d2, 0))
        best = w if best is None else min(best, w)
    return best


def replay_link(start_t: int, factor: tuple[int, int, int]) -> int:
    """Mantissa of start_t * 2**a * 3**b * 5**c, up to powers of 60."""
    f = Fraction(start_t)
    for p, e in zip((2, 3, 5), factor):
        f *= Fraction(p) ** e
    return floating_mantissa(f)
