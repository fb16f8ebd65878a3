"""The three workloads: their inputs, one operation each, and its check.

Building a workload makes its inputs from the seed and imports nothing from
``plimpton``; ``bind`` hands it the package's modules.  Operations look the
package's functions up on those modules at call time, so the wrappers the
traced run installs are seen.

A workload exposes ``batches``: lists of inputs timed together.  Every
round runs every batch once, in a seeded order.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import checks
import oracle as O

FORMATS = ("text", "json", "csv")
HYPOTHESES = ("ns1945", "bruins1949", "price1964", "buck1980",
              "friberg1981", "friberg2007", "phillips")
FIFTEEN_ROW_HYPOTHESES = ("ns1945", "phillips", "bruins1949", "friberg1981", "buck1980")
EDITIONS = ("joyce", "robson")
TABLET_RANGE = ["--from", "1;48", "--to", "2;24"]

LINK_DEPTH_CAP = 5

ARITH_VALUES = 6000  # distinct values per run whose reciprocal fits 64 places
ARITH_FAULTS = 120  # fixed values whose reciprocal needs 65 to 80 places
ARITH_BATCH = 8
# exponent ranges: 2**128, 3**64 and 5**64 are the largest factors whose
# reciprocal still fits 64 places; the faulty values' reciprocals need up to 80
ARITH_RANGES = (128, 64, 64)
ARITH_FAULT_RANGES = (160, 80, 80)


def reproduce_commands() -> list[list[str]]:
    """The paper's reproduction as CLI commands, each in every format."""
    base = [["rows", "--hypothesis", h, "--reduction", r]
            for h in HYPOTHESES for r in ("full", "tablet-faithful")]
    base += [["pairs", "--criterion", c, *TABLET_RANGE]
             for c in ("mult10", "places4", "bruins")]
    base += [["extend", "--side", s] for s in ("lower", "upper")]
    base += [["tablet", sub, "--edition", e]
             for sub in ("verify", "errors") for e in EDITIONS]
    base += [["tablet", "diff", "--hypothesis", h, "--edition", e, "--matching", m]
             for h in FIFTEEN_ROW_HYPOTHESES for e in EDITIONS
             for m in ("exact", "similarity")]
    return [argv + ["--format", f] for argv in base for f in FORMATS]


class Workload:
    name: str
    batches: list[list]

    def fingerprint(self, result):
        """What later rounds must repeat of a checked output."""
        return result

    def is_fault(self, op, exc) -> bool:
        """Whether exc is the known fault this operation fails with."""
        return False


class Reproduce(Workload):
    name = "reproduce"

    def __init__(self, seed: int):
        self.batches = [[argv] for argv in reproduce_commands()]
        self.checker = checks.ReproduceChecker(self.run)

    def bind(self, package) -> None:
        self.cli = package.cli

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def check(self, argv, result) -> None:
        self.checker.check(argv, *result)


class Link(Workload):
    name = "link"

    def __init__(self, seed: int):
        mantissas = [m for m in O.regular_mantissas()
                     if O.link_depth(m) <= LINK_DEPTH_CAP]
        random.Random(seed).shuffle(mantissas)
        self.batches = [[m] for m in mantissas]

    def bind(self, package) -> None:
        self.pairs, self.hypotheses = package.pairs, package.hypotheses

    def run(self, m):
        pair = self.pairs.ReciprocalPair.from_T_mantissa(m)
        return pair, self.hypotheses.link_to_standard(pair)

    def check(self, m, result) -> None:
        checks.check_link(m, *result)

    def fingerprint(self, result):
        pair, chain = result
        return (pair.T.mantissa, pair.Tbar.mantissa,
                chain.start.T.mantissa, chain.start.Tbar.mantissa, chain.factor)


def _draw_values(rng: random.Random, count: int, ranges, keep) -> list[int]:
    """Distinct values 2**a 3**b 5**c (distinct up to powers of 60)."""
    seen, out = set(), []
    while len(out) < count:
        n = 2 ** rng.randint(0, ranges[0]) * 3 ** rng.randint(0, ranges[1]) * 5 ** rng.randint(0, ranges[2])
        m = O.strip60(n)
        if m not in seen and keep(m):
            seen.add(m)
            out.append(n)
    return out


def arith_fault_values() -> list[int]:
    """The values whose reciprocal needs more than 64 places.  They do not
    depend on the seed, so every run fails the same share of operations."""
    return _draw_values(random.Random("arith-faults"), ARITH_FAULTS, ARITH_FAULT_RANGES,
                        lambda m: O.reciprocal_places(m) > checks.MAX_FROM_FRACTION_PLACES)


class Arith(Workload):
    name = "arith"

    def __init__(self, seed: int):
        faults = arith_fault_values()
        # within these ranges every reciprocal fits 64 places, so no value
        # drawn here is one of the faults
        values = _draw_values(random.Random(seed), ARITH_VALUES, ARITH_RANGES, lambda m: True)
        self.value_of = {}
        texts = []
        for n in values + faults:
            text = O.render(n)
            self.value_of[text] = n
            texts.append(text)
        # faulty values get batches of their own, so the timed batches hold
        # only operations that complete
        cut = len(values)
        self.batches = [texts[i:i + ARITH_BATCH] for i in range(0, cut, ARITH_BATCH)]
        self.batches += [texts[i:i + ARITH_BATCH] for i in range(cut, len(texts), ARITH_BATCH)]

    def bind(self, package) -> None:
        self.sx = package.sexagesimal

    def run(self, text):
        sx = self.sx
        v = sx.parse_sex(text)
        r = sx.is_regular(v)
        recip = sx.reciprocal(r)
        rendered = sx.render_sex(recip.value)
        return v, r, recip, rendered, sx.from_fraction(Fraction(1, v.mantissa))

    def check(self, text, result) -> None:
        checks.check_arith(self.value_of[text], text, *result)

    def fingerprint(self, result):
        v, r, recip, rendered, from_frac = result
        return (v.mantissa, v.exponent, r.alpha, r.beta, r.gamma, recip.mantissa,
                recip.value.exponent, rendered, from_frac.mantissa, from_frac.exponent)

    def is_fault(self, text, exc) -> bool:
        return checks.arith_fault(self.value_of[text], exc)


WORKLOADS = {w.name: w for w in (Reproduce, Link, Arith)}
