"""Checks of the program's outputs against ``oracle`` and against properties
the method must have.  Each check raises ``CheckError`` on a wrong answer."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd

import oracle as O

MAX_FROM_FRACTION_PLACES = 64  # from_fraction gives up beyond this many places


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def value(cell: dict) -> Fraction:
    """The exact value of a json value cell, checked against its digits."""
    f = Fraction(int(cell["numerator"]), int(cell["denominator"]))
    expect(f > 0 and O.render(O.floating_mantissa(f)) == cell["digits"],
           f"digits {cell['digits']!r} do not spell {f}")
    return f


# ---------------------------------------------------------------------------
# reproduce: one CLI command per operation

COLUMNS = {
    "rows": ["A", "S", "D", "label"],
    "pairs": ["T", "Tbar"],
    "extend": ["label", "T", "Tbar"],
    "verify": ["label", "property", "status", "failing_rows"],
    "diff": ["label", "status", "ratio", "cells"],
    "errors": ["label", "column", "as_written", "corrected", "kind"],
}
PAPER_HYPOTHESES = ("phillips", "bruins1949", "friberg1981")  # 15/15 exact
PAIR_HYPOTHESES = {"phillips": "mult10", "bruins1949": "bruins"}


def _kind(argv) -> str:
    return argv[1] if argv[0] == "tablet" else argv[0]


def _opt(argv, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _cell_text(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, dict) and "digits" in cell:
        return cell["digits"]
    return str(cell)


def correction_line(c: dict) -> str:
    return (f"correction: [{c['table']}] row {c['label']} {c['column']}: "
            f"printed {c['printed']!r}, computed {c['computed']}")


class ReproduceChecker:
    """Checks one CLI run.  ``run_json(argv)`` runs the program on argv with
    ``--format json`` outside any timed interval; text and csv outputs are
    compared with that json, which is checked itself."""

    def __init__(self, run_json):
        self._run_json = run_json
        self._references: dict[tuple, tuple] = {}
        self._pairs: dict[str, list] = {}
        self._tablet: dict[str, list] = {}

    def check(self, argv: list[str], rc: int, out: str, err: str) -> None:
        fmt, base = argv[-1], argv[:-2]
        if fmt == "json":
            expect(err == "", f"json mode wrote to stderr: {err!r}")
            self._check_json(base, rc, json.loads(out))
            return
        ref_rc, doc = self.reference(base)
        expect(rc == ref_rc, f"{fmt} exit {rc}, json exit {ref_rc}")
        self._check_same_values(base, fmt, out, err, doc)

    def reference(self, base: list[str]) -> tuple[int, dict]:
        key = tuple(base)
        if key not in self._references:
            rc, out, err = self._run_json(base + ["--format", "json"])
            doc = json.loads(out)
            self._check_json(base, rc, doc)
            self._references[key] = rc, doc
        return self._references[key]

    def pairs(self, kind: str) -> list:
        if kind not in self._pairs:
            self._pairs[kind] = O.pairs_between(kind, O.TABLET_LOW, O.TABLET_HIGH)
        return self._pairs[kind]

    def tablet(self, edition: str) -> list:
        if edition not in self._tablet:
            self._tablet[edition] = O.tablet_rows(edition)
        return self._tablet[edition]

    def _check_same_values(self, base, fmt, out, err, doc) -> None:
        kind = _kind(base)
        columns = COLUMNS[kind]
        expected = [[_cell_text(row.get(c)) for c in columns] for row in doc["rows"]]
        if fmt == "csv":
            got = list(csv.reader(io.StringIO(out)))
            expect(got[:1] == [columns], f"csv header {got[:1]}")
            expect(got[1:] == expected, f"csv rows differ from json in {base}")
        else:
            extra = [f"summary: {doc['summary']}"] if kind == "diff" else []
            lines = out.splitlines()
            body, tail = lines[:len(lines) - len(extra)], lines[len(lines) - len(extra):]
            expect([line.split("  ") for line in body] == expected,
                   f"text rows differ from json in {base}")
            expect(tail == extra, f"text trailer {tail} != {extra}")
        expect(err.splitlines() == [correction_line(c) for c in doc["corrections"]],
               f"{fmt} corrections differ from json in {base}")

    def _check_json(self, base, rc, doc) -> None:
        kind = _kind(base)
        if kind == "verify":
            self._check_verify(base, rc, doc)
            return
        expect(rc == 0, f"{base} exited {rc}")
        {"rows": self._check_rows, "pairs": self._check_pairs,
         "extend": self._check_extend, "diff": self._check_diff,
         "errors": self._check_errors}[kind](base, doc)

    # -- rows ---------------------------------------------------------------

    def _check_rows(self, base, doc) -> None:
        hypothesis = _opt(base, "--hypothesis", "")
        reduction = _opt(base, "--reduction", "full")
        rows = doc["rows"]
        expect(rows, "no rows")
        for n, r in enumerate(rows, 1):
            check_row(r, n)
        ts = [value(r["T"]) for r in rows]
        expect(ts == sorted(ts, reverse=True) and len(set(ts)) == len(ts),
               "rows are not ordered by decreasing T")
        if hypothesis in PAIR_HYPOTHESES:
            own = [O.build_row(t, tbar, reduction)
                   for t, tbar in self.pairs(PAIR_HYPOTHESES[hypothesis])]
            expect(len(own) == len(rows), f"{len(rows)} rows, expected {len(own)}")
            for r, o in zip(rows, own):
                expect((value(r["T"]), int(value(r["S"])), int(value(r["D"])))
                       == (o["T"], o["S"], o["D"]),
                       f"row {r['label']} differs from the pair's own row")
                expect(("unreduced_scribal_form" in r["flags"].split(";"))
                       == o["unreduced"], f"row {r['label']} scribal flag")
        self._check_pair_corrections(doc, rows if hypothesis == "phillips" else None)

    def _check_pair_corrections(self, doc, fifteen) -> None:
        # the printed link table is corrected only where it misprints a pair
        # of the fifteen rows
        if fifteen is None:
            expect(doc["corrections"] == [], "unexpected corrections")
            return
        by_label = {r["label"]: r for r in fifteen}
        for c in doc["corrections"]:
            row = by_label[c["label"]]
            expect(c["table"] == "standard-15" and c["computed"] == row[c["column"]]["digits"]
                   and c["printed"] != c["computed"], f"bad correction {c}")

    # -- pairs and extensions ----------------------------------------------

    def _check_pairs(self, base, doc) -> None:
        kind = _opt(base, "--criterion", "mult10")
        check_pair_list(doc["rows"], self.pairs(kind))
        if kind == "mult10":
            self._check_pair_corrections(doc, doc["rows"])
        else:
            for c in doc["corrections"]:
                expect(c["table"] == "excluded-pairs" and c["printed"] != c["computed"]
                       and O.factor235(O.parse(c["computed"])) is not None,
                       f"bad correction {c}")

    def _check_extend(self, base, doc) -> None:
        side = _opt(base, "--side", "")
        rows = doc["rows"]
        check_pair_list(rows, O.extension_pairs(side))
        expect(len({r["label"] for r in rows}) == len(rows), "labels repeat")
        by_label = {r["label"]: r for r in rows}
        for c in doc["corrections"]:
            row = by_label[c["label"]]
            m = O.floating_mantissa(value(row[c["column"]]))
            if c["table"] == f"extension-{side}":
                want = O.render(m * 60 ** (4 - O.places(m)))
            else:
                expect(c["table"] == "extension-lower(variant)", f"bad correction {c}")
                want = O.render(m)
            expect(c["computed"] == want and c["printed"] != want, f"bad correction {c}")

    # -- the tablet --------------------------------------------------------

    def _check_verify(self, base, rc, doc) -> None:
        edition = _opt(base, "--edition", "robson")
        rows = self.tablet(edition)
        failures = {1: [], 2: [], 3: [], 4: [], 5: []}
        for n, r in enumerate(rows, 1):
            a, s, d = r["A"], r["S"], r["D"]
            if n > 1 and a >= rows[n - 2]["A"]:
                failures[1].append(n)
            if not all(O.is_square(x.numerator) and O.is_square(x.denominator)
                       for x in (a, a - 1)):
                failures[2].append(n)
            if gcd(s, d) != 1:
                failures[3].append(n)
            if not O.is_square(d * d - s * s):
                failures[4].append(n)
            if a * (d * d - s * s) != d * d:
                failures[5].append(n)
        got = {int(r["label"]): r for r in doc["rows"]}
        expect(sorted(got) == [1, 2, 3, 4, 5], "not five properties")
        for number, rows_failing in failures.items():
            r = got[number]
            expect(r["failing_rows"] == " ".join(map(str, rows_failing))
                   and r["status"] == ("fail" if rows_failing else "pass"),
                   f"property {number}: {r}, expected failures {rows_failing}")
        # the scribe's unreduced rows are the one expected finding
        unreduced = [n for n, (t, tbar) in enumerate(self.pairs("mult10"), 1)
                     if O.build_row(t, tbar, "tablet-faithful")["unreduced"]]
        expected = (failures[3] == unreduced
                    and not any(failures[k] for k in (1, 2, 4, 5)))
        expect(rc == (0 if expected else 2), f"verify exited {rc}")

    def _check_errors(self, base, doc) -> None:
        rows = self.tablet(_opt(base, "--edition", "robson"))
        expect(doc["rows"], "no scribal errors listed")
        for r in doc["rows"]:
            written, corrected = O.parse(r["as_written"]), O.parse(r["corrected"])
            attested = rows[int(r["label"]) - 1][r["column"]]
            expect(written != corrected
                   and corrected == O.floating_mantissa(Fraction(attested))
                   and r["kind"] == O.classify_error(written, corrected),
                   f"bad scribal error {r}")

    def _check_diff(self, base, doc) -> None:
        hypothesis = _opt(base, "--hypothesis", "phillips")
        edition = _opt(base, "--edition", "robson")
        matching = _opt(base, "--matching", "exact")
        _, generated = self.reference(
            ["rows", "--hypothesis", hypothesis, "--reduction", "tablet-faithful"])
        tablet = self.tablet(edition)
        expect(len(doc["rows"]) == len(tablet) == len(generated["rows"]),
               "diff does not cover fifteen rows")
        counts = {"exact": 0, "similarity": 0, "mismatch": 0}
        for n, (r, g, t) in enumerate(zip(doc["rows"], generated["rows"], tablet), 1):
            a, s, d = value(g["A"]), int(value(g["S"])), int(value(g["D"]))
            cells = [c for c, mine, theirs in (("A", a, t["A"]), ("S", s, t["S"]),
                                               ("D", d, t["D"])) if mine != theirs]
            ratio = Fraction(t["S"], s)
            if not cells:
                want = {"status": "exact", "ratio": "", "cells": ""}
            elif (matching == "similarity" and "A" not in cells
                  and ratio == Fraction(t["D"], d)
                  and O.factor235(ratio.numerator) and O.factor235(ratio.denominator)):
                want = {"status": "similarity", "ratio": str(ratio), "cells": ""}
            else:
                want = {"status": "mismatch", "ratio": "", "cells": " ".join(cells)}
            want["label"] = str(n)
            expect(r == want, f"diff row {r}, expected {want}")
            counts[want["status"]] += 1
        expect(doc["summary"] == (
            f"{counts['exact']}/{len(tablet)} exact, {counts['similarity']} similar, "
            f"{counts['mismatch']} mismatched ({edition} edition, {matching} matching)"),
            f"summary {doc['summary']!r}")
        if hypothesis in PAPER_HYPOTHESES and edition == "robson":
            expect(counts["exact"] == 15, f"{hypothesis}: {doc['summary']}")


def check_row(r: dict, n: int) -> None:
    """The row identities: T Tbar = 1, X = (T - Tbar)/2, Y = (T + Tbar)/2,
    A = Y^2, S/D = X/Y, D^2 - S^2 a square, S and D coprime unless the row is
    flagged as the unreduced scribal form."""
    t, tbar, x, y, s, d, a = (value(r[k]) for k in ("T", "Tbar", "X", "Y", "S", "D", "A"))
    where = f"row {r['label']}"
    expect(r["label"] == str(n), f"{where} is numbered out of order")
    expect(t * tbar == 1, f"{where}: T * Tbar != 1")
    expect(x == (t - tbar) / 2 and y == (t + tbar) / 2, f"{where}: X or Y")
    expect(a == y * y, f"{where}: A != Y^2")
    expect(s.denominator == d.denominator == 1, f"{where}: S, D not whole")
    s, d = int(s), int(d)
    expect(Fraction(s, d) == x / y, f"{where}: S/D != X/Y")
    expect(O.is_square(d * d - s * s), f"{where}: D^2 - S^2 is not a square")
    unreduced = "unreduced_scribal_form" in r["flags"].split(";")
    expect(unreduced or gcd(s, d) == 1, f"{where}: S and D share a factor")


def check_pair_list(rows: list[dict], own: list) -> None:
    expect(len(rows) == len(own), f"{len(rows)} pairs, expected {len(own)}")
    for r, (t, tbar) in zip(rows, own):
        expect((value(r["T"]), value(r["Tbar"])) == (t, tbar),
               f"pair {r['T']['digits']} differs from ({t}, {tbar})")


# ---------------------------------------------------------------------------
# link

_STANDARD = O.standard_mantissas()


def check_link(m: int, pair, chain) -> None:
    """Steps equal the closed-form depth, the chain replays to the pair, and
    the start is among the regulars 2..81."""
    tm = O.strip60(m)
    expect(pair.T.mantissa == tm
           and O.is_power_of_60(pair.T.mantissa * pair.Tbar.mantissa),
           f"the pair is not ({tm}, 1/{tm})")
    depth = O.link_depth(m)
    expect(chain.steps == sum(map(abs, chain.factor)) == depth,
           f"{chain.steps} steps, the shortest chain has {depth}")
    start = chain.start
    expect(O.is_power_of_60(start.T.mantissa * start.Tbar.mantissa),
           "the start is not a reciprocal pair")
    expect(O.replay_link(start.T.mantissa, chain.factor) == tm,
           "the chain does not replay to the pair")
    expect(start.T.mantissa in _STANDARD or start.Tbar.mantissa in _STANDARD,
           f"the start {start.T.mantissa} is outside the standard table")


# ---------------------------------------------------------------------------
# arith

def check_arith(n: int, text: str, v, r, recip, rendered: str, from_frac) -> None:
    """n is the value the digit string ``text`` spells."""
    m = O.strip60(n)
    expect(v.mantissa == m, f"parsed mantissa {v.mantissa} != {m}")
    expect((r.alpha, r.beta, r.gamma) == O.factor235(m), "wrong exponents")
    expect(O.is_power_of_60(recip.mantissa * m) and recip.mantissa % 60,
           "reciprocal times value is not a power of 60")
    expect(rendered == O.render(recip.mantissa) and O.parse(rendered) == recip.mantissa,
           f"the reciprocal renders as {rendered!r}")
    expect(from_frac.mantissa == recip.mantissa
           and Fraction(from_frac.mantissa) * Fraction(60) ** from_frac.exponent * m == 1,
           "from_fraction(1/m) disagrees with reciprocal")


def arith_fault(n: int, exc: BaseException) -> bool:
    """from_fraction gives up on reciprocals longer than 64 places; those
    values fail with the package's domain error and nothing else does."""
    return (type(exc).__name__ == "SexagesimalError"
            and "no terminating base-60 form" in str(exc)
            and O.reciprocal_places(O.strip60(n)) > MAX_FROM_FRACTION_PLACES)
