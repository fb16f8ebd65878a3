"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 checks the printed link column of the source table against the
minimal chains that ``link_to_standard`` returns.  Their minimality is
checked in test_hypotheses.py: the steps of every four-place pair's chain
equal its depth in ``_lattice_depths``, a breadth-first search over the
lattice classes from the standard table.  Every printed link is valid
arithmetic, but the column is not minimal: rows 3, 5, 9 and 12 print
strictly longer chains, and row 14 prints a chain of minimal length that
starts from (16 40, 3 36), a pair outside the standard table.  The
criterion asserts exactly these differences, so it fails if either the
column or the search changes.
"""

from fractions import Fraction
from math import isqrt

from plimpton.hypotheses import (
    PLIMPTON_PAIRS_PRINTED,
    LinkChain,
    generate,
    link_to_standard,
    printed_corrections,
    printed_pairs,
    standard_table,
)
from plimpton.pairs import (
    CRITERIA,
    ReciprocalPair,
    _four_place_pairs,
    enumerate_pairs,
)
from plimpton.rows import build_row
from plimpton.sexagesimal import (
    parse_sex,
    regular_from_int,
    render_sex,
)
from plimpton.tablet import diff_against, error_annotations, tablet_data, verify_properties
from bench_oracle import oracle
from test_pairs import MEMBERS, PHILLIPS_15, TABLET_RANGE, as_fractions, oracle_pairs
from test_rows import gcd_reduced


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_phillips_enumeration():
    pairs = [r.pair for r in generate("phillips")]
    got = [(render_sex(p.T.value), render_sex(p.Tbar.value)) for p in pairs]
    logged = [(c.label, c.printed, c.computed)
              for c in printed_corrections("standard-15", pairs)]
    ok = (got == PHILLIPS_15
          and logged == [("12", "1 55 2", "1 55 12")])
    _report(1, "phillips enumeration", ok, f"{len(got)} pairs")


def test_criterion_2_tablet_regeneration():
    faithful = diff_against(generate("phillips", "tablet_faithful"),
                            "robson", "exact")
    full = diff_against(generate("phillips"), "robson", "similarity")
    row4 = generate("phillips", "tablet_faithful")[3]
    row15 = generate("phillips", "tablet_faithful")[14]
    sim = [r for r in full.rows if r.status == "similarity"]
    ok = (faithful.count("exact") == 15
          and render_sex(row4.a) == "1 53 10 29 32 52 16"
          and (row15.s, row15.d) == (28, 53)
          and full.count("exact") == 14
          and [ (r.n, r.ratio.mantissa) for r in sim ] == [(11, 15)])
    _report(2, "tablet regeneration", ok,
            f"faithful {faithful.count('exact')}/15, full {full.count('exact')}+sim")


def test_criterion_3_exclusions():
    lo, hi = TABLET_RANGE
    places4 = {p.T.mantissa
               for p in enumerate_pairs("places4", lo, hi)}
    mult10 = {p.T.mantissa
              for p in enumerate_pairs("mult10", lo, hi)}
    by_difference = places4 - mult10
    by_rule = places4 - {p.T.mantissa
                         for p in enumerate_pairs("bruins", lo, hi)}
    excluded = printed_pairs("excluded-pairs")
    listed = {pair.T.mantissa for _, pair in excluded}
    labels = [label for label, _ in excluded]
    ok = (by_difference == by_rule == listed and len(listed) == 6
          and labels == ["4a", "6a", "8a", "9a", "11a", "12a"])
    _report(3, "exclusions", ok, f"{len(by_difference)} excluded pairs")


def test_criterion_4_friberg_2007():
    rows = generate("friberg2007")
    first15 = [r.pair.T.mantissa for r in rows[:15]]
    ok = (len(rows) == 38
          and first15 == [r.pair.T.mantissa for r in generate("phillips")])
    _report(4, "friberg 2007", ok, f"{len(rows)} pairs")


def test_criterion_5_extensions():
    lower = printed_pairs("extension-lower")
    upper = printed_pairs("extension-upper")
    lower_log = [(c.label, c.column, c.computed) for c in printed_corrections(
        "extension-lower", [pair for _, pair in lower])]
    upper_log = [(c.label, c.column, c.computed) for c in printed_corrections(
        "extension-upper", [pair for _, pair in upper])]
    minus17 = dict(lower)["-17"]
    ok = (len(lower) == 24 and len(upper) == 28
          and lower_log == [("-14", "Tbar", "18 31 06 40"),
                            ("-17", "T", "3 28 20")]
          and upper_log == [("33", "T", "1 11 06 40")]
          and render_sex(minus17.T.value) == "3 28 20")
    _report(5, "extension tables", ok,
            f"lower {len(lower)}, upper {len(upper)}")


def test_criterion_6_tablet_verification():
    results = {r.number: r for r in verify_properties(tablet_data("robson"))}
    corrected_ok = (all(results[n].holds for n in (1, 2, 4, 5))
                    and results[3].failures == (11,))

    written_ok = True
    for edition in ("joyce", "robson"):
        listed = {r.n for r in tablet_data(edition)
                  for c in (r.s, r.d) if c.corrected_error}
        failing = set()
        for res in verify_properties(tablet_data(edition), use="as_written"):
            failing |= set(res.failures)
        written_ok &= (failing - {11} == listed)

    kinds = {(a.n, a.column): a.kind for a in error_annotations("robson")}
    ok = (corrected_ok and written_ok
          and kinds[(13, "S")] == "square_of_correct")
    _report(6, "tablet verification", ok)


# Where the printed link column departs from the minimal chain, and how.
PRINTED_LINK_DIFFERENCES = {
    3: "longer", 5: "longer", 9: "longer", 12: "longer",
    14: "start outside table",
}

# Minimal factor magnitude at each of those rows.
MINIMAL_LINK_FACTORS = {
    3: Fraction(5, 2), 5: Fraction(3), 9: Fraction(5), 12: Fraction(25),
    14: Fraction(5, 2),
}


def _magnitude(chain: LinkChain) -> Fraction:
    """The factor or its inverse, whichever is at least 1."""
    num, den = chain.factor_ratio
    return Fraction(max(num, den), min(num, den))


def _same_pair(a: ReciprocalPair, b: ReciprocalPair) -> bool:
    return {a.T.mantissa, a.Tbar.mantissa} == {b.T.mantissa, b.Tbar.mantissa}


def test_criterion_7_linkage():
    table = standard_table()
    problems, differences, details, minimal = [], {}, [], {}
    for (label, _, _, link), (_, pair) in zip(PLIMPTON_PAIRS_PRINTED,
                                               printed_pairs("standard-15")):
        n = int(label)
        chain = link_to_standard(pair)
        if n in MINIMAL_LINK_FACTORS:
            minimal[n] = _magnitude(chain)
        if link is None:
            if not chain.in_table:
                problems.append(f"row {n}: printed in table, minimal {chain}")
            continue
        if chain.in_table:
            problems.append(f"row {n}: printed a link, minimal in table")
        start_t, start_tbar, factor = link
        start = ReciprocalPair.from_T_mantissa(parse_sex(start_t).mantissa)
        if render_sex(start.Tbar.value) != start_tbar:
            problems.append(f"row {n}: printed start ({start_t}, {start_tbar})"
                            " is not a reciprocal pair")
        printed = LinkChain(start, factor)
        if not _same_pair(printed.replay(), pair):
            problems.append(f"row {n}: printed link does not reach {pair}")
        if chain.steps > printed.steps:
            problems.append(f"row {n}: minimal {chain.steps} steps,"
                            f" printed {printed.steps}")
        printed_f, minimal_f = _magnitude(printed), _magnitude(chain)
        if printed.steps > chain.steps:
            differences[n] = "longer"
            details.append(f"row {n}: printed {printed_f} (length"
                           f" {printed.steps}) vs minimal {minimal_f}"
                           f" (length {chain.steps})")
        elif not any(_same_pair(start, s) for s in table):
            differences[n] = "start outside table"
            details.append(f"row {n}: printed {printed_f} (length"
                           f" {printed.steps}) from {start}, outside the"
                           f" standard table, vs minimal {minimal_f} (length"
                           f" {chain.steps})")
        elif not (_same_pair(start, chain.start) and printed_f == minimal_f):
            differences[n] = "other minimal chain"
            details.append(f"row {n}: printed {printed_f} from {start}"
                           f" vs minimal {chain}")
    if minimal != MINIMAL_LINK_FACTORS:
        problems.append(f"minimal factors {minimal}")
    if differences != PRINTED_LINK_DIFFERENCES:
        problems.append(f"differences {differences}")
    ok = not problems
    _report(7, "linkage vs printed column", ok,
            "; ".join(problems + details))


def test_criterion_8_property_suite():
    problems = []

    for tag in ("ns1945", "bruins1949", "price1964", "buck1980",
                "friberg1981", "friberg2007", "phillips"):
        for row in generate(tag):
            if row.y.fraction ** 2 - row.x.fraction ** 2 != 1:
                problems.append((tag, row.n, "Y^2 - X^2"))
            s, d = row.s, row.d
            diff = d * d - s * s
            if row.a.fraction * diff != d * d:
                problems.append((tag, row.n, "A identity"))
            if isqrt(diff) ** 2 != diff:
                problems.append((tag, row.n, "long side not square"))

    # reduction invariance under regular pre-scaling
    for m in (144, 512000, 2, 108):
        row = build_row(ReciprocalPair.from_T_mantissa(m))
        x, y = row.x.fraction, row.y.fraction
        for scale in (2, 45, 3600, 1728):
            if gcd_reduced(scale * x, scale * y) != (row.s, row.d):
                problems.append(("scaling", m, scale))

    full = _four_place_pairs(216001, 12959999, CRITERIA["mult10"])
    sd = [(row.s, row.d) for row in map(build_row, full)
          if row.pair.T.mantissa != row.pair.Tbar.mantissa]
    if len(sd) != len(set(sd)):
        problems.append(("full list", "duplicate (S, D)", ""))

    a_column = [r.a.fraction for r in generate("phillips")]
    if any(x <= y for x, y in zip(a_column, a_column[1:])):
        problems.append(("phillips", "A not decreasing", ""))

    _report(8, "property suite", not problems,
            "; ".join(map(str, problems[:3])))


def mult10_digits(r):
    """At most four places, and a four-place value ends in a multiple of 10."""
    digits = oracle.digits60(r.mantissa)
    return len(digits) < 4 or len(digits) == 4 and digits[-1] % 10 == 0


def test_criterion_9_oracle_equivalence():
    # digit rule vs CRITERIA's on the oracle's four-place table of padded
    # values, all regulars <= 6 places (those of five or six are not in the
    # table); mult10 reads each member alone, so a member paired with
    # itself is the member's own test
    agree = True
    for m in oracle.regular_mantissas(60**6):
        r = regular_from_int(m)
        if m in MEMBERS:
            padded = MEMBERS[m][0]
            agree &= CRITERIA["mult10"](padded, padded, None, None, None) == mult10_digits(r)
        else:
            agree &= not mult10_digits(r)

    # enumerate_pairs vs the benchmark oracle's pairs on the three ranges used
    sweep_ok = True
    for lo_text, hi_text in (("1;48", "2;24"), ("2;24", "3;54 22 30"),
                             ("1;00 45", "1;48")):
        lo, hi = parse_sex(lo_text, "fixed"), parse_sex(hi_text, "fixed")
        sweep_ok &= (as_fractions(enumerate_pairs("mult10", lo, hi))
                     == oracle_pairs("mult10", lo.fraction, hi.fraction))

    _report(9, "oracle equivalence", agree and sweep_ok)
