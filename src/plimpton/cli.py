"""Command-line surface.

Subcommands: the paths of ``COMMANDS``, each run by ``cmd_<path joined by "_">``.
An argv of exact form (see :func:`_exact`) is read straight from
``COMMANDS``; every other argv goes to the argparse parser built from it.
Importing this module loads only what every command needs: ``csv`` here
and ``fractions`` in ``sexagesimal`` are imported by the calls that use them.
Output formats: text (default), json, and csv for every command but recip
and link, which print one value.  Whenever computed values differ from the
printed source tables, a correction log is emitted (stderr for text/csv,
embedded for json) — printed values are never silently fixed.

Exit codes: 0 success or expected findings, 1 usage error, 2 data error,
141 (128 + SIGPIPE), with no traceback, when stdout's or stderr's reader
is gone.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

try:  # the C encoder json.encoder would load, without loading json
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from . import hypotheses, pairs, tablet
from .pairs import ReciprocalPair, enumerate_pairs
from .rows import REDUCTIONS, RowCandidate
from .sexagesimal import (
    ONE,
    SexValue,
    SexagesimalError,
    _canonical,
    _exceeds,
    _ratio,
    _ratio_text,
    _split_2_3_5,
    is_regular,
    parse_sex,
    reciprocal,
    render_sex,
    sub,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _decimal(field: str, value) -> str:
    """``str(value)`` in decimal.  Python bounds the digits of an int it
    converts to a string (4,300 by default); past that bound the field is a
    data error, and the interpreter's setting is left as it is."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"{field} has more than {sys.get_int_max_str_digits()} "
                         "decimal digits, the interpreter's limit for integer "
                         "string conversion") from None


class _Encoded(str):
    """JSON text already written at its place in a document: ``_json``
    copies it as it is."""


def _sex_json(v: SexValue, indent: str) -> str:
    """A ``SexValue`` as ``_json`` writes it: an object of its digits and
    its exact fraction, on a line that ``indent`` opens."""
    num, den = _ratio(v)
    inner = indent + "  "
    return (f'{{{inner}"digits": "{render_sex(v)}",'
            f'{inner}"numerator": "{_decimal("numerator", num)}",'
            f'{inner}"denominator": "{_decimal("denominator", den)}"{indent}}}')


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, on a line that
    ``indent`` (newline and spaces) opens; dict keys are str.  A ``SexValue``
    is written by ``_sex_json``, an ``_Encoded`` text as it is.  The CLI has
    its own emitter because ``indent`` makes CPython's ``json`` fall back to
    its pure-Python encoder; this one uses the C string encoder only."""
    inner = indent + "  "
    if isinstance(value, str):
        return value if type(value) is _Encoded else encode_basestring_ascii(value)
    if isinstance(value, SexValue):
        return _sex_json(value, indent)
    if isinstance(value, dict):
        items, ends = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                       for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_json(v, inner) for v in value], "[]"
    elif value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    else:
        return int.__repr__(value)
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _json_rows(rows: list[dict]) -> str:
    """``rows`` as ``_json`` writes them as a field of a document, by one
    template: every row has the first row's keys, at least one, in its
    order, and each key's head is encoded once."""
    if not rows:
        return "[]"
    heads = {key: f"\n      {encode_basestring_ascii(key)}: " for key in rows[0]}
    return "[\n    {" + "\n    },\n    {".join(
        ",".join([heads[key] + (_sex_json(cell, "\n      ") if type(cell) is SexValue
                                else _json(cell, "\n      "))
                  for key, cell in row.items()])
        for row in rows) + "\n    }\n  ]"


def _print_json(command: str, fields: dict) -> None:
    """One command's JSON document: schema version, command, then fields,
    written whole, so a field that fails to encode prints nothing."""
    print(_json({"schema_version": SCHEMA_VERSION, "command": command, **fields}))


def _emit(fmt: str, command: str, rows: list[dict], columns: list[str],
          corrections: list[hypotheses.Correction], extra: dict | None = None) -> None:
    """Uniform emission: same values in every format.  Rows hold values
    (a ``SexValue`` or text); each format encodes them, json as digits and
    exact fraction, text and csv as digits of the printed columns only."""
    if fmt == "json":
        _print_json(command, {
            "rows": _Encoded(_json_rows(rows)),
            "corrections": [dict(zip(c.__slots__, c._fields(c))) for c in corrections],
            **(extra or {})})
        return
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, quoting=csv.QUOTE_ALL)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell_text(row[col]) for col in columns])
    else:
        lines = ["  ".join(_cell_text(row[col]) for col in columns) + "\n" for row in rows]
        lines += [f"{key}: {value}\n" for key, value in (extra or {}).items()]
        sys.stdout.write("".join(lines))
    for c in corrections:
        print(f"correction: {c}", file=sys.stderr)


def _cell_text(cell) -> str:
    return render_sex(cell) if isinstance(cell, SexValue) else str(cell)


# Trial division names a non-regular input's smallest prime factor only
# below this bound, so a large prime cofactor cannot stall the error path.
_FACTOR_BOUND = 10_000


def _parse_regular_arg(text: str):
    v = parse_sex(text)
    r = is_regular(v)
    if r is None:
        n = _split_2_3_5(v.mantissa)[3]
        factor = next((f for f in range(7, min(n, _FACTOR_BOUND) + 1)
                       if n % f == 0), None)
        if factor is None:
            cofactor = _decimal("not regular: cofactor", n)
            raise SexagesimalError(f"not regular: cofactor {cofactor} has no prime "
                                   f"factor below {_FACTOR_BOUND}")
        raise SexagesimalError(f"not regular: factor {factor}")
    return r


# ---------------------------------------------------------------------------
# Subcommands

def cmd_recip(args) -> int:
    r = _parse_regular_arg(args.value)
    result = reciprocal(r).value
    if args.format == "json":
        _print_json("recip", {"input": r.value, "reciprocal": result})
    else:
        print(render_sex(result))
    return EXIT_OK


def _pair_row(label, pair: ReciprocalPair) -> dict:
    return {"label": str(label), "T": pair.T.value, "Tbar": pair.Tbar.value}


def cmd_pairs(args) -> int:
    try:
        lo = parse_sex(args.range_from, "fixed")
        hi = parse_sex(args.range_to, "fixed")
    except SexagesimalError as e:
        raise SexagesimalError(f"malformed range: {e}")
    if _exceeds(lo, hi):
        lo, hi = hi, lo
    found = enumerate_pairs(args.criterion, lo, hi)
    rows = [_pair_row(i, p) for i, p in enumerate(found, 1)]
    table = "standard-15" if args.criterion == "mult10" else "excluded-pairs"
    corrections = hypotheses.printed_corrections(table, found)
    _emit(args.format, "pairs", rows, ["T", "Tbar"], corrections)
    return EXIT_OK


def _row_record(c: RowCandidate, leading_one: bool) -> dict:
    a = c.a if leading_one else sub(c.a, ONE)
    flags = []
    if not c.reduced:
        flags.append("unreduced_scribal_form")
    if c.reduction_factor != 1:
        flags.append(f"reduced_by_{c.reduction_factor}")
    if not leading_one:
        flags.append("leading_one_dropped")
    return {"label": str(c.n), "T": c.pair.T.value, "Tbar": c.pair.Tbar.value,
            "X": c.x, "Y": c.y, "S": _canonical(c.s, 0), "D": _canonical(c.d, 0),
            "A": a, "flags": ";".join(flags)}


def _candidates(args) -> list[RowCandidate]:
    return hypotheses.generate(args.hypothesis, args.reduction.replace("-", "_"))


def cmd_rows(args) -> int:
    candidates = _candidates(args)
    leading_one = args.leading_one == "on"
    rows = [_row_record(c, leading_one) for c in candidates]
    corrections = (hypotheses.printed_corrections(
                       "standard-15", [c.pair for c in candidates])
                   if args.hypothesis == "phillips" else [])
    _emit(args.format, "rows", rows, ["A", "S", "D", "label"], corrections)
    return EXIT_OK


def cmd_tablet_verify(args) -> int:
    results = tablet.verify_properties(tablet.tablet_data(args.edition), use=args.use)
    rows = [{"label": str(r.number), "property": r.description,
             "status": "pass" if r.holds else "fail",
             "failing_rows": " ".join(map(str, r.failures))} for r in results]
    _emit(args.format, "tablet-verify", rows,
          ["label", "property", "status", "failing_rows"], [])
    expected = args.use != "corrected" or all(
        r.holds if r.number != 3 else set(r.failures) == {11} for r in results)
    return EXIT_OK if expected else EXIT_DATA


def cmd_tablet_diff(args) -> int:
    report = tablet.diff_against(_candidates(args), args.edition, args.matching)
    rows = [{"label": str(d.n), "status": d.status,
             "ratio": _ratio_text(*_ratio(d.ratio.value)) if d.ratio else "",
             "cells": " ".join(d.cells)} for d in report.rows]
    _emit(args.format, "tablet-diff", rows, ["label", "status", "ratio", "cells"], [],
          extra={"summary": report.summary()})
    return EXIT_OK


def cmd_tablet_errors(args) -> int:
    annotations = tablet.error_annotations(args.edition)
    rows = [{"label": str(a.n), "column": a.column, "as_written": a.as_written,
             "corrected": a.corrected, "kind": a.kind} for a in annotations]
    _emit(args.format, "tablet-errors", rows,
          ["label", "column", "as_written", "corrected", "kind"], [])
    return EXIT_OK


def cmd_extend(args) -> int:
    table = f"extension-{args.side}"
    extension = hypotheses.printed_pairs(table)
    rows = [_pair_row(label, pair) for label, pair in extension]
    corrections = hypotheses.printed_corrections(table, [p for _, p in extension])
    _emit(args.format, "extend", rows, ["label", "T", "Tbar"], corrections)
    return EXIT_OK


def cmd_link(args) -> int:
    pair = ReciprocalPair.from_triple(_parse_regular_arg(args.value).triple)
    chain = hypotheses.link_to_standard(pair)
    if args.format == "json":
        num, den = chain.factor_ratio
        _print_json("link", {
            "pair": _pair_row("", pair),
            "in_table": chain.in_table,
            "start": _pair_row("", chain.start),
            "factor": chain.factor,
            "factor_value": {"numerator": _decimal("numerator", num),
                             "denominator": _decimal("denominator", den)},
            "steps": chain.steps})
    else:
        print(_decimal("link factor", chain))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Each path of command names: add_parser's keywords (no help for tablet's
# subcommands), then its arguments in usage order as (name, add_argument keywords).

_VALUE = ("value", {})
_FORMAT = ("--format", {"choices": ("text", "json", "csv"), "default": "text"})
_VALUE_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_EDITION = ("--edition", {"choices": tablet.EDITIONS, "default": "robson"})
_HYPOTHESIS = {"choices": tuple(hypotheses.THEORIES)}
_REDUCTION = {"choices": tuple(reduction.replace("_", "-") for reduction in REDUCTIONS)}

COMMANDS = {
    ("recip",): ({"help": "reciprocal of a regular number"}, [_VALUE, _VALUE_FORMAT]),
    ("pairs",): ({"help": "enumerate reciprocal pairs in a range"}, [
        ("--criterion", {"choices": tuple(pairs.CRITERIA), "default": "mult10"}),
        ("--from", {"dest": "range_from", "required": True}),
        ("--to", {"dest": "range_to", "required": True}), _FORMAT]),
    ("rows",): ({"help": "generate rows under a hypothesis"}, [
        ("--hypothesis", _HYPOTHESIS | {"required": True}),
        ("--reduction", _REDUCTION | {"default": "full"}),
        ("--leading-one", {"choices": ("on", "off"), "default": "on"}), _FORMAT]),
    ("tablet",): ({"help": "verify, diff or list scribal errors"}, []),
    ("tablet", "verify"): ({}, [_EDITION, _FORMAT, (
        "--use", {"choices": tablet.USES, "default": "corrected"})]),
    ("tablet", "diff"): ({}, [
        _EDITION, _FORMAT, ("--hypothesis", _HYPOTHESIS | {"default": "phillips"}),
        ("--matching", {"choices": tablet.MATCHINGS, "default": "exact"}),
        ("--reduction", _REDUCTION | {"default": "tablet-faithful"})]),
    ("tablet", "errors"): ({}, [_EDITION, _FORMAT]),
    ("extend",): ({"help": "extension tables beyond the 15 rows"}, [
        ("--side", {"choices": ("lower", "upper"), "required": True}), _FORMAT]),
    ("link",): ({"help": "minimal chain to the standard table"}, [_VALUE, _VALUE_FORMAT]),
}


@cache
def _build_parser() -> _Parser:
    """The argument parser, built from ``COMMANDS`` once per process on first
    use; a path's names are its namespace's command, subcommand and so on."""
    parsers = {(): _Parser(prog="plimpton",
                           description="Exact sexagesimal reconstruction of Plimpton 322")}
    subparsers = {}
    for path, (keywords, arguments) in COMMANDS.items():
        parent = path[:-1]
        if parent not in subparsers:
            subparsers[parent] = parsers[parent].add_subparsers(
                dest="sub" * len(parent) + "command", required=True)
        parser = parsers[path] = subparsers[parent].add_parser(path[-1], **keywords)
        for name, options in arguments:
            parser.add_argument(name, **options)
    return parsers[()]


@cache
def _leaf_specs() -> dict:
    """Each leaf path's reading for ``_exact``, built from ``COMMANDS`` once
    per process on first use: its namespace's defaults in argparse's order,
    its options by flag and its positionals in order, each as (dest,
    choices), and its required dests.  It knows only the keywords the
    records use (dest, default, choices, required), each argument taking
    one value."""
    specs = {}
    for path, (_, arguments) in COMMANDS.items():
        if any(other[:len(path)] == path != other for other in COMMANDS):
            continue
        values = {"sub" * depth + "command": name for depth, name in enumerate(path)}
        options, positionals, required = {}, [], set()
        for name, keywords in arguments:
            dest = keywords.get("dest", name.lstrip("-").replace("-", "_"))
            values[dest] = keywords.get("default")
            reading, flag = (dest, keywords.get("choices")), name.startswith("-")
            if flag:
                options[name] = reading
            else:
                positionals.append(reading)
            if keywords.get("required", not flag):
                required.add(dest)
        specs[path] = values, options, positionals, required
    return specs


def _exact(argv: list[str] | None) -> argparse.Namespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, read
    straight from ``COMMANDS`` when argv has exact form: a leaf path, then
    each flag in full at most once as ``--flag value``, no value led by
    ``-``, every value one of its choices, every required argument and no
    extra positional.  Any other argv is None, for argparse to read, so help,
    usage and errors stay argparse's."""
    argv = sys.argv[1:] if argv is None else argv
    specs = _leaf_specs()
    # a leaf path is one name or two (tablet's subcommands)
    path = next((path for path in (tuple(argv[:1]), tuple(argv[:2])) if path in specs),
                None)
    if path is None:
        return None
    values, options, positionals, required = specs[path]
    values, given = dict(values), set()
    tokens, positionals = iter(argv[len(path):]), iter(positionals)
    for token in tokens:
        if token.startswith("-"):
            dest, choices = options.get(token, (None, None))
            token = next(tokens, "-")
        else:
            dest, choices = next(positionals, (None, None))
        if (dest is None or dest in given or token.startswith("-")
                or choices and token not in choices):
            return None
        values[dest] = token
        given.add(dest)
    return argparse.Namespace(**values) if required <= given else None


def _run(argv: list[str] | None) -> int:
    try:
        args = _exact(argv) or _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    path = [name for dest, name in vars(args).items() if dest.endswith("command")]
    # looked up on every call, so a rebound cmd_* (a test's patch, a
    # tracer's wrapper) runs even though the parser outlives the binding
    command = globals()["cmd_" + "_".join(path)]
    try:
        return command(args)
    except ValueError as e:  # SexagesimalError is one
        print(f"plimpton: error: {e}", file=sys.stderr)
        return EXIT_DATA


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit's flush
    except BrokenPipeError:  # what is left unwritten to a closed pipe goes to devnull
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
