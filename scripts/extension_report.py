#!/usr/bin/env python3
"""Print the predicted extension tables on both sides of the attested rows,
the printed-vs-computed correction log, and the standard-table link for
every extension pair.

Usage: python3 scripts/extension_report.py
"""

from plimpton import extend_phillips, link_to_standard
from plimpton.hypotheses import extension_corrections


def main() -> None:
    for side in ("lower", "upper"):
        rows = extend_phillips(side)
        print(f"{side} extension ({len(rows)} pairs):")
        for row in rows:
            chain = link_to_standard(row.pair)
            print(f"  {row.label:>4}  {str(row.pair):32}  {chain}")
        for c in extension_corrections(side, rows):
            print(f"  correction: {c}")
        print()


if __name__ == "__main__":
    main()
