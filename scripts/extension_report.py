#!/usr/bin/env python3
"""Print the predicted extension tables on both sides of the attested rows,
the printed-vs-computed correction log, and the standard-table link for
every extension pair.

Usage: python3 scripts/extension_report.py
"""

from plimpton import link_to_standard, printed_corrections, printed_pairs


def main() -> None:
    for side in ("lower", "upper"):
        rows = printed_pairs(f"extension-{side}")
        print(f"{side} extension ({len(rows)} pairs):")
        for label, pair in rows:
            chain = link_to_standard(pair)
            print(f"  {label:>4}  {str(pair):32}  {chain}")
        for c in printed_corrections(f"extension-{side}",
                                     [pair for _, pair in rows]):
            print(f"  correction: {c}")
        print()


if __name__ == "__main__":
    main()
