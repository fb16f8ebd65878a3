#!/usr/bin/env python3
"""Regenerate the fifteen rows under every hypothesis and diff each result
against both corrected editions of the tablet.

Usage: python3 scripts/regenerate_tablet.py
"""

from plimpton import diff_against, generate, render_sex
from plimpton.hypotheses import THEORIES
from plimpton.sexagesimal import SexValue


def main() -> None:
    print("phillips reconstruction (tablet-faithful reduction):")
    for row in generate("phillips", "tablet_faithful"):
        print(f"  {render_sex(row.a):32}  {render_sex(SexValue(row.s)):10}"
              f"  {render_sex(SexValue(row.d)):10}  KI.{row.n}")
    print()
    for tag in THEORIES:
        rows = generate(tag, "tablet_faithful")
        if len(rows) != 15:
            print(f"{tag}: {len(rows)} rows, not directly comparable")
            continue
        for edition in ("robson", "joyce"):
            report = diff_against(rows, edition, "similarity")
            print(f"{tag} vs {edition}: {report.summary()}")


if __name__ == "__main__":
    main()
