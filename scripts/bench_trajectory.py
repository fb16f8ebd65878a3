#!/usr/bin/env python3
"""Run every benchmark workload over seeds 1..N and write a summary of the
runs to BENCH_<pr>.json at the repository root.

Usage: python3 scripts/bench_trajectory.py --pr N [--seeds N] [--seconds S]
                                           [--parent DIR]

Each run is ``bench/run.py --workload W --seed s --seconds S`` in a fresh
interpreter, the seeds in turn and every workload for each seed.  Per
workload the file holds whether every run was correct, the failed share of
the operations, and the median, quartiles and unit of each end-to-end
metric.  It also records the commit, the Python version, the line count of
``src/plimpton/*.py`` in all and per module, the seeds and seconds, and
whether bytecode was written, so that files from different commits can be
set side by side.
Without ``--parent`` the figures are a trajectory, not a claim.

``--parent DIR`` names a checkout of the parent commit.  Each seed's run of
a workload is then a pair: one run on DIR and one on this checkout, DIR
first on odd seeds and this checkout first on even ones.  The file adds
DIR's summary under ``parent`` and, per workload and metric, the pairs this
checkout won and lost (ties count for neither, and "better" is the
direction BENCHMARK.json gives) and ``gain``: whether it won at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range, the rule a claimed gain must meet.

It exits 1, after writing the file, if any run was not correct by the
benchmark's oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
# each end-to-end metric's name and the direction BENCHMARK.json calls better
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
METRICS = tuple(BETTER)


def summarize(lines: list[str]) -> dict:
    """One workload's summary from the last output line of each of its
    runs, a JSON object as ``bench/run.py`` prints it."""
    results = [json.loads(line) for line in lines]
    attempted = sum(r["attempted"] for r in results)
    metrics = {}
    for name in METRICS:
        values = [r["metrics"][name]["value"] for r in results]
        # one run has no spread: its value is each quartile
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        metrics[name] = {"median": median, "q1": q1, "q3": q3,
                         "unit": results[0]["metrics"][name]["unit"]}
    return {"runs": len(results),
            "correct": all(r["correct"] is True for r in results),
            "failed_share": sum(r["failed"] for r in results) / attempted,
            "metrics": metrics}


def compare(parent: list[str], change: list[str]) -> dict:
    """Per metric, the pairs of runs (parent[i], change[i]) that the change
    won and lost, and whether it meets the rule for a claimed gain."""
    before, after = summarize(parent)["metrics"], summarize(change)["metrics"]
    out = {}
    for name in METRICS:
        sign = 1 if BETTER[name] == "higher" else -1
        gaps = [sign * (json.loads(c)["metrics"][name]["value"]
                        - json.loads(p)["metrics"][name]["value"])
                for p, c in zip(parent, change, strict=True)]
        won, lost = sum(g > 0 for g in gaps), sum(g < 0 for g in gaps)
        was, now = before[name], after[name]
        out[name] = {"better": BETTER[name], "pairs": len(gaps), "won": won, "lost": lost,
                     "gain": 10 * won >= 9 * len(gaps)
                     and sign * (now["median"] - was["median"]) > was["q3"] - was["q1"]}
    return out


def _run(root: Path, workload: str, seed: int, seconds: float) -> str:
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def _commit(root: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=root, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _src_lines(root: Path) -> dict:
    """The line count of ``src/plimpton/*.py`` in all and per module, as the
    fields ``src_lines`` and ``src_lines_by_module``."""
    by_module = {f.stem: len(f.read_text(encoding="utf-8").splitlines())
                 for f in sorted((root / "src" / "plimpton").glob("*.py"))}
    return {"src_lines": sum(by_module.values()), "src_lines_by_module": by_module}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="the name in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N (default 10)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="each run's length (default 30)")
    parser.add_argument("--parent", type=Path,
                        help="a checkout of the parent commit, run in alternating pairs")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.seconds <= 0:
        parser.error("--seeds and --seconds must be positive")
    if args.parent is not None and not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"--parent {args.parent} holds no bench/run.py")
    seeds = list(range(1, args.seeds + 1))
    sides = [("change", ROOT)]
    if args.parent is not None:
        sides.insert(0, ("parent", args.parent))
    lines = {side: {w: [] for w in WORKLOADS} for side, _ in sides}
    for seed in seeds:
        for workload in WORKLOADS:
            # the parent first on odd seeds, this checkout first on even ones
            for side, root in (sides if seed % 2 else sides[::-1]):
                lines[side][workload].append(_run(root, workload, seed, args.seconds))
                print(f"{side} {workload} seed {seed}: {lines[side][workload][-1]}",
                      file=sys.stderr)
    summaries = {side: {w: summarize(lines[side][w]) for w in WORKLOADS} for side in lines}
    doc = {
        "pr": args.pr,
        "commit": _commit(ROOT),
        "python": platform.python_version(),
        **_src_lines(ROOT),
        "seeds": seeds,
        "seconds": args.seconds,
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "src_pycache": (ROOT / "src" / "plimpton" / "__pycache__").exists(),
        },
        "workloads": summaries["change"],
    }
    if args.parent is not None:
        doc["parent"] = {"commit": _commit(args.parent), **_src_lines(args.parent),
                         "workloads": summaries["parent"]}
        doc["pairs"] = {w: compare(lines["parent"][w], lines["change"][w])
                        for w in WORKLOADS}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(out)
    incorrect = [f"{side} {w}" for side in summaries for w in WORKLOADS
                 if not summaries[side][w]["correct"]]
    if incorrect:
        print(f"not correct: {', '.join(incorrect)}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
