#!/usr/bin/env python3
"""Run every benchmark workload over seeds 1..N and write a summary of the
runs to BENCH_<pr>.json at the repository root.

Usage: python3 scripts/bench_trajectory.py --pr N [--seeds N] [--seconds S]

Each run is ``bench/run.py --workload W --seed s --seconds S`` in a fresh
interpreter, the seeds in turn and every workload for each seed.  Per
workload the file holds whether every run was correct, the failed share of
the operations, and the median, quartiles and unit of each end-to-end
metric.  It also records the commit, the Python version, the line count of
``src/plimpton/*.py``, the seeds and seconds, and whether bytecode was
written, so that files from different commits can be set side by side.
The figures are timings of one machine: a trajectory, not a claim.
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
WORKLOADS = ("reproduce", "link", "arith")
METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


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


def _run(workload: str, seed: int, seconds: float) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def _commit() -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="the name in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N (default 10)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="each run's length (default 30)")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.seconds <= 0:
        parser.error("--seeds and --seconds must be positive")
    seeds = list(range(1, args.seeds + 1))
    lines: dict[str, list[str]] = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            lines[workload].append(_run(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {lines[workload][-1]}", file=sys.stderr)
    doc = {
        "pr": args.pr,
        "commit": _commit(),
        "python": platform.python_version(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                         for f in sorted((ROOT / "src" / "plimpton").glob("*.py"))),
        "seeds": seeds,
        "seconds": args.seconds,
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "src_pycache": (ROOT / "src" / "plimpton" / "__pycache__").exists(),
        },
        "workloads": {w: summarize(lines[w]) for w in WORKLOADS},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(out)


if __name__ == "__main__":
    main()
