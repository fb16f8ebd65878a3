#!/usr/bin/env python3
"""Benchmark of the plimpton322 package, from outside ``src/plimpton``.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, one process each

One caller runs one operation at a time (a closed loop, no threads).  Each
round runs every batch of the workload's inputs once, in a seeded order; a
run makes whole rounds until ``--seconds`` would be exceeded, and at least
three.  Every output is checked, outside the timed interval: fully the first
time, and for equality with that checked output in later rounds.

The machine is shared and its speed changes from one millisecond to the
next, so raw times say more about the neighbours than about the program.  A
fixed piece of pure-Python work, the yardstick, is timed right before and
right after every batch.  A batch's time is taken as a multiple of the
faster of those two yardstick times, its minimum over the rounds kept, and
reported at the reference speed: the speed at which the yardstick takes
``YARDSTICK_REFERENCE_NS``.  Set-up is timed against the median of several
yardsticks around it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
package's public functions, runs two rounds and reports per-layer figures
per operation.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A copy of it and the trace's spans go to ``bench/out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path[:0] = [str(BENCH), str(SRC)]

from tracing import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
MIN_ROUNDS = 3
# the yardstick's time at the reference speed: about its best time on a
# 2-core Xeon (Sapphire Rapids, KVM guest) under CPython 3.11
YARDSTICK_REFERENCE_NS = 60_000
TRACE_ROUNDS = 2
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MiB"}


def _yardstick() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(300):
        d[i & 63] = d.get(i & 63, 0) + i
        s += len(str(i * i))
    return s


def yardstick_ns() -> int:
    t0 = time.perf_counter_ns()
    _yardstick()
    return time.perf_counter_ns() - t0


def run_rounds(workload, rng: random.Random, seconds: float, rounds_wanted: int = 0,
               tracer: Tracer | None = None) -> dict:
    """Time every batch once per round; rounds_wanted=0 runs by the clock."""
    batches = workload.batches
    best = [math.inf] * len(batches)  # in yardsticks
    best_ns = [math.inf] * len(batches)
    failing = [False] * len(batches)
    checked: dict[tuple[int, int], int] = {}
    errors: list[str] = []
    op_yardstick: list[int] = []  # traced runs: the yardstick of each operation
    attempted = failed = rounds = 0
    clock = time.perf_counter_ns
    run = workload.run
    if tracer is not None:
        op_ids = itertools.count()

        def run(op):
            tracer.op = next(op_ids)
            return workload.run(op)

    started = time.perf_counter()
    while True:
        order = list(range(len(batches)))
        rng.shuffle(order)
        for b in order:
            batch = batches[b]
            results = []
            before = yardstick_ns()
            t0 = clock()
            for op in batch:
                try:
                    results.append(run(op))
                except Exception as exc:  # counted below; the run goes on
                    results.append(exc)
            elapsed = clock() - t0
            yardstick = min(before, yardstick_ns())
            if tracer is not None:
                tracer.op = -1  # the checks' own calls are not operations
                op_yardstick += [yardstick] * len(batch)
            best[b] = min(best[b], elapsed / yardstick)
            best_ns[b] = min(best_ns[b], elapsed)
            attempted += len(batch)
            for j, (op, result) in enumerate(zip(batch, results)):
                if isinstance(result, Exception):
                    failed += 1
                    failing[b] = True
                    if not workload.is_fault(op, result):
                        errors.append(f"{op!r} failed: {result!r}")
                    continue
                key = hash(workload.fingerprint(result))
                if (b, j) not in checked:
                    try:
                        workload.check(op, result)
                    except Exception as exc:  # a wrong or malformed output
                        errors.append(f"{op!r}: {exc}")
                    checked[b, j] = key
                elif checked[b, j] != key:
                    errors.append(f"{op!r}: output changed between rounds")
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds_wanted:
            if rounds >= rounds_wanted:
                break
        elif rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    ok = [b for b in range(len(batches)) if not failing[b]]
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "rounds": rounds, "seconds": elapsed, "op_yardstick": op_yardstick,
            "per_op_ms": [best[b] * YARDSTICK_REFERENCE_NS / len(batches[b]) / 1e6
                          for b in ok],
            "raw_per_op_ms": [best_ns[b] / len(batches[b]) / 1e6 for b in ok]}


def timing_metrics(per_op_ms: list[float]) -> dict[str, float]:
    return {"ops_per_s": len(per_op_ms) / (sum(per_op_ms) / 1e3),
            "op_p50_ms": statistics.median(per_op_ms),
            "op_p90_ms": statistics.quantiles(per_op_ms, n=10)[8]}


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh interpreters of importing plimpton.cli and building
    the workload's inputs, at the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def setup_probe(name: str, seed: int) -> None:
    # A fresh import spends part of its time outside the interpreter loop,
    # which a busy machine slows less than the yardstick; the median of
    # several yardsticks around it tracks the machine better than the fastest.
    for _ in range(4):  # let the interpreter specialise the yardstick first
        yardstick_ns()
    around = [yardstick_ns() for _ in range(8)]
    t0 = time.perf_counter_ns()
    import plimpton.cli  # noqa: F401
    WORKLOADS[name](seed)
    elapsed = time.perf_counter_ns() - t0
    around += [yardstick_ns() for _ in range(8)]
    print(elapsed / statistics.median(around) * YARDSTICK_REFERENCE_NS / 1e9)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import plimpton
    import plimpton.cli  # noqa: F401

    workload = WORKLOADS[name](seed)
    rng = random.Random(f"order-{seed}")
    OUT.mkdir(exist_ok=True)
    extra = {}
    if traced:
        tracer = Tracer()
        tracer.install(plimpton)
        workload.bind(plimpton)
        stats = run_rounds(workload, rng, seconds, TRACE_ROUNDS, tracer)
        per_layer = tracer.metrics(
            stats["attempted"], [YARDSTICK_REFERENCE_NS / y for y in stats["op_yardstick"]])
        metrics = {k: (per_layer[k], "ms/op" if k.endswith("ms") else "calls/op")
                   for k in metric_names()}
        extra["spans"] = len(tracer)
        extra["traced_timing"] = timing_metrics(stats["per_op_ms"])
        tracer.write(OUT / f"trace-{name}-seed{seed}.csv.gz")
    else:
        setup_s = measure_setup(name, seed)
        workload.bind(plimpton)
        stats = run_rounds(workload, rng, seconds)
        extra["raw_timing"] = timing_metrics(stats["raw_per_op_ms"])
        values = {"setup_s": setup_s, **timing_metrics(stats["per_op_ms"]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    result = {"correct": not stats["errors"], "attempted": stats["attempted"],
              "failed": stats["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(result, workload=name, seed=seed, rounds=stats["rounds"],
                  measured_s=stats["seconds"], timed_samples=len(stats["per_op_ms"]),
                  errors=stats["errors"][:20], **extra)
    (OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for message in stats["errors"][:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return result


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "plimpton" / "cli.py").is_file():
        print(f"no package source at {SRC / 'plimpton'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
