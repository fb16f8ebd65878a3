"""The benchmark's modules, loaded read-only for the tests: no bytecode is
written into bench/.  ``oracle``, its independent arithmetic, is compiled in
memory, so nothing joins sys.path for it."""

import importlib
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = str(Path(__file__).resolve().parents[1] / "bench")

oracle = SimpleNamespace(**runpy.run_path(BENCH + "/oracle.py"))


def bench_workloads():
    """``bench/workloads.py``, which imports its siblings by bare name: bench/
    is on sys.path for the import only, and its modules are dropped after."""
    sys.path.insert(0, BENCH)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(BENCH)
        for name in ("workloads", "checks", "oracle"):
            sys.modules.pop(name, None)
