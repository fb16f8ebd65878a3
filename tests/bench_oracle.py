"""The benchmark's independent arithmetic, ``bench/oracle.py``, loaded
read-only for the tests to compare with: its source is compiled in memory,
so no bytecode is written into bench/ and nothing joins sys.path."""

import runpy
from pathlib import Path
from types import SimpleNamespace

oracle = SimpleNamespace(**runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "bench" / "oracle.py")))
