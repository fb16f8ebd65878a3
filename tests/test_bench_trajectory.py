"""The summary that scripts/bench_trajectory.py writes per workload, and
its exit code, on result lines made up here: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(correct, attempted, failed, scale):
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MiB"}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": scale * (i + 1), "unit": unit}
                                   for i, (name, unit) in enumerate(units.items())}})


def test_summary_of_two_runs(trajectory):
    summary = trajectory.summarize([result_line(True, 300, 3, 1.0),
                                    result_line(True, 100, 5, 3.0)])
    assert summary["runs"] == 2 and summary["correct"] is True
    assert summary["failed_share"] == 8 / 400
    assert list(summary["metrics"]) == list(trajectory.METRICS)
    # inclusive quartiles of two values: the median is their mean
    assert summary["metrics"]["setup_s"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "unit": "s"}
    assert summary["metrics"]["peak_rss_mb"] == {"median": 10.0, "q1": 7.5, "q3": 12.5,
                                                 "unit": "MiB"}


def test_summary_of_one_run_and_of_an_incorrect_one(trajectory):
    one = trajectory.summarize([result_line(True, 50, 0, 2.0)])
    assert one["failed_share"] == 0
    assert one["metrics"]["ops_per_s"] == {"median": 4.0, "q1": 4.0, "q3": 4.0, "unit": "1/s"}
    mixed = trajectory.summarize([result_line(True, 50, 0, 2.0), result_line(False, 50, 0, 2.0)])
    assert mixed["correct"] is False


@pytest.mark.parametrize("incorrect", [None, ("link", 2)])
def test_main_writes_the_file_then_fails_on_an_incorrect_run(trajectory, monkeypatch,
                                                              tmp_path, incorrect):
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory, "_run", lambda workload, seed, seconds: result_line(
        (workload, seed) != incorrect, 10, 0, 1.0))
    assert trajectory.main(["--pr", "t", "--seeds", "2", "--seconds", "1"]) == (
        0 if incorrect is None else 1)
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert {w: s["correct"] for w, s in doc["workloads"].items()} == {
        w: incorrect is None or w != incorrect[0] for w in trajectory.WORKLOADS}
