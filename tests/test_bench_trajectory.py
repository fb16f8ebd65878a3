"""The summary that scripts/bench_trajectory.py writes per workload, the
pairs it runs and counts against a parent checkout, and its exit code, on
result lines made up here: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench_trajectory.py"


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "peak_rss_mb": "MiB"}


def result_line(correct, attempted, failed, scale):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": scale * (i + 1), "unit": unit}
                                   for i, (name, unit) in enumerate(UNITS.items())}})


def timed_line(**values):
    """A correct run whose metrics read 1 but for those given."""
    return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {name: {"value": values.get(name, 1), "unit": unit}
                                   for name, unit in UNITS.items()}})


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
    monkeypatch.setattr(trajectory, "_run", lambda root, workload, seed, seconds: result_line(
        (workload, seed) != incorrect, 10, 0, 1.0))
    assert trajectory.main(["--pr", "t", "--seeds", "2", "--seconds", "1"]) == (
        0 if incorrect is None else 1)
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert {w: s["correct"] for w, s in doc["workloads"].items()} == {
        w: incorrect is None or w != incorrect[0] for w in trajectory.WORKLOADS}


# the parent's median is 5 and its inclusive quartiles 4.25 and 5.75
@pytest.mark.parametrize("ops,won,lost,gain", [
    # nine of ten pairs won, and the medians 13 and 5 differ by more than 1.5
    ([13] * 9 + [4], 9, 1, True),
    # eight won, one tie and one lost: too few pairs won
    ([13] * 8 + [6, 4], 8, 1, False),
    # all ten won, by a median gap of 1.2, within the parent's spread
    ([6.2] * 10, 10, 0, False),
])
def test_compare_counts_pairs_and_applies_the_gain_rule(trajectory, ops, won, lost, gain):
    parent = [timed_line(ops_per_s=v) for v in (4, 4, 4, 5, 5, 5, 5, 6, 6, 6)]
    change = [timed_line(ops_per_s=v) for v in ops]
    result = trajectory.compare(parent, change)
    assert result["ops_per_s"] == {"better": "higher", "pairs": 10, "won": won, "lost": lost,
                                   "gain": gain}
    # every other metric ties in every pair
    assert {name: (row["won"], row["lost"], row["gain"]) for name, row in result.items()
            if name != "ops_per_s"} == {name: (0, 0, False) for name in UNITS
                                          if name != "ops_per_s"}


def test_compare_reads_lower_as_better_for_a_time(trajectory):
    parent = [timed_line(op_p50_ms=v) for v in (2, 2, 3)]
    change = [timed_line(op_p50_ms=1)] * 3
    result = trajectory.compare(parent, change)
    assert result["op_p50_ms"] == {"better": "lower", "pairs": 3, "won": 3, "lost": 0,
                                   "gain": True}


def test_parent_runs_alternate_and_join_the_file(trajectory, monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (REPO / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    parent = tmp_path / "parent"
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "run.py").touch()
    runs = []

    def fake_run(root, workload, seed, seconds):
        runs.append((root, workload, seed))
        return timed_line(ops_per_s=2 if root == tmp_path else 1)

    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory, "_run", fake_run)
    monkeypatch.setattr(trajectory, "_commit", lambda root: root.name)
    assert trajectory.main(["--pr", "t", "--seeds", "2", "--seconds", "1",
                            "--parent", str(parent)]) == 0
    # per seed and workload a pair: the parent first on seed 1, last on seed 2
    assert runs == [(root, w, seed) for seed in (1, 2) for w in trajectory.WORKLOADS
                    for root in ((parent, tmp_path) if seed == 1 else (tmp_path, parent))]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert doc["parent"]["commit"] == "parent"
    for w in trajectory.WORKLOADS:
        assert doc["parent"]["workloads"][w]["metrics"]["ops_per_s"]["median"] == 1
        assert doc["workloads"][w]["metrics"]["ops_per_s"]["median"] == 2
        assert doc["pairs"][w]["ops_per_s"] == {"better": "higher", "pairs": 2, "won": 2,
                                                "lost": 0, "gain": True}


def test_a_parent_without_the_benchmark_is_refused(trajectory, tmp_path):
    with pytest.raises(SystemExit) as refused:
        trajectory.main(["--pr", "t", "--parent", str(tmp_path)])
    assert refused.value.code == 2
