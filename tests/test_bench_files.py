"""The trajectory files ``BENCH_*.json`` at the repository root.

``tools/trajectory.py`` writes one per commit from an alternating bench
session.  Each must parse and carry every key the tool writes, with one
figure per run for every end-to-end metric that ``BENCHMARK.json`` declares,
so that a later reader can pair the runs of two files.  No benchmark runs
here.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}


def _is_sha(value) -> bool:
    return isinstance(value, str) and len(value) == 40 and set(value) <= set("0123456789abcdef")


def test_there_are_trajectory_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_a_trajectory_file_carries_its_keys(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {"label", "commit", "parent", "src_tree", "seed", "seconds", "runs",
                         "session", "host", "workloads", "code_lines", "raw_lines", "tests"}
    assert path.name == f"BENCH_{data['label']}.json"
    assert _is_sha(data["commit"]) and _is_sha(data["src_tree"])
    assert data["parent"] is None or _is_sha(data["parent"])
    assert type(data["seed"]) is int and data["seconds"] > 0
    runs = data["runs"]
    assert type(runs) is int and runs >= 1
    assert data["label"] in data["session"]["labels"]
    assert set(data["host"]) == {"nproc", "python", "platform"}
    assert data["workloads"] and set(data["workloads"]) <= WORKLOADS
    for name, workload in data["workloads"].items():
        assert isinstance(workload["digest"], str), name  # one digest over every run
        assert workload["correct"] == [True] * runs, name
        assert set(workload["metrics"]) >= set(METRICS), name
        for metric, unit in METRICS.items():
            figures = workload["metrics"][metric]
            assert figures["unit"] == unit
            assert len(figures["runs"]) == runs
            assert figures["median"] == statistics.median(figures["runs"])
    assert 0 < data["code_lines"] < data["raw_lines"]
    assert type(data["tests"]) is int and data["tests"] > 0
