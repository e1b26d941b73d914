"""The per-change benchmark records at the repository root stay machine-readable.

Each ``BENCH_<n>.json`` holds the last JSON line of every ``bench/run.py``
run made for one change, tagged with its workload, seed and side.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def end_to_end_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        return {metric["name"] for metric in json.load(fh)["end_to_end"]}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_lists_tagged_run_results(path):
    with open(path) as fh:
        record = json.load(fh)
    names = end_to_end_names()
    assert isinstance(record, list) and record
    for entry in record:
        assert set(entry) == {"workload", "seed", "side", "result"}
        assert isinstance(entry["workload"], str)
        assert isinstance(entry["seed"], int)
        assert entry["side"] in ("parent", "change")
        metrics = entry["result"]["metrics"]
        assert names <= set(metrics)
        for name in names:
            assert isinstance(metrics[name]["value"], (int, float))
