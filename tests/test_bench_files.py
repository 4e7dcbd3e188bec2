"""Every committed BENCH_*.json keeps the layout of perfbench/pairs.py's rows.

The files are assembled from pairs.py's printout, so a field can go missing;
this checks each file for the fields a reader of the record needs.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
TOP_KEYS = {"topic", "command", "parent_commit", "change_commit", "claimed", "machine",
            "date", "workloads"}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_layout(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert TOP_KEYS <= set(doc), f"missing {sorted(TOP_KEYS - set(doc))}"
    assert doc["workloads"] and set(doc["workloads"]) <= WORKLOADS
    for workload, rows in doc["workloads"].items():
        assert set(rows) == METRICS, workload
        for name, row in rows.items():
            where = f"{workload} {name}"
            for side in ("parent", "change"):
                assert {"median", "q1", "q3"} <= set(row[side]), f"{where} {side}"
            assert 0 <= row["wins"] <= row["pairs"], where
    claimed = doc["claimed"]
    assert doc["workloads"][claimed["workload"]][claimed["metric"]]["gain"] is True
