"""The schema of the BENCH_*.json benchmark records at the repository root.

Each record keeps the result line of every parent and change run that a
performance change reports, with the machine it ran on, so that records
from different changes can be compared.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
MACHINE = {"nproc", "cpu_model", "python", "numpy", "openblas_core"}
RUN = {"side", "workload", "seed", "seconds", "trace", "result"}
AB = {"pairs", "parent_median", "change_median", "median_paired_diff", "change_faster"}


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert MACHINE <= set(record["machine"])
    assert isinstance(record["machine"]["nproc"], int)
    runs = record["runs"]
    assert {run["side"] for run in runs} == {"parent", "change"}
    for run in runs:
        assert RUN <= set(run), run
        assert run["workload"] in WORKLOADS
        assert isinstance(run["seed"], int) and run["seconds"] > 0 and run["trace"] in (0, 1)
        result = run["result"]
        assert result["correct"] is True, run
        assert result["failed"] == 0 and result["attempted"] > 0
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    # in_process_ab: one {name: paired result} per in-process A/B run, parent and change in one process
    for ab_run in record.get("in_process_ab", []):
        for name, row in ab_run.items():
            assert set(row) == AB, name
            assert isinstance(row["pairs"], int) and 0 <= row["change_faster"] <= row["pairs"], name
            assert all(isinstance(row[k], (int, float)) for k in AB), name
