"""Reduced-size smoke runs of every workload, through the benchmark's command.

Each run uses ``--size smoke`` (a few images and trials, the same code
paths) and checks the output contract: the last line of standard output is
one JSON object whose metrics are exactly those ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(json.loads(
    (ROOT / "perfbench" / "workloads.json").read_text())["workloads"])


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # Without the test run's PYTHONPATH, as the command is run from a checkout.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_output_contract(workload, trace, tmp_path):
    results = tmp_path / "results.jsonl"
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke",
                 "--results", str(results))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    catalogue = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {metric["name"] for metric in catalogue}
    units = {metric["name"]: metric["unit"] for metric in catalogue}
    for name, entry in last["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    for metric in catalogue:
        assert metric["name"] in done.stdout  # printed by name, with unit

    record = json.loads(results.read_text().splitlines()[-1])
    assert record["env"]["usable_cores"] >= 1
    assert "OPENBLAS_NUM_THREADS" in record["env"]["thread_env"]
    if trace:
        metrics = last["metrics"]
        pool = workload == "sweep-lenet-2w"
        assert (metrics["execution.tasks_shipped"]["value"] > 0) == pool
        assert metrics["nn.conv2d.calls"]["value"] > 0
        assert metrics["sweep.calls"]["value"] >= 1
        if workload == "panel-fig3b":
            assert metrics["nn.backward.busy_s"]["value"] > 0
            assert metrics["core.objective.calls"]["value"] > 0
            assert metrics["scenarios.store_save.calls"]["value"] == 5
    else:
        assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_compare_mode_reads_two_result_files(tmp_path):
    def record(seed, wall):
        return {"workload": WORKLOADS[0], "seed": seed, "trace": 0,
                "attempted": 6, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text("".join(json.dumps(record(s, 10.0)) + "\n"
                              for s in range(10)))
    change.write_text("".join(json.dumps(record(s, 8.0)) + "\n"
                              for s in range(10)))
    done = bench("compare", str(parent), str(change))
    assert done.returncode == 0, done.stderr
    row = done.stdout.splitlines()[1]
    assert row.split()[:2] == [WORKLOADS[0], "wall_s"]
    assert "10/10" in row and "better" in row


def test_compare_mode_one_run_each_is_unresolved(tmp_path):
    def record(wall):
        return json.dumps({"workload": WORKLOADS[0], "seed": 0, "trace": 0,
                           "attempted": 6, "failed": 0,
                           "metrics": {"wall_s": {"value": wall,
                                                  "unit": "s"}}}) + "\n"

    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text(record(10.0))
    change.write_text(record(5.0))
    done = bench("compare", str(parent), str(change))
    assert done.returncode == 0, done.stderr
    row = done.stdout.splitlines()[1]
    assert "1/1" in row and "unresolved" in row and "better" not in row


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
