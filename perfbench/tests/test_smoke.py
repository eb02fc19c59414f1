"""Smoke test of the benchmark: every workload once on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
It checks the correctness gates and that every metric named in
``BENCHMARK.json`` is reported with its unit; it never asserts on time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_passes_its_gates(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] == 1 + trace

    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in metrics.items()}
    values = {k: v["value"] for k, v in metrics.items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # Self times of all layers account for the whole traced job.
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(values["trace.wall_s"], rel=1e-9)
    if workload == "tune_kfold":
        assert values["ga.individuals_scored"] > 0
        assert 0 <= values["ga.cache_hit_ratio"] < 1
        assert values["ga.evaluate_config.calls"] > 0
    else:
        assert values["synopses.critical_points"] > 0
        assert values["geo.segment_velocity.per_report"] > 0


def test_all_runs_every_workload():
    proc = _run(ROOT, "all", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in CONTRACT["end_to_end"]
    }


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
