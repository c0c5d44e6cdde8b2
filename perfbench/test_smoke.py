"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 -m pytest perfbench/test_smoke.py -q

For each workload it runs the benchmark untraced and traced, checks the
result line against BENCHMARK.json, and checks that traced busy time fits
in the traced wall time.  It also checks that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
from workloads import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402


def run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    return res["metrics"]


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    for name, m in metrics.items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_busy_time_fits_in_wall_time(workload):
    metrics = result(workload, 1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    value = {k: v["value"] for k, v in metrics.items()}
    wall = value["trace.wall_s"]
    workers = WORKLOADS[workload].workers
    # the main thread plus each harness worker is busy at most `wall`
    slack = 1e-6 * value["trace.spans"] + 1e-3
    assert sum(value["%s.self_s" % lay] for lay in LAYERS) \
        <= wall * (1 + workers) + slack
    assert value["bench.worker_busy_s"] <= wall * workers + slack
    assert value["solver.svt.busy_s"] <= wall * max(1, workers) + slack


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "pipeline", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
