"""Smoke-length runs of every workload, traced and untraced, pass every
correctness check; without the repository sources the benchmark fails
without printing a result."""

import os
import shutil
import subprocess
import sys

import pytest

from perfbench.common import MIN_OPS
from perfbench.run import ROOT, WORKLOADS, declared_metrics, run_one

#: Boundaries each workload must cross at smoke length.
_CROSSED = {
    "readrandom_collect": (
        "minikv.get", "minikv.sstable_get", "minikv.bloom_probe", "os_sim.read_page",
        "os_sim.device_submit", "os_sim.emit", "readahead.collector_hook",
    ),
    "mixgraph_kml": (
        "minikv.get", "minikv.put", "minikv.scan_next", "minikv.wal_append",
        "os_sim.vfs_write", "os_sim.write_page", "os_sim.emit",
    ),
    "kml_pipeline": (
        "kml.predict", "kml.infer.Linear", "kml.infer.Sigmoid", "kml.train_step",
        "kml.fit", "runtime.buffer_push", "runtime.buffer_pop",
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    result = run_one(workload, seed=7, seconds=0.01, trace=True)
    assert result.failed == 0, result.messages
    assert result.ops == MIN_OPS
    for metric in declared_metrics(trace=False):
        assert result.end_to_end[metric["name"]] > 0
    assert result.per_layer["workloads.step.calls"] == MIN_OPS
    assert result.per_layer["trace.overhead_ratio"] > 0
    for boundary in _CROSSED[workload]:
        assert result.per_layer[boundary + ".calls"] > 0, boundary


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kml_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
