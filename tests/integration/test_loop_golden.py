"""Golden test: the closed loop's decisions and the studies built on it.

Every caller of the closed loop -- ``repro run``, the training-data
collection, the readahead and writeback sweeps -- runs the same cold-start
protocol with small differences (the readahead in force while the DB is
populated, whether the knob is set again before the cache drop, where a
collector attaches, which seed drives the workload).  This test pins
what those callers produce, bit for bit:

- agent runs (readrandom and mixgraph on both devices) with the deployed
  model and tuning table committed next to this file: every
  ``(sim_time, predicted_class, ra_pages)`` decision, the throughput,
  the tracepoint hit counts and how often the readahead knob moved;
- the SHA-256 of a small ``collect_training_data`` dataset;
- ``sweep_best_readahead`` curves over readrandom and
  readrandomwriterandom (which writes, so its points share a DB that
  changes between them);
- ``sweep_writeback_configs`` throughputs;
- one UCB1 bandit run per knob it drives (readahead on readrandom,
  writeback on fillrandom): every ``(sim_time, arm)`` pick, the
  throughput, the per-arm mean rewards and the best arm.

The scale is chosen so that every agent run predicts at least two
classes and moves readahead away from 128.  Regenerate the fixture only
for a change that is meant to move the simulator or the model, and say
so in the change description:

    PYTHONPATH=src python tests/integration/test_loop_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.kml import UCB1Tuner, load_model
from repro.readahead import (
    CollectionConfig,
    ReadaheadAgent,
    TuningTable,
    collect_training_data,
    sweep_best_readahead,
)
from repro.workloads import load_stack, run_closed_loop
from repro.writeback import DEFAULT_CONFIGS, sweep_writeback_configs

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "loop_golden.json")
MODEL = os.path.join(HERE, "readahead_nn.kml")
TUNING = os.path.join(HERE, "tuning.json")

AGENT_WORKLOADS = ("readrandom", "mixgraph")
DEVICES = ("nvme", "ssd")

# Agent runs: the deployment protocol of ``repro run``.
NUM_KEYS = 20_000
VALUE_SIZE = 400
CACHE_PAGES = 256
WINDOW_S = 0.05
SIM_SECONDS = 0.3
SMOOTHING = 3
SEED = 42

# Studies: small, with a small memtable so the write workloads flush.
STUDY = dict(num_keys=3000, value_size=200, cache_pages=64)
STUDY_MEMTABLE = 64 << 10
STUDY_OPS = 400
STUDY_SEED = 3

# Bandit runs: enough windows for UCB1 to move past its first round.
BANDIT_RA_ARMS = (8, 32, 128, 512)
BANDIT_RA_WINDOW_S = 0.01
BANDIT_WB = dict(num_keys=8000, value_size=400, cache_pages=256)
BANDIT_WB_MEMTABLE = 128 << 10
BANDIT_WB_SIM_SECONDS = 0.1
BANDIT_WB_WINDOW_S = 0.002


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def agent_run(workload: str, device: str) -> dict:
    """One KML leg of ``repro run``."""
    loaded = load_stack(device, NUM_KEYS, VALUE_SIZE, CACHE_PAGES, seed=SEED)
    model, tuning = load_model(MODEL), TuningTable.load(TUNING)
    result, agent = run_closed_loop(
        loaded,
        workload,
        policy=lambda stack: ReadaheadAgent(
            stack, model, tuning, device, smoothing=SMOOTHING
        ),
        ra_pages=128,
        sim_seconds=SIM_SECONDS,
        window=WINDOW_S,
    )
    stack = loaded.stack
    return {
        "decisions": [
            [d.sim_time, d.predicted_class, d.ra_pages] for d in agent.history
        ],
        "ops": result.ops,
        "throughput": result.throughput,
        "hit_counts": dict(stack.tracepoints.hit_counts),
        "ra_changes": stack.block.ra_changes,
    }


def dataset_digest() -> dict:
    dataset = collect_training_data(
        CollectionConfig(
            ra_values=(8, 64),
            windows_per_value=2,
            ra_passes=1,
            window_s=0.01,
            memtable_bytes=STUDY_MEMTABLE,
            seed=STUDY_SEED,
            **STUDY,
        )
    )
    return {
        "windows": len(dataset),
        "x_sha256": _sha256(np.ascontiguousarray(dataset.x).tobytes()),
        "y": dataset.y.tolist(),
    }


def readahead_sweep() -> dict:
    _, sweep = sweep_best_readahead(
        "ssd",
        ("readrandom", "readrandomwriterandom"),
        ra_values=(8, 32, 128),
        ops_per_point=STUDY_OPS,
        memtable_bytes=STUDY_MEMTABLE,
        seed=STUDY_SEED,
        **STUDY,
    )
    return {
        workload: {str(ra): run.throughput for ra, run in runs.items()}
        for workload, runs in sweep.results.items()
    }


def writeback_sweep() -> dict:
    sweep = sweep_writeback_configs(
        "nvme",
        "fillrandom",
        memtable_bytes=STUDY_MEMTABLE,
        ops_per_point=STUDY_OPS,
        seed=STUDY_SEED,
        **STUDY,
    )
    runs = sweep.results["fillrandom"]
    return {str(config): run.throughput for config, run in runs.items()}


def _bandit_record(result, tuner) -> dict:
    return {
        "history": [[t, str(arm)] for t, arm in tuner.history],
        "throughput": result.throughput,
        "arm_means": {str(arm): mean for arm, mean in tuner.arm_means().items()},
        "best_arm": str(tuner.best_arm),
    }


def readahead_bandit_run() -> dict:
    loaded = load_stack("nvme", NUM_KEYS, VALUE_SIZE, CACHE_PAGES, seed=SEED)
    result, tuner = run_closed_loop(
        loaded,
        "readrandom",
        policy=lambda stack: UCB1Tuner(BANDIT_RA_ARMS, stack.set_readahead),
        ra_pages=128,
        sim_seconds=SIM_SECONDS,
        window=BANDIT_RA_WINDOW_S,
    )
    return _bandit_record(result, tuner)


def writeback_bandit_run() -> dict:
    loaded = load_stack(
        "nvme", memtable_bytes=BANDIT_WB_MEMTABLE, seed=STUDY_SEED,
        **BANDIT_WB,
    )
    result, tuner = run_closed_loop(
        loaded,
        "fillrandom",
        policy=lambda stack: UCB1Tuner(
            DEFAULT_CONFIGS, lambda c: c.apply(stack), exploration=0.5
        ),
        prepare=DEFAULT_CONFIGS[0].apply,
        sim_seconds=BANDIT_WB_SIM_SECONDS,
        window=BANDIT_WB_WINDOW_S,
    )
    return _bandit_record(result, tuner)


BANDIT_RUNS = {"readahead": readahead_bandit_run, "writeback": writeback_bandit_run}


def generate() -> dict:
    return {
        "bandit": {knob: run() for knob, run in BANDIT_RUNS.items()},
        "agent": {
            f"{workload}/{device}": agent_run(workload, device)
            for workload in AGENT_WORKLOADS
            for device in DEVICES
        },
        "dataset": dataset_digest(),
        "readahead_sweep": readahead_sweep(),
        "writeback_sweep": writeback_sweep(),
    }


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("workload", AGENT_WORKLOADS)
def test_agent_run_matches_golden(golden, workload, device):
    expected = golden["agent"][f"{workload}/{device}"]
    # The scale must exercise the loop: two classes, a move off 128.
    assert len({cls for _, cls, _ in expected["decisions"]}) >= 2
    assert any(ra != 128 for _, _, ra in expected["decisions"])
    assert agent_run(workload, device) == expected


def test_collected_dataset_matches_golden(golden):
    assert dataset_digest() == golden["dataset"]


def test_readahead_sweep_matches_golden(golden):
    assert readahead_sweep() == golden["readahead_sweep"]


def test_writeback_sweep_matches_golden(golden):
    assert writeback_sweep() == golden["writeback_sweep"]


@pytest.mark.parametrize("knob", sorted(BANDIT_RUNS))
def test_bandit_run_matches_golden(golden, knob):
    expected = golden["bandit"][knob]
    # The run must get past UCB1's play-every-arm-first round.
    assert len(expected["history"]) > 2 * len(expected["arm_means"])
    assert BANDIT_RUNS[knob]() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with open(FIXTURE, "w") as f:
        json.dump(generate(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {FIXTURE}")
