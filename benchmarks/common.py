"""Shared scale parameters and helpers for the benchmark harness.

Every benchmark measures *simulated* throughput (ops per simulated
second) on the discrete-event storage stack; wall time only matters for
the microbenchmarks in bench_overheads.py.  The scale constants below
put the dataset an order of magnitude above the page cache, the regime
the paper's RocksDB runs were in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.readahead import ReadaheadAgent, TuningTable
from repro.workloads import load_stack, run_closed_loop

# ----------------------------------------------------------------------
# Scale
# ----------------------------------------------------------------------

NUM_KEYS = 60_000
VALUE_SIZE = 400
CACHE_PAGES = 512          # dataset ~15k pages >> cache
# Sized like RocksDB's (64 MiB default) relative to a seconds-long run:
# update workloads must not flush+compact *inside* a measurement window,
# or the write-path cost (identical at any readahead) swamps the ratio.
MEMTABLE_BYTES = 8 << 20
VANILLA_RA = 128           # Linux default
WINDOW_S = 0.1             # agent/collection window (see DESIGN.md)
SEED = 42

#: Simulated seconds per Table-2 run, per workload.  Sequential
#: workloads execute hundreds of thousands of ops per simulated second,
#: so they get shorter (but still multi-window) runs.
SIM_SECONDS: Dict[str, float] = {
    "readseq": 0.5,
    "readreverse": 0.5,
    "readrandom": 2.5,
    "readrandomwriterandom": 2.5,
    "updaterandom": 2.5,
    "mixgraph": 2.5,
}

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "_artifacts")
RESULT_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Paper Table 2, for side-by-side reporting.
PAPER_TABLE2 = {
    ("readseq", "nvme"): 0.96,
    ("readseq", "ssd"): 1.02,
    ("readrandom", "nvme"): 1.65,
    ("readrandom", "ssd"): 2.30,
    ("readreverse", "nvme"): 1.04,
    ("readreverse", "ssd"): 1.12,
    ("readrandomwriterandom", "nvme"): 1.55,
    ("readrandomwriterandom", "ssd"): 2.20,
    ("updaterandom", "nvme"): 1.53,
    ("updaterandom", "ssd"): 2.22,
    ("mixgraph", "nvme"): 1.51,
    ("mixgraph", "ssd"): 2.09,
}


def ensure_dirs() -> None:
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    os.makedirs(RESULT_DIR, exist_ok=True)


def write_result(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    ensure_dirs()
    print("\n" + text)
    with open(os.path.join(RESULT_DIR, name), "w") as f:
        f.write(text + "\n")


# ----------------------------------------------------------------------
# Run helpers
# ----------------------------------------------------------------------


def run_loop(
    device: str,
    workload_name: str,
    policy=None,
    sim_seconds: Optional[float] = None,
    seed: int = SEED,
):
    """One Table-2 run under ``policy`` on a freshly populated cold stack.

    Returns the run and the policy, as ``run_closed_loop`` does.
    """
    loaded = load_stack(
        device, NUM_KEYS, VALUE_SIZE, CACHE_PAGES,
        memtable_bytes=MEMTABLE_BYTES, seed=seed, ra_pages=VANILLA_RA,
    )
    return run_closed_loop(
        loaded,
        workload_name,
        policy=policy,
        ra_pages=VANILLA_RA,
        sim_seconds=(
            sim_seconds if sim_seconds is not None else SIM_SECONDS[workload_name]
        ),
        window=WINDOW_S,
    )


@dataclass
class PairResult:
    """One vanilla-vs-KML measurement."""

    workload: str
    device: str
    vanilla: float
    kml: float
    predictions: Dict[str, int]

    @property
    def ratio(self) -> float:
        return self.kml / self.vanilla if self.vanilla else 0.0


def run_pair(
    device: str,
    workload_name: str,
    deployable,
    tuning: TuningTable,
    smoothing: int = 3,
    sim_seconds: Optional[float] = None,
    seed: int = SEED,
) -> PairResult:
    """Measure the same workload under vanilla and KML-tuned readahead."""
    vanilla, _ = run_loop(device, workload_name, None, sim_seconds, seed)
    kml, agent = run_loop(
        device,
        workload_name,
        lambda stack: ReadaheadAgent(
            stack, deployable, tuning, device, smoothing=smoothing
        ),
        sim_seconds,
        seed,
    )
    return PairResult(
        workload_name, device, vanilla.throughput, kml.throughput,
        agent.predicted_class_counts(),
    )
