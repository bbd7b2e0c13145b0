"""Shared scale parameters and helpers for the benchmark harness.

Every benchmark measures *simulated* throughput (ops per simulated
second) on the discrete-event storage stack; wall time only matters for
the microbenchmarks in bench_overheads.py.  The scale constants below
put the dataset an order of magnitude above the page cache, the regime
the paper's RocksDB runs were in.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

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


# ----------------------------------------------------------------------
# Overhead gates (bench_obs_overhead.py, bench_faults_overhead.py)
# ----------------------------------------------------------------------

#: ``(base ops/s, instrumented ops/s, fractional overhead)``.
Overhead = Tuple[float, float, float]


def gate_iters(full: int, smoke: bool) -> int:
    """Iteration count for one timed run: a tenth of ``full`` in smoke mode."""
    return full // 10 if smoke else full


def min_overhead_pair(
    run_base: Callable[[], float],
    run_inst: Callable[[], float],
    repeats: int,
) -> Overhead:
    """(base ops/s, inst ops/s, overhead) from the best interleaved pair.

    Base and instrumented runs alternate back-to-back so both see the
    same machine conditions, and the pair with the *lowest* overhead
    wins -- timeit-style reasoning: the intrinsic instrumentation cost
    is a floor, anything above it in a given pair is scheduler or
    frequency noise.
    """
    run_base(), run_inst()  # warm up caches / allocators
    best: Optional[Overhead] = None
    for _ in range(repeats):
        base = run_base()
        inst = run_inst()
        overhead = base / inst - 1.0
        if best is None or overhead < best[2]:
            best = (base, inst, overhead)
    assert best is not None
    return best


def buffer_rate(buf, iters: int) -> float:
    """Push+pop pairs per second through a circular buffer."""
    push, pop = buf.push, buf.pop
    t0 = time.perf_counter()
    for i in range(iters):
        push(i)
        pop()
    return iters / (time.perf_counter() - t0)


def _gate_row(name: str, result: Overhead) -> str:
    base, inst, overhead = result
    return (
        f"{name:<30} {base / 1e6:>10.2f} {inst / 1e6:>12.2f} "
        f"{overhead * 100:>9.1f}%"
    )


def run_overhead_gate(
    title: str,
    inst_column: str,
    cases: Sequence[Tuple[str, Callable[..., Overhead], bool]],
    max_overhead: float,
    budget_note: str,
    result_file: str,
    smoke: bool = False,
    info_note: str = "",
) -> int:
    """Measure each ``(name, measure, budgeted)`` case and gate the worst.

    ``measure(smoke=...)`` returns an :data:`Overhead`.  Budgeted rows
    come first, then the budget line, then the informational rows and
    ``info_note``.  A full run writes ``result_file``; a smoke run only
    prints.  Returns 1 when a budgeted overhead reaches ``max_overhead``.
    """
    results = [(name, measure(smoke=smoke), budgeted)
               for name, measure, budgeted in cases]
    lines = [title, f"{'hot path':<30} {'base Mop/s':>10} "
                    f"{inst_column + ' Mop/s':>12} {'overhead':>10}"]
    lines += [_gate_row(name, r) for name, r, budgeted in results if budgeted]
    lines.append(f"budget: < {max_overhead * 100:.0f}% {budget_note}")
    info = [_gate_row(name, r) for name, r, budgeted in results if not budgeted]
    if info:
        lines += info + [info_note]
    text = "\n".join(lines)
    if smoke:
        print("\n" + text)
    else:
        write_result(result_file, text)
    worst = max(r[2] for _, r, budgeted in results if budgeted)
    if worst >= max_overhead:
        print(
            f"FAIL: worst budgeted overhead {worst * 100:.1f}% exceeds "
            f"{max_overhead * 100:.0f}% budget"
        )
        return 1
    return 0


def gate_main(description: str, run: Callable[..., int], argv=None) -> int:
    """Command line of an overhead gate: ``--smoke`` for fewer iterations."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--smoke", action="store_true",
                        help="fewer iterations (CI smoke mode)")
    return run(smoke=parser.parse_args(argv).smoke)
