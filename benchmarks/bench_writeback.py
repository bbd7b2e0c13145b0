"""A3 -- Second use case: KML-style tuning of page-cache writeback.

The paper's future work (section 6) applies KML to further subsystems,
naming the page cache.  This bench runs the writeback case study:
sweep the (dirty-threshold, batch) policy space for write-heavy
workloads on both devices, then let the feedback tuner find the good
region online.

Expected shapes: eager unbatched writeback is far worse than batched
(per-request latency dominates), the spread is larger on the SSD, and
the online tuner lands on a batched configuration.
"""

import pytest

from common import write_result

from repro.kml import UCB1Tuner
from repro.workloads import load_stack, run_closed_loop
from repro.writeback import DEFAULT_CONFIGS, sweep_writeback_configs

NUM_KEYS = 30_000
VALUE_SIZE = 400
CACHE_PAGES = 512
MEMTABLE = 1 << 20  # small on purpose: the write path is the subject


@pytest.mark.benchmark(group="writeback")
def test_writeback_policy_sweep(benchmark):
    sweeps = {}

    def run_all():
        for device in ("nvme", "ssd"):
            for workload in ("fillrandom", "updaterandom"):
                sweeps[(device, workload)] = sweep_writeback_configs(
                    device,
                    workload,
                    num_keys=NUM_KEYS,
                    value_size=VALUE_SIZE,
                    cache_pages=CACHE_PAGES,
                    memtable_bytes=MEMTABLE,
                    ops_per_point=3000,
                )
        return sweeps

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = ["Writeback policy sweep (ops/sim-sec per configuration)"]
    for (device, workload), sweep in sorted(sweeps.items()):
        rows = "  ".join(f"{c}:{t:,.0f}" for c, t in sweep.rows())
        lines.append(f"{device:5s} {workload:12s} best={sweep.best()}  {rows}")
    write_result("writeback_sweep.txt", "\n".join(lines))

    for device in ("nvme", "ssd"):
        sweep = sweeps[(device, "fillrandom")]
        worst = min(sweep.throughput, key=lambda c: sweep.throughput[c])
        assert worst.writeback_batch == 1  # eager unbatched loses
        assert sweep.throughput[sweep.best()] > 1.5 * sweep.throughput[worst]
    # Bigger spread on the slower device.
    def spread(device):
        t = sweeps[(device, "fillrandom")].throughput
        return max(t.values()) / min(t.values())

    assert spread("ssd") > spread("nvme")


@pytest.mark.benchmark(group="writeback")
def test_online_tuner_beats_worst_policy(benchmark):
    outcome = {}

    def run_fillrandom(policy=None):
        loaded = load_stack(
            "ssd", NUM_KEYS, VALUE_SIZE, CACHE_PAGES, memtable_bytes=MEMTABLE
        )
        # Start from the worst policy; a tuner must climb out.
        return run_closed_loop(
            loaded, "fillrandom", policy=policy,
            prepare=DEFAULT_CONFIGS[0].apply, sim_seconds=0.2, window=0.002,
        )

    def run_tuned():
        result, outcome["tuner"] = run_fillrandom(
            lambda stack: UCB1Tuner(
                DEFAULT_CONFIGS, lambda c: c.apply(stack), exploration=0.5
            )
        )
        outcome["tuned"] = result.throughput
        outcome["pinned"] = run_fillrandom()[0].throughput
        return outcome

    benchmark.pedantic(run_tuned, rounds=1, iterations=1)

    tuner = outcome["tuner"]
    lines = [
        "Online writeback tuner (UCB1) starting from the worst policy",
        f"pinned worst policy : {outcome['pinned']:,.0f} ops/s",
        f"online tuner        : {outcome['tuned']:,.0f} ops/s "
        f"({outcome['tuned'] / outcome['pinned']:.2f}x)",
        f"converged config    : {tuner.best_arm}",
    ]
    write_result("writeback_tuner.txt", "\n".join(lines))

    assert outcome["tuned"] > outcome["pinned"] * 1.2
    assert tuner.best_arm.writeback_batch > 1
