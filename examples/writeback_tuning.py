#!/usr/bin/env python
"""Second use case: tuning page-cache writeback with KML machinery.

The paper's future work (section 6) extends KML beyond readahead to
other storage subsystems, naming the page cache.  This example sweeps
the writeback policy space — how many dirty pages may accumulate and
how large each writeback I/O becomes — for a write-heavy workload,
then shows the online feedback tuner discovering the good region from
throughput rewards alone, starting from the *worst* policy.

Run:  python examples/writeback_tuning.py    (~1 minute)
"""

from repro.kml import UCB1Tuner
from repro.workloads import load_stack, run_closed_loop
from repro.writeback import DEFAULT_CONFIGS, sweep_writeback_configs

NUM_KEYS = 20_000
VALUE_SIZE = 400
CACHE_PAGES = 512
MEMTABLE = 1 << 20  # small: keep the write path busy


def main():
    print("sweeping writeback policies for fillrandom ...")
    for device in ("nvme", "ssd"):
        sweep = sweep_writeback_configs(
            device,
            "fillrandom",
            num_keys=NUM_KEYS,
            value_size=VALUE_SIZE,
            cache_pages=CACHE_PAGES,
            memtable_bytes=MEMTABLE,
            ops_per_point=3000,
        )
        print(f"  {device}:")
        for config, throughput in sweep.rows():
            print(f"    {config:22s} {throughput:>10,.0f} ops/s")
        print(f"    best: {sweep.best()}")

    print("\nonline tuner, starting pinned at the worst policy (ssd) ...")
    loaded = load_stack(
        "ssd", NUM_KEYS, VALUE_SIZE, CACHE_PAGES, memtable_bytes=MEMTABLE, seed=0
    )
    result, tuner = run_closed_loop(
        loaded, "fillrandom",
        policy=lambda stack: UCB1Tuner(
            DEFAULT_CONFIGS, lambda c: c.apply(stack), exploration=0.5
        ),
        prepare=DEFAULT_CONFIGS[0].apply,  # eager, unbatched: the worst arm
        sim_seconds=0.2, window=0.002,
    )
    print(f"  tuned throughput : {result.throughput:,.0f} ops/s")
    print(f"  converged config : {tuner.best_arm}")
    print("  arm means        :")
    for config, mean in tuner.arm_means().items():
        print(f"    {str(config):22s} {mean:.3f}")


if __name__ == "__main__":
    main()
