#!/usr/bin/env python
"""In-"kernel" training: the async trainer + circular buffer + RL tuner.

The paper supports training inside the kernel (section 3.3) via the
lock-free circular buffer and the asynchronous training thread, and
proposes reinforcement learning as future work for workloads outside
the training set.  This example demonstrates both:

  part 1 -- feature samples flow from the agent's collection hooks
            through the circular buffer into an AsyncTrainer that
            updates a network online, inside the kernel-profile
            environment (memory reservation + FPU bracketing);
  part 2 -- the UCB1 bandit tunes readahead from throughput feedback
            alone, no offline dataset at all.

Run:  python examples/kernel_training.py
"""

import numpy as np

from repro.kml import CrossEntropyLoss, SGD
from repro.kml.matrix import Matrix
from repro.minikv import DBOptions, MiniKV
from repro.obs import (
    MetricsRegistry,
    format_report,
    instrument_buffer,
    instrument_memory,
    instrument_tracepoints,
    instrument_trainer,
)
from repro.os_sim import make_stack
from repro.readahead import BanditReadaheadTuner
from repro.readahead.features import FeatureCollector
from repro.readahead.model import build_network
from repro.runtime import (
    AsyncTrainer,
    CircularBuffer,
    kernel_environment,
)
from repro.workloads import populate_db, run_workload, workload_by_name

NUM_KEYS = 20_000
VALUE_SIZE = 400
CACHE_PAGES = 256


def part1_online_training():
    print("=== part 1: online (in-kernel) training ===")
    env = kernel_environment(reservation=8 << 20)

    stack = make_stack("nvme", ra_pages=128, cache_pages=CACHE_PAGES)
    db = MiniKV(stack, DBOptions(memtable_bytes=1 << 20))
    populate_db(db, NUM_KEYS, VALUE_SIZE, np.random.default_rng(0))
    stack.drop_caches()

    network = build_network(rng=np.random.default_rng(1))
    optimizer = SGD(network.parameters(), lr=0.01, momentum=0.99)
    loss_fn = CrossEntropyLoss()
    buffer = CircularBuffer(256)
    collector = FeatureCollector(stack)
    label = 1  # we know readrandom is running: self-supervision stand-in

    def train_on_batch(batch):
        # The training thread owns the FPU section, exactly as in the
        # paper: collection paths never touch floating point.
        env.kml_fpu_begin()
        try:
            for features in batch:
                x = Matrix(np.asarray(features).reshape(1, -1), dtype="float32")
                network.train_step(x, [label], loss_fn, optimizer)
        finally:
            env.kml_fpu_end()

    trainer = AsyncTrainer(buffer, train_fn=train_on_batch)
    # Instrument before the run so every push and batch is timed.
    registry = MetricsRegistry()
    instrument_buffer(buffer, registry, sample_mask=0)
    instrument_trainer(trainer, registry)
    instrument_memory(env.memory, registry)
    instrument_tracepoints(stack.tracepoints, registry)
    workload = workload_by_name("readrandom", NUM_KEYS, VALUE_SIZE)

    def on_tick(t, rate):
        sample = collector.snapshot()
        if not buffer.push(sample):
            env.kml_log_warn(f"t={t:.1f}: sample dropped (buffer full)")

    with trainer:
        run_workload(
            stack, db, workload, n_ops=10**9, rng=np.random.default_rng(2),
            tick_interval=0.05, on_tick=on_tick, max_sim_seconds=1.0,
        )
    collector.detach()
    print(f"  samples trained on : {trainer.samples_seen} "
          f"(dropped: {buffer.dropped})")
    print(f"  FPU sections used  : {env.fpu_sections}")
    print(f"  memory in use      : {env.kml_mem_in_use()} B "
          f"(peak {env.kml_mem_peak()} B, reservation 8 MiB)")
    print(format_report(registry))


def part2_bandit_tuner():
    print("\n=== part 2: reinforcement-learning readahead tuner ===")
    stack = make_stack("ssd", ra_pages=128, cache_pages=CACHE_PAGES)
    db = MiniKV(stack, DBOptions(memtable_bytes=1 << 20))
    populate_db(db, NUM_KEYS, VALUE_SIZE, np.random.default_rng(0))
    stack.drop_caches()

    # Baseline: untouched default.
    workload = workload_by_name("readrandom", NUM_KEYS, VALUE_SIZE)
    baseline = run_workload(
        stack, db, workload, n_ops=10**9, rng=np.random.default_rng(3),
        max_sim_seconds=0.6,
    ).throughput

    stack.set_readahead(128)
    stack.drop_caches()
    tuner = BanditReadaheadTuner(stack, arms=(8, 32, 128, 512))
    workload = workload_by_name("readrandom", NUM_KEYS, VALUE_SIZE)
    tuned = run_workload(
        stack, db, workload, n_ops=10**9, rng=np.random.default_rng(3),
        tick_interval=0.05, on_tick=tuner.on_tick, max_sim_seconds=1.5,
    ).throughput

    print(f"  vanilla (ra=128)      : {baseline:,.0f} ops/s")
    print(f"  bandit-tuned          : {tuned:,.0f} ops/s "
          f"({tuned / baseline:.2f}x)")
    print(f"  arm mean rewards      : "
          + ", ".join(f"ra={arm}:{mean:.2f}"
                      for arm, mean in tuner.arm_means().items()))
    print(f"  converged best arm    : ra={tuner.best_arm}")


if __name__ == "__main__":
    part1_online_training()
    part2_bandit_tuner()
