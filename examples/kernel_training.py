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

from repro.kml import CrossEntropyLoss, SGD, UCB1Tuner
from repro.kml.matrix import Matrix
from repro.obs import (
    MetricsRegistry,
    format_report,
    instrument_buffer,
    instrument_memory,
    instrument_tracepoints,
    instrument_trainer,
)
from repro.readahead.features import FeatureCollector
from repro.readahead.model import build_network
from repro.runtime import (
    AsyncTrainer,
    CircularBuffer,
    kernel_environment,
)
from repro.workloads import load_stack, run_closed_loop

NUM_KEYS = 20_000
VALUE_SIZE = 400
CACHE_PAGES = 256


def part1_online_training():
    print("=== part 1: online (in-kernel) training ===")
    env = kernel_environment(reservation=8 << 20)

    loaded = load_stack(
        "nvme", NUM_KEYS, VALUE_SIZE, CACHE_PAGES, memtable_bytes=1 << 20, seed=0
    )

    network = build_network(rng=np.random.default_rng(1))
    optimizer = SGD(network.parameters(), lr=0.01, momentum=0.99)
    loss_fn = CrossEntropyLoss()
    buffer = CircularBuffer(256)
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

    class Sampler:
        """Per-window policy: push the window's features for training."""

        def __init__(self, stack):
            self.collector = FeatureCollector(stack)
            instrument_tracepoints(stack.tracepoints, registry)

        def on_tick(self, t, rate):
            if not buffer.push(self.collector.snapshot()):
                env.kml_log_warn(f"t={t:.1f}: sample dropped (buffer full)")

        def detach(self):
            self.collector.detach()

    with trainer:
        run_closed_loop(
            loaded, "readrandom", policy=Sampler, sim_seconds=1.0,
            window=0.05, rng_seed=2,
        )
    print(f"  samples trained on : {trainer.samples_seen} "
          f"(dropped: {buffer.dropped})")
    print(f"  FPU sections used  : {env.fpu_sections}")
    print(f"  memory in use      : {env.kml_mem_in_use()} B "
          f"(peak {env.kml_mem_peak()} B, reservation 8 MiB)")
    print(format_report(registry))


def part2_bandit_tuner():
    print("\n=== part 2: reinforcement-learning readahead tuner ===")
    loaded = load_stack(
        "ssd", NUM_KEYS, VALUE_SIZE, CACHE_PAGES, memtable_bytes=1 << 20, seed=0
    )

    # Baseline: untouched default.
    baseline = run_closed_loop(
        loaded, "readrandom", sim_seconds=0.6, rng_seed=3
    )[0].throughput

    result, tuner = run_closed_loop(
        loaded, "readrandom",
        policy=lambda stack: UCB1Tuner((8, 32, 128, 512), stack.set_readahead),
        ra_pages=128, sim_seconds=1.5, window=0.05, rng_seed=3,
    )
    tuned = result.throughput

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
