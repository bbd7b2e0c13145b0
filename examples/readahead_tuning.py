#!/usr/bin/env python
"""The paper's full readahead case study, end to end, at demo scale.

Walks every stage of Figure 1's loop:

  1. populate a mini-LSM database on the simulated NVMe stack,
  2. collect labeled training windows from page-cache tracepoints while
     running the four training workloads,
  3. train the 3-layer sigmoid classifier (SGD lr=0.01, momentum=0.99),
  4. sweep readahead values to build the workload -> best-ra table,
  5. save the model in the KML file format and reload it ("deploy"),
  6. run a never-seen workload (mixgraph) vanilla vs with the closed-
     loop agent tuning readahead once per window.

Run:  python examples/readahead_tuning.py      (~2-4 minutes)
"""

import os
import tempfile

import numpy as np

from repro.kml import load_model, save_model
from repro.readahead import (
    CollectionConfig,
    ReadaheadAgent,
    ReadaheadClassifier,
    collect_training_data,
    sweep_best_readahead,
)
from repro.workloads import load_stack, run_closed_loop

NUM_KEYS = 30_000
VALUE_SIZE = 400
CACHE_PAGES = 256
WINDOW_S = 0.1
SEED = 7


def main():
    # --- 2. collect training data (runs its own workloads internally)
    print("collecting training data from the four paper workloads ...")
    config = CollectionConfig(
        num_keys=NUM_KEYS,
        value_size=VALUE_SIZE,
        cache_pages=CACHE_PAGES,
        ra_values=(8, 32, 128, 512),
        windows_per_value=3,
        ra_passes=2,
        window_s=WINDOW_S,
        seed=SEED,
    )
    dataset = collect_training_data(
        config, on_progress=lambda name, n: print(f"  {name}: {n} windows")
    )
    print(f"dataset: {len(dataset)} windows, classes {dataset.class_counts()}")

    # --- 3. train the paper's network
    clf = ReadaheadClassifier(rng=np.random.default_rng(0))
    clf.fit(dataset.x, dataset.y)
    print(f"training accuracy: {clf.accuracy(dataset.x, dataset.y) * 100:.1f}%")

    # --- 4. build the workload -> best-ra map from a quick sweep
    print("sweeping readahead values on nvme ...")
    tuning, sweep = sweep_best_readahead(
        "nvme",
        ("readseq", "readrandom", "readreverse", "readrandomwriterandom"),
        ra_values=(8, 32, 128, 512),
        num_keys=NUM_KEYS,
        value_size=VALUE_SIZE,
        cache_pages=CACHE_PAGES,
        ops_per_point=2000,
        seed=SEED,
    )
    for workload, runs in sweep.results.items():
        best = sweep.best(workload)
        print(f"  {workload:24s} best ra = {best:4d}   "
              + "  ".join(f"{ra}:{runs[ra].throughput:,.0f}" for ra in sorted(runs)))

    # --- 5. deploy through the KML model file format
    path = os.path.join(tempfile.mkdtemp(), "readahead.kml")
    save_model(clf.to_deployable(), path)
    deployed = load_model(path)
    print(f"model deployed via {path} ({os.path.getsize(path)} bytes)")

    # --- 6. closed loop on a never-seen workload
    def run_mixgraph(agent_enabled):
        loaded = load_stack(
            "nvme", NUM_KEYS, VALUE_SIZE, CACHE_PAGES,
            memtable_bytes=1 << 20, seed=SEED,
        )
        result, agent = run_closed_loop(
            loaded, "mixgraph",
            policy=(
                (lambda stack: ReadaheadAgent(
                    stack, deployed, tuning, "nvme", smoothing=3
                ))
                if agent_enabled
                else None
            ),
            ra_pages=128, sim_seconds=1.2, window=WINDOW_S,
        )
        return result.throughput, agent

    vanilla, _ = run_mixgraph(False)
    tuned, agent = run_mixgraph(True)
    print("\nmixgraph (never seen in training), NVMe:")
    print(f"  vanilla (ra=128): {vanilla:,.0f} ops/s")
    print(f"  KML closed loop : {tuned:,.0f} ops/s  ({tuned / vanilla:.2f}x)")
    print(f"  agent classified windows as: {agent.predicted_class_counts()}")
    print(f"  readahead timeline: {agent.ra_timeline}")


if __name__ == "__main__":
    main()
