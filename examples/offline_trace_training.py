#!/usr/bin/env python
"""Offline training from recorded traces (the paper's deployment flow).

Section 4: the deployed model was trained on data "collected ... using
LTTng tracepoints", offline, in user space.  This example runs that
exact pipeline on the simulator:

  1. record each training workload's tracepoint stream to a .ktrace file
     (the LTTng stand-in),
  2. later — with no storage stack running — extract labeled feature
     windows from the trace files,
  3. train the readahead network on them,
  4. save the deployable model in the KML file format,
  5. verify the deployed model classifies a freshly recorded trace.

Run:  python examples/offline_trace_training.py    (~1-2 minutes)
"""

import os
import tempfile

import numpy as np

from repro.kml import load_model, save_model
from repro.readahead import (
    ReadaheadClassifier,
    TraceWriter,
    dataset_from_traces,
    read_trace,
)
from repro.workloads import load_stack, run_workload, workload_by_name

NUM_KEYS = 20_000
VALUE_SIZE = 400
CACHE_PAGES = 256
WORKLOADS = ("readseq", "readrandom", "readreverse", "readrandomwriterandom")


def record(workload_name: str, path: str, seed: int = 0) -> int:
    """Run one workload with the trace recorder attached."""
    loaded = load_stack("nvme", NUM_KEYS, VALUE_SIZE, CACHE_PAGES, seed=seed)
    stack = loaded.stack
    stack.drop_caches()
    with TraceWriter(stack, path) as writer:
        # Vary the readahead knob mid-run so feature (v) is informative;
        # the three segments share one warm page cache.
        for i, ra in enumerate((8, 64, 512)):
            stack.set_readahead(ra)
            workload = workload_by_name(workload_name, NUM_KEYS, VALUE_SIZE)
            run_workload(
                stack, loaded.db, workload, n_ops=10**9,
                rng=np.random.default_rng(seed + i),
                max_sim_seconds=0.25,
            )
        return writer.records_written


def main():
    workdir = tempfile.mkdtemp(prefix="ktrace-")
    print(f"recording traces into {workdir} ...")
    labeled = []
    for label, name in enumerate(WORKLOADS):
        path = os.path.join(workdir, f"{name}.ktrace")
        count = record(name, path)
        size_kb = os.path.getsize(path) / 1024
        print(f"  {name:24s} {count:>8,d} events  ({size_kb:,.0f} KiB)")
        labeled.append((path, label))

    print("\nextracting features offline (no storage stack involved) ...")
    dataset = dataset_from_traces(labeled, window_s=0.1)
    print(f"  {len(dataset)} windows, class counts {dataset.class_counts()}")

    clf = ReadaheadClassifier(rng=np.random.default_rng(0))
    clf.fit(dataset.x, dataset.y)
    print(f"  training accuracy: {clf.accuracy(dataset.x, dataset.y) * 100:.1f}%")

    model_path = os.path.join(workdir, "readahead.kml")
    save_model(clf.to_deployable(), model_path)
    deployed = load_model(model_path)
    print(f"  deployed to {model_path} ({os.path.getsize(model_path)} bytes)")

    print("\nverifying against a freshly recorded readrandom trace ...")
    probe_path = os.path.join(workdir, "probe.ktrace")
    record("readrandom", probe_path, seed=99)
    probe = dataset_from_traces([(probe_path, 1)], window_s=0.1)
    predictions = deployed.predict_classes(probe.x)
    accuracy = float(np.mean(predictions == 1))
    print(f"  windows classified as readrandom: {accuracy * 100:.0f}%")
    sample_events = [e.name for e in list(read_trace(probe_path))[:5]]
    print(f"  first events in the probe trace: {sample_events}")


if __name__ == "__main__":
    main()
