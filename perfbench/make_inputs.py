#!/usr/bin/env python3
"""Regenerate the committed inputs from the Table-2 configuration.

    python3 perfbench/make_inputs.py

Collects the four training workloads' feature windows on the NVMe stack
(60k keys x 400 B, 512-page cache, 8 MiB memtable, readahead cycling
over 8/32/128/512), trains the readahead classifier on them with a fixed
seed, saves the deployed float32 network (Z-score folded in), sweeps the
best readahead per workload class on both devices, and rewrites
``SHA256SUMS``.  The simulator and the trainer are deterministic, so the
same code writes the same bytes.  Takes about two minutes.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _entry in (os.path.join(ROOT, "src"), ROOT):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np  # noqa: E402

from repro.kml import save_model  # noqa: E402
from repro.readahead import (  # noqa: E402
    WORKLOAD_CLASSES,
    CollectionConfig,
    ReadaheadClassifier,
    TuningTable,
    collect_training_data,
    sweep_best_readahead,
)

from perfbench import inputs  # noqa: E402
from perfbench.storage import CACHE_PAGES, MEMTABLE_BYTES, NUM_KEYS, VALUE_SIZE  # noqa: E402

SEED = 42
TRAIN_SEED = 0
RA_VALUES = (8, 32, 128, 512)
SWEEP_OPS_PER_POINT = 3000


def main() -> int:
    os.makedirs(inputs.INPUT_DIR, exist_ok=True)
    config = CollectionConfig(
        num_keys=NUM_KEYS,
        value_size=VALUE_SIZE,
        cache_pages=CACHE_PAGES,
        memtable_bytes=MEMTABLE_BYTES,
        ra_values=RA_VALUES,
        windows_per_value=3,
        ra_passes=2,
        seed=SEED,
    )
    dataset = collect_training_data(
        config, on_progress=lambda name, n: print(f"collected {n} windows of {name}")
    )
    np.save(inputs.path(inputs.WINDOWS_X_FILE), dataset.x)
    np.save(inputs.path(inputs.WINDOWS_Y_FILE), dataset.y)

    classifier = ReadaheadClassifier(rng=np.random.default_rng(TRAIN_SEED))
    classifier.fit(dataset.x, dataset.y)
    print(f"training accuracy {classifier.accuracy(dataset.x, dataset.y):.3f}")
    save_model(classifier.to_deployable(), inputs.path(inputs.MODEL_FILE))

    table = TuningTable()
    for device in ("nvme", "ssd"):
        partial, _ = sweep_best_readahead(
            device,
            WORKLOAD_CLASSES,
            ra_values=RA_VALUES,
            num_keys=NUM_KEYS,
            value_size=VALUE_SIZE,
            cache_pages=CACHE_PAGES,
            ops_per_point=SWEEP_OPS_PER_POINT,
            memtable_bytes=MEMTABLE_BYTES,
            seed=SEED,
        )
        for workload, ra in partial.table[device].items():
            table.set(device, workload, ra)
    table.save(inputs.path(inputs.TUNING_FILE))
    print(f"tuning table {table.to_json()}")

    inputs.write_sums()
    print(f"wrote {', '.join(inputs.FILES)} and {inputs.SUMS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
