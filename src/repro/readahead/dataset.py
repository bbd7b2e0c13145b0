"""Labeled training-data collection for the readahead classifier.

Reproduces the paper's pipeline: run the four training workloads on the
NVMe stack under several readahead settings, let the
:class:`FeatureCollector` observe the page-cache tracepoints, and cut a
labeled feature vector at every window boundary.

One knob deviates from the paper and is documented in DESIGN.md: the
paper's window is 1 wall-clock second over minutes-long runs; our runs
last a few simulated seconds, so the default window is 0.1 simulated
seconds -- the feature *definitions* are identical and the window length
is configurable end-to-end (collection, training, and the online agent
all share it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..os_sim.stack import StorageStack
from ..workloads import load_stack, run_closed_loop
from .features import FeatureCollector
from .model import WORKLOAD_CLASSES

__all__ = ["Dataset", "CollectionConfig", "collect_training_data"]

#: Readahead values the collector cycles through, so the model sees
#: feature (v) varying -- mirroring the paper's empirical study runs.
DEFAULT_RA_VALUES = (8, 32, 128, 512)

DEFAULT_WINDOW_S = 0.1


@dataclass
class Dataset:
    """Feature matrix + integer labels + bookkeeping."""

    x: np.ndarray
    y: np.ndarray
    classes: Tuple[str, ...] = WORKLOAD_CLASSES
    feature_names: Tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y length mismatch")

    def __len__(self) -> int:
        return len(self.y)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=len(self.classes))

    def merge(self, other: "Dataset") -> "Dataset":
        if self.classes != other.classes:
            raise ValueError("cannot merge datasets with different classes")
        return Dataset(
            np.vstack([self.x, other.x]),
            np.concatenate([self.y, other.y]),
            self.classes,
            self.feature_names,
        )


@dataclass
class CollectionConfig:
    """Scale parameters for a collection run."""

    device: str = "nvme"
    workloads: Sequence[str] = WORKLOAD_CLASSES
    ra_values: Sequence[int] = DEFAULT_RA_VALUES
    windows_per_value: int = 4    # windows before the ra knob moves
    ra_passes: int = 2            # shuffled passes over ra_values
    window_s: float = DEFAULT_WINDOW_S
    num_keys: int = 60_000
    value_size: int = 400
    cache_pages: int = 512
    # Must match the deployment DB configuration: the SSTable layout
    # shapes the offset features, so train and eval must agree on it.
    memtable_bytes: int = 8 << 20
    skip_first_windows: int = 1   # drop the cold-start transient
    seed: int = 42

    @property
    def windows_per_run(self) -> int:
        return self.windows_per_value * len(self.ra_values) * self.ra_passes


class _ScheduledCollection:
    """Collection policy: a feature sample per window, ra on a schedule.

    The readahead moves to the next ``schedule`` entry every
    ``windows_per_value`` windows; the collector attaches before the
    first value is set.
    """

    def __init__(
        self, stack: StorageStack, schedule: List[int], windows_per_value: int
    ):
        self.stack = stack
        self.schedule = schedule
        self.windows_per_value = windows_per_value
        self.collector = FeatureCollector(stack)
        self.samples: List[np.ndarray] = []
        stack.set_readahead(schedule[0])

    def on_tick(self, sim_time: float, rate: float) -> None:
        self.samples.append(self.collector.snapshot())
        slot = len(self.samples) // self.windows_per_value
        if slot < len(self.schedule):
            self.stack.set_readahead(self.schedule[slot])

    def detach(self) -> None:
        self.collector.detach()


def collect_training_data(
    config: Optional[CollectionConfig] = None,
    on_progress: Optional[Callable[[str, int], None]] = None,
) -> Dataset:
    """Run the training workloads and return a labeled dataset.

    Collection mimics *deployment*: one continuous run per workload
    during which the readahead knob moves at window boundaries (a
    shuffled cycle over ``ra_values``), with the collector's cumulative
    statistics carrying across the changes -- exactly the feature
    dynamics the closed-loop agent will see.  Training on per-ra runs
    with reset statistics leaves the model blind to those mixed-state
    windows and makes the closed loop oscillate.
    """
    config = config or CollectionConfig()
    xs: List[np.ndarray] = []
    ys: List[int] = []
    shuffle_rng = np.random.default_rng(config.seed + 777)
    for label, name in enumerate(config.workloads):
        loaded = load_stack(
            config.device, config.num_keys, config.value_size,
            config.cache_pages, memtable_bytes=config.memtable_bytes,
            seed=config.seed, ra_pages=config.ra_values[0],
        )
        # The ra schedule: shuffled passes so transitions vary.
        schedule: List[int] = []
        for _ in range(config.ra_passes):
            values = list(config.ra_values)
            shuffle_rng.shuffle(values)
            schedule.extend(values)
        _, policy = run_closed_loop(
            loaded, name,
            policy=lambda stack: _ScheduledCollection(
                stack, schedule, config.windows_per_value
            ),
            sim_seconds=(config.windows_per_run + 0.5) * config.window_s,
            window=config.window_s, rng_seed=config.seed + label,
        )
        kept = policy.samples[config.skip_first_windows :]
        xs.extend(kept)
        ys.extend([label] * len(kept))
        if on_progress is not None:
            on_progress(name, len(kept))
    if not xs:
        raise RuntimeError("collection produced no samples; runs too short")
    return Dataset(
        np.vstack(xs),
        np.asarray(ys, dtype=np.int64),
        tuple(config.workloads),
        tuple(FeatureCollector.feature_names()),
    )
