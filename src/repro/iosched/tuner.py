"""Scheduler selection: sweep + KML-style classifier over queue features.

Completes the third use case the same way the readahead study works:
study the problem (sweep schedulers per stream kind and device), derive
features observable at the block layer (read fraction, mean request
size, arrival clustering), train the same 3-layer KML network to
classify the running stream, then actuate the scheduler choice.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..kml.layers import Linear, Sigmoid
from ..kml.losses import CrossEntropyLoss
from ..kml.network import Sequential
from ..kml.optimizers import SGD
from ..stats.zscore import ZScoreNormalizer
from .engine import PositionalDevice, ScheduleResult, simulate
from .requests import ADDRESS_SPACE, IORequest, STREAM_KINDS, make_stream
from .schedulers import SCHEDULER_NAMES, make_scheduler

__all__ = [
    "stream_features",
    "sweep_schedulers",
    "SchedulerSelector",
    "NUM_STREAM_FEATURES",
]

NUM_STREAM_FEATURES = 5


def stream_features(requests: Sequence[IORequest]) -> np.ndarray:
    """Five block-layer-observable features of a request window.

    (i) read fraction, (ii) mean request pages, (iii) mean inter-arrival
    gap, (iv) mean absolute sector delta (sequentiality), (v) sector
    spread (std / address space).
    """
    if not requests:
        raise ValueError("cannot featurize an empty window")
    reads = sum(1 for r in requests if r.is_read)
    pages = np.array([r.n_pages for r in requests], dtype=np.float64)
    arrivals = np.array([r.arrival for r in requests], dtype=np.float64)
    sectors = np.array([r.sector for r in requests], dtype=np.float64)
    gaps = np.diff(arrivals) if len(arrivals) > 1 else np.array([0.0])
    deltas = np.abs(np.diff(sectors)) if len(sectors) > 1 else np.array([0.0])
    return np.array(
        [
            reads / len(requests),
            float(pages.mean()),
            float(gaps.mean()),
            float(deltas.mean()) / ADDRESS_SPACE,
            float(sectors.std()) / ADDRESS_SPACE,
        ]
    )


def sweep_schedulers(
    device: PositionalDevice,
    kinds: Sequence[str] = STREAM_KINDS,
    n_requests: int = 3000,
    seed: int = 42,
) -> Dict[str, Dict[str, ScheduleResult]]:
    """Run every stream kind under every scheduler on one device."""
    results: Dict[str, Dict[str, ScheduleResult]] = {}
    for kind in kinds:
        results[kind] = {}
        for name in SCHEDULER_NAMES:
            rng = np.random.default_rng(seed)
            stream = make_stream(kind, n_requests, rng)
            results[kind][name] = simulate(stream, make_scheduler(name), device)
    return results


def best_scheduler(
    per_scheduler: Dict[str, ScheduleResult], metric: str = "read_p99"
) -> str:
    """Lowest read p99 wins (ties to highest throughput)."""
    def key(name: str):
        result = per_scheduler[name]
        primary = getattr(result, metric)
        if primary == 0.0:  # no reads in the stream: use throughput
            return (0.0, -result.throughput)
        return (primary, -result.throughput)

    return min(per_scheduler, key=key)


class SchedulerSelector:
    """KML network classifying streams, mapped to best schedulers.

    ``fit_from_sweep`` builds the label map from a sweep (the analog of
    the readahead tuning table) and trains on featurized windows of
    generated streams.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.rng = rng or np.random.default_rng()
        self.kinds: Tuple[str, ...] = tuple(STREAM_KINDS)
        self.network = Sequential(
            [
                Linear(NUM_STREAM_FEATURES, 16, rng=self.rng, name="fc1"),
                Sigmoid(),
                Linear(16, 8, rng=self.rng, name="fc2"),
                Sigmoid(),
                Linear(8, len(self.kinds), rng=self.rng, name="fc3"),
            ],
            name="iosched-nn",
        )
        self.normalizer = ZScoreNormalizer()
        self.best_by_kind: Dict[str, str] = {}

    # ------------------------------------------------------------------

    def _dataset(self, windows_per_kind: int, window: int, seed: int):
        xs, ys = [], []
        for label, kind in enumerate(self.kinds):
            rng = np.random.default_rng(seed + label)
            stream = make_stream(kind, windows_per_kind * window, rng)
            for w in range(windows_per_kind):
                chunk = stream[w * window : (w + 1) * window]
                xs.append(stream_features(chunk))
                ys.append(label)
        return np.vstack(xs), np.asarray(ys, dtype=np.int64)

    def fit_from_sweep(
        self,
        device: PositionalDevice,
        windows_per_kind: int = 30,
        window: int = 100,
        epochs: int = 300,
        seed: int = 7,
    ) -> "SchedulerSelector":
        sweep = sweep_schedulers(device, self.kinds, seed=seed)
        self.best_by_kind = {
            kind: best_scheduler(sweep[kind]) for kind in self.kinds
        }
        x, y = self._dataset(windows_per_kind, window, seed)
        normalized = self.normalizer.fit(x).transform(x)
        optimizer = SGD(self.network.parameters(), lr=0.05, momentum=0.9)
        self.network.fit(
            normalized, y, CrossEntropyLoss(), optimizer,
            epochs=epochs, rng=self.rng,
        )
        return self

    # ------------------------------------------------------------------

    def classify(self, requests: Sequence[IORequest]) -> str:
        features = stream_features(requests).reshape(1, -1)
        normalized = self.normalizer.transform(features)
        label = int(self.network.predict_classes(normalized)[0])
        return self.kinds[label]

    def select(self, requests: Sequence[IORequest]) -> str:
        """Scheduler name for the observed window."""
        if not self.best_by_kind:
            raise RuntimeError("selector not fitted")
        return self.best_by_kind[self.classify(requests)]

    def accuracy(self, windows_per_kind: int = 10, window: int = 100,
                 seed: int = 99) -> float:
        x, y = self._dataset(windows_per_kind, window, seed)
        normalized = self.normalizer.transform(x)
        return float(
            np.mean(self.network.predict_classes(normalized) == y)
        )
