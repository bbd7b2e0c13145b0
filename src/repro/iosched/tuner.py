"""Scheduler selection: sweep + KML-style classifier over queue features.

Completes the third use case the same way the readahead study works:
study the problem (sweep schedulers per stream kind and device), derive
features observable at the block layer (read fraction, mean request
size, arrival clustering), train the readahead classifier recipe
(:class:`repro.kml.classifier.NeuralClassifier`, with smaller sizes) to
classify the running stream, then actuate the scheduler choice.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..kml.classifier import NeuralClassifier
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
    device: PositionalDevice, n_requests: int = 3000, seed: int = 42
) -> Dict[str, Dict[str, ScheduleResult]]:
    """Run every stream kind under every scheduler on one device."""
    results: Dict[str, Dict[str, ScheduleResult]] = {}
    for kind in STREAM_KINDS:
        results[kind] = {}
        for name in SCHEDULER_NAMES:
            rng = np.random.default_rng(seed)
            stream = make_stream(kind, n_requests, rng)
            results[kind][name] = simulate(stream, make_scheduler(name), device)
    return results


def best_scheduler(per_scheduler: Dict[str, ScheduleResult]) -> str:
    """Lowest read p99 wins, ties to highest throughput.

    A stream with no reads has a read p99 of 0 under every scheduler,
    so throughput alone decides it.
    """
    return min(
        per_scheduler,
        key=lambda name: (
            per_scheduler[name].read_p99, -per_scheduler[name].throughput
        ),
    )


class SchedulerSelector:
    """KML classifier over streams, mapped to best schedulers.

    ``fit_from_sweep`` builds the label map from a sweep (the analog of
    the readahead tuning table) and trains ``classifier`` on featurized
    windows of generated streams.  ``rng`` draws the classifier's
    initial weights, then shuffles its training.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.rng = rng or np.random.default_rng()
        self.classifier: Optional[NeuralClassifier] = None
        self.best_by_kind: Dict[str, str] = {}

    # ------------------------------------------------------------------

    def _dataset(self, windows_per_kind: int, window: int, seed: int):
        xs, ys = [], []
        for label, kind in enumerate(STREAM_KINDS):
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
        sweep = sweep_schedulers(device, seed=seed)
        self.best_by_kind = {
            kind: best_scheduler(per) for kind, per in sweep.items()
        }
        self.classifier = NeuralClassifier(
            NUM_STREAM_FEATURES, len(STREAM_KINDS), hidden=(16, 8), lr=0.05,
            momentum=0.9, epochs=epochs, name="iosched-nn", rng=self.rng,
        ).fit(*self._dataset(windows_per_kind, window, seed))
        return self

    # ------------------------------------------------------------------

    def classify(self, requests: Sequence[IORequest]) -> str:
        if self.classifier is None:
            raise RuntimeError("selector not fitted")
        label = int(self.classifier.predict(stream_features(requests))[0])
        return STREAM_KINDS[label]

    def select(self, requests: Sequence[IORequest]) -> str:
        """Scheduler name for the observed window."""
        return self.best_by_kind[self.classify(requests)]

    def accuracy(self, windows_per_kind: int = 10, window: int = 100,
                 seed: int = 99) -> float:
        return self.classifier.accuracy(
            *self._dataset(windows_per_kind, window, seed)
        )
