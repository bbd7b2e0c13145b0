"""The closed-loop KML readahead agent (paper Figure 1, green arrows).

Once per window the agent: (1) snapshots the features accumulated from
the memory-management tracepoints, (2) optionally pushes the sample
into the lock-free circular buffer for the async training thread, (3)
runs inference on the deployed model, and (4) actuates -- sets the
block-layer readahead via ioctl and the per-file ``ra_pages`` in every
open struct file it is given.  The actuation changes future page-cache
behaviour, which changes future features: the closed circuit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..os_sim.block_layer import DEFAULT_RA_PAGES
from ..os_sim.stack import StorageStack
from ..os_sim.vfs import File
from ..runtime.circular_buffer import CircularBuffer
from .features import FeatureCollector
from .model import WORKLOAD_CLASSES
from .tuning import TuningTable

__all__ = ["AgentDecision", "ReadaheadAgent"]


@dataclass
class AgentDecision:
    """One inference outcome."""

    sim_time: float
    predicted_class: int
    predicted_name: str
    ra_pages: int
    inference_wall_s: float


class ReadaheadAgent:
    """Workload-classifying readahead tuner.

    Parameters
    ----------
    stack:
        The storage stack to observe and actuate.
    model:
        A *deployable* network (normalization folded in, see
        ``ReadaheadClassifier.to_deployable``) -- typically
        ``repro.kml.load_model(path)`` of a ``.kml`` file, the paper's
        one save-then-load handoff into the kernel -- or a
        fitted :class:`~repro.kml.decision_tree.DecisionTreeClassifier`.
        Inputs are encoded in the model's own parameter dtype.
    tuning:
        The workload -> best-readahead mapping from the empirical sweep;
        it must have an entry for every class on ``device``.
    device:
        Key into the tuning table ("nvme" or "ssd").
    files:
        Open files whose ``ra_pages`` should be updated alongside the
        device-wide ioctl (the paper updates both).
    sample_buffer:
        Optional circular buffer; when given, every feature snapshot is
        pushed for the async training thread (in-kernel training mode).
    health:
        Optional zero-arg predicate (e.g. ``TrainerSupervisor.healthy``)
        consulted each tick.  While it returns False the agent skips
        inference entirely and pins readahead to ``fallback_ra`` -- the
        fault-containment behaviour when the ML plane is DEGRADED.
    fallback_ra:
        Readahead applied while unhealthy; defaults to the kernel
        default (``DEFAULT_RA_PAGES``).

    Every tick makes one inference call on ``model``:
    ``model.predict_classes(row)``, or with ``confidence_threshold > 0``
    ``model.predict(row).softmax(axis=1)``.  A decision tree has no
    logits, so a gated tick on a tree raises.
    """

    def __init__(
        self,
        stack: StorageStack,
        model,
        tuning: TuningTable,
        device: str,
        files: Optional[Iterable[File]] = None,
        sample_buffer: Optional[CircularBuffer] = None,
        smoothing: int = 1,
        confidence_threshold: float = 0.0,
        health: Optional[Callable[[], bool]] = None,
        fallback_ra: int = DEFAULT_RA_PAGES,
    ):
        if smoothing < 1:
            raise ValueError("smoothing must be >= 1")
        if not 0.0 <= confidence_threshold < 1.0:
            raise ValueError("confidence_threshold must be in [0, 1)")
        if fallback_ra < 0:
            raise ValueError("fallback_ra must be non-negative")
        for name in WORKLOAD_CLASSES:
            # A class the table lacks fails here, not at the first tick.
            tuning.best_ra(device, name)
        self.stack = stack
        self.model = model
        self.tuning = tuning
        self.device = device
        self.files: List[File] = list(files or [])
        self.sample_buffer = sample_buffer
        self.smoothing = smoothing
        self.confidence_threshold = confidence_threshold
        self.health = health
        self.fallback_ra = fallback_ra
        self.collector = FeatureCollector(stack)
        self.history: List[AgentDecision] = []
        self._recent_classes: List[int] = []
        self.skipped_low_confidence = 0
        self.skipped_degraded = 0

    # ------------------------------------------------------------------

    def on_tick(self, sim_time: float, rate: float) -> AgentDecision:
        """Run one observe-infer-actuate cycle (the per-window callback)."""
        features = self.collector.snapshot()
        if self.health is not None and not self.health():
            # ML plane degraded: do not trust the model (and do not
            # feed the dead trainer); restore the heuristic default.
            self.skipped_degraded += 1
            if self.stack.block.ra_pages != self.fallback_ra:
                self.apply(self.fallback_ra)
            predicted, name, ra = -1, "degraded", self.fallback_ra
            inference_wall = 0.0
        else:
            if self.sample_buffer is not None:
                self.sample_buffer.push(features)
            predicted, ra, inference_wall = self._decide(features.reshape(1, -1))
            name = WORKLOAD_CLASSES[predicted]
        decision = AgentDecision(
            sim_time=sim_time,
            predicted_class=predicted,
            predicted_name=name,
            ra_pages=ra,
            inference_wall_s=inference_wall,
        )
        self.history.append(decision)
        return decision

    def _decide(self, row: np.ndarray) -> Tuple[int, int, float]:
        """Infer ``row``'s class and actuate: (class, ra_pages, wall s)."""
        wall_start = time.perf_counter_ns()
        predicted, confident = self._classify(self.model, row)
        inference_wall = (time.perf_counter_ns() - wall_start) / 1e9
        if not confident:
            # Safety valve (paper section 3.3): an unconfident model
            # leaves the current heuristic setting alone.
            self.skipped_low_confidence += 1
            return predicted, self.stack.block.ra_pages, inference_wall
        # Optional hysteresis: act on the majority class of the last k
        # predictions to damp per-window oscillation.
        self._recent_classes.append(predicted)
        if len(self._recent_classes) > self.smoothing:
            self._recent_classes.pop(0)
        acted = max(set(self._recent_classes), key=self._recent_classes.count)
        ra = self.tuning.best_ra(self.device, WORKLOAD_CLASSES[acted])
        self.apply(ra)
        return acted, ra, inference_wall

    def _classify(self, model, row: np.ndarray) -> Tuple[int, bool]:
        """``model``'s class for ``row`` and whether the gate lets it act."""
        if self.confidence_threshold == 0.0:
            return int(model.predict_classes(row)[0]), True
        probabilities = model.predict(row).softmax(axis=1).to_numpy()[0]
        predicted = int(np.argmax(probabilities))
        return predicted, probabilities[predicted] >= self.confidence_threshold

    def apply(self, ra_pages: int) -> None:
        """Actuate: block-layer ioctl plus per-file struct updates."""
        self.stack.set_readahead(ra_pages)
        for file in self.files:
            file.set_ra_pages(ra_pages)

    # ------------------------------------------------------------------

    @property
    def ra_timeline(self) -> List[tuple]:
        """(sim_time, ra_pages) pairs for Figure-2-style plots."""
        return [(d.sim_time, d.ra_pages) for d in self.history]

    def predicted_class_counts(self) -> dict:
        counts: dict = {}
        for decision in self.history:
            counts[decision.predicted_name] = counts.get(decision.predicted_name, 0) + 1
        return counts

    def detach(self) -> None:
        self.collector.detach()
