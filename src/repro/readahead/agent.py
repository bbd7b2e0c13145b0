"""The closed-loop KML readahead agent (paper Figure 1, green arrows).

Once per window the agent: (1) snapshots the features accumulated from
the memory-management tracepoints, (2) optionally pushes the sample
into the lock-free circular buffer for the async training thread, (3)
runs inference on the deployed model, and (4) actuates -- sets the
block-layer readahead via ioctl and the per-file ``ra_pages`` in every
open struct file it is given.  The actuation changes future page-cache
behaviour, which changes future features: the closed circuit.  Each
tick makes one ``model.predict_classes(row)`` call.
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
        inference entirely and pins readahead to the kernel default
        (``DEFAULT_RA_PAGES``) -- the fault-containment behaviour when
        the ML plane is DEGRADED.
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
        health: Optional[Callable[[], bool]] = None,
    ):
        if smoothing < 1:
            raise ValueError("smoothing must be >= 1")
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
        self.health = health
        self.collector = FeatureCollector(stack)
        self.history: List[AgentDecision] = []
        self._recent_classes: List[int] = []
        self.skipped_degraded = 0

    # ------------------------------------------------------------------

    def on_tick(self, sim_time: float, rate: float) -> AgentDecision:
        """Run one observe-infer-actuate cycle (the per-window callback)."""
        features = self.collector.snapshot()
        if self.health is not None and not self.health():
            # ML plane degraded: do not trust the model (and do not
            # feed the dead trainer); restore the heuristic default.
            self.skipped_degraded += 1
            if self.stack.block.ra_pages != DEFAULT_RA_PAGES:
                self.apply(DEFAULT_RA_PAGES)
            predicted, name, ra = -1, "degraded", DEFAULT_RA_PAGES
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
        predicted = int(self.model.predict_classes(row)[0])
        inference_wall = (time.perf_counter_ns() - wall_start) / 1e9
        # Optional hysteresis: act on the majority class of the last k
        # predictions to damp per-window oscillation.
        self._recent_classes.append(predicted)
        if len(self._recent_classes) > self.smoothing:
            self._recent_classes.pop(0)
        acted = max(set(self._recent_classes), key=self._recent_classes.count)
        ra = self.tuning.best_ra(self.device, WORKLOAD_CLASSES[acted])
        self.apply(ra)
        return acted, ra, inference_wall

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
