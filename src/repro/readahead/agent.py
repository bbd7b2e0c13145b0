"""The closed-loop KML readahead agent (paper Figure 1, green arrows).

Once per window the agent: (1) snapshots the features accumulated from
the memory-management tracepoints, (2) optionally pushes the sample
into the lock-free circular buffer for the async training thread, (3)
runs inference on the deployed network, and (4) actuates -- sets the
block-layer readahead via ioctl and the per-file ``ra_pages`` in every
open struct file it is given.  The actuation changes future page-cache
behaviour, which changes future features: the closed circuit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..kml.network import Sequential
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
        ``ReadaheadClassifier.to_deployable``) -- typically loaded from
        a KML model file, as in the paper's kernel deployment.
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
    registry:
        Optional :class:`repro.serve.ModelRegistry`.  When given, each
        tick runs inference on the registry's active snapshot, so a
        ``registry.activate(n)`` hot-swaps the model between ticks.
        With no active version, or when the snapshot's predict fails,
        the agent falls back to its own local model for that tick,
        mirroring the DEGRADED-path containment of the ``health`` gate.
    """

    def __init__(
        self,
        stack: StorageStack,
        model: Sequential,
        tuning: TuningTable,
        device: str,
        classes: Sequence[str] = WORKLOAD_CLASSES,
        files: Optional[Iterable[File]] = None,
        sample_buffer: Optional[CircularBuffer] = None,
        dtype: str = "float32",
        smoothing: int = 1,
        confidence_threshold: float = 0.0,
        health: Optional[Callable[[], bool]] = None,
        fallback_ra: int = DEFAULT_RA_PAGES,
        registry=None,
    ):
        if smoothing < 1:
            raise ValueError("smoothing must be >= 1")
        if not 0.0 <= confidence_threshold < 1.0:
            raise ValueError("confidence_threshold must be in [0, 1)")
        if fallback_ra < 0:
            raise ValueError("fallback_ra must be non-negative")
        self.stack = stack
        self.model = model
        self.tuning = tuning
        self.device = device
        self.classes = tuple(classes)
        for name in self.classes:
            # A class the table lacks fails here, not at the first tick.
            tuning.best_ra(device, name)
        self.files: List[File] = list(files or [])
        self.sample_buffer = sample_buffer
        self.dtype = dtype
        self.smoothing = smoothing
        self.confidence_threshold = confidence_threshold
        self.health = health
        self.fallback_ra = fallback_ra
        self.registry = registry
        self.collector = FeatureCollector(stack)
        self.history: List[AgentDecision] = []
        self._recent_classes: List[int] = []
        self.skipped_low_confidence = 0
        self.skipped_degraded = 0
        self.registry_decisions = 0
        self.registry_fallbacks = 0

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
            decision = AgentDecision(
                sim_time=sim_time,
                predicted_class=-1,
                predicted_name="degraded",
                ra_pages=self.fallback_ra,
                inference_wall_s=0.0,
            )
            self.history.append(decision)
            return decision
        if self.sample_buffer is not None:
            self.sample_buffer.push(features)
        wall_start = time.perf_counter_ns()
        logits = None
        if self.registry is not None:
            snapshot = self.registry.active()
            if snapshot is not None:
                try:
                    logits = np.asarray(
                        snapshot.predict(features.reshape(1, -1))[0],
                        dtype=np.float64,
                    )
                except Exception:
                    # A failing model must never cost the agent a
                    # decision: the local model takes this tick.
                    pass
            if logits is None:
                self.registry_fallbacks += 1
            else:
                self.registry_decisions += 1
        if self.confidence_threshold > 0.0:
            if logits is not None:
                shifted = np.exp(logits - logits.max())
                probabilities = shifted / shifted.sum()
            else:
                probabilities = (
                    self.model.predict(features.reshape(1, -1), dtype=self.dtype)
                    .softmax(axis=1)
                    .to_numpy()[0]
                )
            predicted = int(np.argmax(probabilities))
            confident = probabilities[predicted] >= self.confidence_threshold
        else:
            if logits is not None:
                predicted = (
                    int(np.argmax(logits)) if logits.size > 1
                    else int(round(float(logits[0])))
                )
            else:
                predicted = int(
                    self.model.predict_classes(
                        features.reshape(1, -1), dtype=self.dtype
                    )[0]
                )
            confident = True
        inference_wall = (time.perf_counter_ns() - wall_start) / 1e9
        if not confident:
            # Safety valve (paper section 3.3): an unconfident model
            # leaves the current heuristic setting alone.
            self.skipped_low_confidence += 1
            decision = AgentDecision(
                sim_time=sim_time,
                predicted_class=predicted,
                predicted_name=self.classes[predicted],
                ra_pages=self.stack.block.ra_pages,
                inference_wall_s=inference_wall,
            )
            self.history.append(decision)
            return decision
        # Optional hysteresis: act on the majority class of the last k
        # predictions to damp per-window oscillation.
        self._recent_classes.append(predicted)
        if len(self._recent_classes) > self.smoothing:
            self._recent_classes.pop(0)
        acted = max(set(self._recent_classes), key=self._recent_classes.count)
        name = self.classes[acted]
        ra = self.tuning.best_ra(self.device, name)
        self.apply(ra)
        decision = AgentDecision(
            sim_time=sim_time,
            predicted_class=acted,
            predicted_name=name,
            ra_pages=ra,
            inference_wall_s=inference_wall,
        )
        self.history.append(decision)
        return decision

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
