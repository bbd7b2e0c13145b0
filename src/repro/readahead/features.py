"""Feature extraction from page-cache tracepoints (paper section 4).

The paper tried eight candidate features chosen by domain expertise and
narrowed them to the five with the most predictive accuracy (confirmed
by Pearson correlation):

    (i)   number of tracepoints traced        -> ``tracepoint_count``
    (ii)  cumulative moving average of page offsets -> ``offset_cma``
    (iii) cumulative moving std of page offsets     -> ``offset_cmstd``
    (iv)  mean absolute consecutive offset delta    -> ``mean_abs_delta``
    (v)   current readahead value                   -> ``current_ra``

We implement all eight (the three dropped candidates are a signed mean
delta, the page-cache hit ratio, and the count of distinct inodes) so
the selection experiment is reproducible; the model consumes the
paper's five by default.

:class:`FeatureCollector` is the "data-collection hook function" KML
users implement: it subscribes to ``add_to_page_cache`` /
``mark_page_accessed`` / ``writeback_dirty_page``, recording the inode
number, the page offset, and the event time -- exactly the fields the
paper's readahead hooks record.  A readahead window's inserts arrive as
one page batch (see :meth:`TracepointRegistry.emit_pages`), folded into
the statistics in one loop with the same arithmetic, in the same order,
as one event at a time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from ..os_sim.stack import StorageStack
from ..os_sim.tracepoints import TraceEvent, TracepointRegistry
from ..stats.moving import (
    CumulativeMovingAverage,
    CumulativeMovingStd,
    MeanAbsoluteDelta,
)

__all__ = ["FeatureCollector", "FEATURE_NAMES", "PAPER_FEATURES", "NUM_FEATURES"]

FEATURE_NAMES = (
    "tracepoint_count",   # (i)
    "offset_cma",         # (ii)
    "offset_cmstd",       # (iii)
    "mean_abs_delta",     # (iv)
    "current_ra",         # (v)
    "mean_signed_delta",  # candidate, dropped by the paper's selection
    "hit_ratio",          # candidate, dropped
    "unique_inodes",      # candidate, dropped
)

#: Indices of the paper's final five in FEATURE_NAMES order.
PAPER_FEATURES = (0, 1, 2, 3, 4)

NUM_FEATURES = len(PAPER_FEATURES)

_OFFSET_EVENTS = ("add_to_page_cache", "mark_page_accessed")
_COUNT_ONLY_EVENTS = ("writeback_dirty_page",)


class FeatureCollector:
    """Turns the tracepoint stream into per-window feature vectors.

    The paper processes collected data points every second; the runner
    calls :meth:`snapshot` on that cadence.  Offset statistics are
    cumulative (reset only via :meth:`reset`), the event count is per
    window -- matching how the model was trained.
    """

    def __init__(self, stack: StorageStack):
        # Keep the tracepoints and the block layer, not the stack: the
        # registry holds this collector's hooks, and a reference back to
        # the whole stack would keep a dropped stack (and its files)
        # alive until the cyclic garbage collector runs.
        self._block = stack.block
        self._registry: TracepointRegistry = stack.tracepoints
        self._offset_cma = CumulativeMovingAverage()
        self._offset_cmstd = CumulativeMovingStd()
        self._abs_delta = MeanAbsoluteDelta()
        self._signed_delta_sum = 0.0
        self._signed_delta_count = 0
        self._prev_offset: Optional[float] = None
        self._window_events = 0
        self._hits = 0
        self._inserts = 0
        self._inodes: Set[int] = set()
        self.events_seen = 0
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------

    def attach(self) -> None:
        if self._attached:
            return
        for name in _OFFSET_EVENTS:
            self._registry.subscribe(
                name, self._on_offset_event, pages=self._on_offset_pages
            )
        for name in _COUNT_ONLY_EVENTS:
            self._registry.subscribe(name, self._on_count_event)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        for name in _OFFSET_EVENTS:
            self._registry.unsubscribe(name, self._on_offset_event)
        for name in _COUNT_ONLY_EVENTS:
            self._registry.unsubscribe(name, self._on_count_event)
        self._attached = False

    # ------------------------------------------------------------------
    # Hot-path hooks (these are what the 49 ns/transaction cost measures)
    # ------------------------------------------------------------------

    def _on_offset_event(self, event: TraceEvent) -> None:
        offset = event.fields["page"]
        self._window_events += 1
        self.events_seen += 1
        self._offset_cma.update(offset)
        self._offset_cmstd.update(offset)
        self._abs_delta.update(offset)
        if self._prev_offset is not None:
            self._signed_delta_sum += offset - self._prev_offset
            self._signed_delta_count += 1
        self._prev_offset = float(offset)
        if event.name == "mark_page_accessed":
            self._hits += 1
        else:
            self._inserts += 1
        self._inodes.add(event.fields["ino"])

    def _on_offset_pages(
        self, name: str, timestamp: float, ino: int, pages: Sequence[int]
    ) -> None:
        """``_on_offset_event`` for each page of a batch, in one loop.

        The statistics live in local variables for the loop; every
        update is the one the per-event path makes (``update`` of
        ``CumulativeMovingAverage``, ``CumulativeMovingStd`` and
        ``MeanAbsoluteDelta``, then the signed delta), in the same
        order, so the result is bit-identical.
        """
        n = len(pages)
        if not n:
            return
        cma, std, absd = self._offset_cma, self._offset_cmstd, self._abs_delta
        absd_cma = absd._cma
        cma_count, cma_mean = cma._count, cma._mean
        std_count, std_mean, std_m2 = std._count, std._mean, std._m2
        has_previous, previous = absd._has_previous, absd._previous
        absd_count, absd_mean = absd_cma._count, absd_cma._mean
        signed_sum, signed_count = self._signed_delta_sum, self._signed_delta_count
        prev_offset = self._prev_offset
        for page in pages:
            offset = float(page)
            cma_count += 1
            cma_mean += (offset - cma_mean) / cma_count
            std_count += 1
            delta = offset - std_mean
            std_mean += delta / std_count
            std_m2 += delta * (offset - std_mean)
            if has_previous:
                absd_count += 1
                absd_mean += (abs(offset - previous) - absd_mean) / absd_count
            previous = offset
            has_previous = True
            if prev_offset is not None:
                signed_sum += page - prev_offset
                signed_count += 1
            prev_offset = offset
        cma._count, cma._mean = cma_count, cma_mean
        std._count, std._mean, std._m2 = std_count, std_mean, std_m2
        absd._has_previous, absd._previous = has_previous, previous
        absd_cma._count, absd_cma._mean = absd_count, absd_mean
        self._signed_delta_sum, self._signed_delta_count = signed_sum, signed_count
        self._prev_offset = prev_offset
        self._window_events += n
        self.events_seen += n
        if name == "mark_page_accessed":
            self._hits += n
        else:
            self._inserts += n
        self._inodes.add(ino)

    def _on_count_event(self, event: TraceEvent) -> None:
        self._window_events += 1
        self.events_seen += 1

    # ------------------------------------------------------------------

    def snapshot_all(self) -> np.ndarray:
        """All eight candidate features; closes the current window."""
        total = self._hits + self._inserts
        signed = (
            self._signed_delta_sum / self._signed_delta_count
            if self._signed_delta_count
            else 0.0
        )
        features = np.array(
            [
                float(self._window_events),
                self._offset_cma.value,
                self._offset_cmstd.std,
                self._abs_delta.value,
                float(self._block.ra_pages),
                signed,
                self._hits / total if total else 0.0,
                float(len(self._inodes)),
            ]
        )
        self._window_events = 0
        return features

    def snapshot(self) -> np.ndarray:
        """The paper's five features; closes the current window."""
        return self.snapshot_all()[list(PAPER_FEATURES)]

    def reset(self) -> None:
        """Forget all cumulative state (used between training runs)."""
        self._offset_cma.reset()
        self._offset_cmstd.reset()
        self._abs_delta.reset()
        self._signed_delta_sum = 0.0
        self._signed_delta_count = 0
        self._prev_offset = None
        self._window_events = 0
        self._hits = 0
        self._inserts = 0
        self._inodes.clear()
        self.events_seen = 0

    def __enter__(self) -> "FeatureCollector":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    @staticmethod
    def feature_names(all_candidates: bool = False) -> List[str]:
        if all_candidates:
            return list(FEATURE_NAMES)
        return [FEATURE_NAMES[i] for i in PAPER_FEATURES]
