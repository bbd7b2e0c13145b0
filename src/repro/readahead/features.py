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
paper's readahead hooks record.  There is one fold of the offset
statistics, and it takes runs of consecutive pages: a readahead
window's inserts arrive as one batch of runs (a
:class:`~repro.os_sim.tracepoints.PageRuns`, see
:meth:`TracepointRegistry.emit_pages`), and a single event is a run of
one page.  Within a run every step after the first is exactly ``+1``,
so the fold skips the step bookkeeping there and adds the run's steps
to the signed sum at once; the Welford and mean-delta updates still
run page by page, in order, so the features are the bits a per-page
fold gives.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..kml.mathops import kml_sqrt
from ..os_sim.stack import StorageStack
from ..os_sim.tracepoints import PageRuns, TraceEvent, TracepointRegistry

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

    The offset state is plain numbers, set in :meth:`reset`: ``count``,
    ``mean`` and ``m2`` (Welford), the ``previous`` offset, the number
    of ``deltas`` between consecutive offsets, their ``abs_mean`` and
    their ``signed_sum``.
    """

    def __init__(self, stack: StorageStack):
        # Keep the tracepoints and the block layer, not the stack: the
        # registry holds this collector's hooks, and a reference back to
        # the whole stack would keep a dropped stack (and its files)
        # alive until the cyclic garbage collector runs.
        self._block = stack.block
        self._registry: TracepointRegistry = stack.tracepoints
        self.reset()
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
        fields = event.fields
        page = fields["page"]
        self._fold(event.name, fields["ino"], ((page, page + 1),), 1)

    def _on_offset_pages(
        self, name: str, timestamp: float, ino: int, pages: PageRuns
    ) -> None:
        self._fold(name, ino, pages.runs, pages.count)

    def _fold(
        self, name: str, ino: int, runs: Sequence[Tuple[int, int]], n: int
    ) -> None:
        """Fold the ``n`` pages of ``runs`` into the offset statistics, in order.

        Welford's update gives the mean (ii) and, through ``m2``, the
        standard deviation (iii); the step from the previous offset
        feeds the mean absolute delta (iv) and the signed delta sum.
        A run's first page takes the general step.  Each later page is
        one above the last, a step of ``+1.0``: its ``abs`` is 1.0, the
        ``previous`` bookkeeping waits for the run's end, and the
        run's ``k`` unit steps go into ``signed_sum`` as one ``float(k)``
        (the sum stays an integer below 2**53, so that is exact).  The
        counters run as floats there, which converts them exactly too.
        The state lives in local variables for the loop.
        """
        if not n:
            return
        count, mean, m2 = self.count, self.mean, self.m2
        previous, deltas = self.previous, self.deltas
        abs_mean, signed_sum = self.abs_mean, self.signed_sum
        for first, end in runs:
            offset = float(first)
            count += 1
            delta = offset - mean
            mean += delta / count
            m2 += delta * (offset - mean)
            if previous is not None:
                step = offset - previous
                deltas += 1
                abs_mean += (abs(step) - abs_mean) / deltas
                signed_sum += step
            k = end - first - 1
            if k:
                counted, stepped = float(count), float(deltas)
                for _ in repeat(None, k):
                    offset += 1.0
                    counted += 1.0
                    stepped += 1.0
                    delta = offset - mean
                    mean += delta / counted
                    m2 += delta * (offset - mean)
                    abs_mean += (1.0 - abs_mean) / stepped
                count += k
                deltas += k
                signed_sum += float(k)
            previous = offset
        self.count, self.mean, self.m2 = count, mean, m2
        self.previous, self.deltas = previous, deltas
        self.abs_mean, self.signed_sum = abs_mean, signed_sum
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
        features = np.array(
            [
                float(self._window_events),
                self.mean,
                float(kml_sqrt(self.m2 / self.count)) if self.count >= 2 else 0.0,
                self.abs_mean,
                float(self._block.ra_pages),
                self.signed_sum / self.deltas if self.deltas else 0.0,
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
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.previous: Optional[float] = None
        self.deltas = 0
        self.abs_mean = 0.0
        self.signed_sum = 0.0
        self._window_events = 0
        self._hits = 0
        self._inserts = 0
        self._inodes: Set[int] = set()
        self.events_seen = 0

    def __enter__(self) -> "FeatureCollector":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    @staticmethod
    def feature_names() -> List[str]:
        return [FEATURE_NAMES[i] for i in PAPER_FEATURES]
