"""Kernel-style tracepoints: the observation points KML hooks into.

The paper collects training data "from the Linux kernel using LTTng
tracepoints ... (e.g., add_to_page_cache, writeback_dirty_page)";
at runtime the same data points are gathered by data-collection hook
functions that KML users implement (section 4).

:class:`TracepointRegistry` reproduces that mechanism: named
tracepoints, cheap ``emit`` on the hot path, multiple subscribers, and
per-tracepoint hit counters.  Subscriber exceptions are counted and
suppressed -- a tracing hook must never crash the I/O path, mirroring
the kernel's contract.

Batch dispatch: a readahead window inserts many pages at one instant,
and the page cache reports them with one :meth:`~TracepointRegistry.emit_pages`
call instead of one ``emit`` per page.  A subscriber may register a
page-batch form next to its per-event hook; when every subscriber of
the tracepoint has one and no observability hook is attached, each
batch form is called once per batch.  Otherwise ``emit_pages`` falls
back to one ``emit`` per page, so per-event subscribers (the trace
writer, ad-hoc lambdas) and the per-event dispatch-latency histogram
see exactly what they would without batching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["TraceEvent", "TracepointRegistry", "STANDARD_TRACEPOINTS"]

#: Tracepoints the simulated memory-management subsystem emits.
STANDARD_TRACEPOINTS = (
    "add_to_page_cache",       # page inserted into the cache (miss fill / readahead)
    "mark_page_accessed",      # page-cache hit on an already-resident page
    "writeback_dirty_page",    # dirty page written back to the device
    "readahead",               # a readahead window was issued
    "block_ra_set",            # the device readahead knob changed (ioctl)
)


@dataclass(frozen=True)
class TraceEvent:
    """One tracepoint firing.

    ``fields`` carries what the paper's readahead hooks record: the
    inode number, the page offset, and the time since module start.
    """

    name: str
    timestamp: float
    fields: Dict[str, Any]


Subscriber = Callable[[TraceEvent], None]
#: ``hook(name, timestamp, ino, pages)``: one call for a batch of pages.
PageBatchSubscriber = Callable[[str, float, int, Sequence[int]], None]


class TracepointRegistry:
    """Named tracepoints with subscribe/emit and drop-safe dispatch."""

    def __init__(self, names=STANDARD_TRACEPOINTS):
        self._subscribers: Dict[str, List[Subscriber]] = {n: [] for n in names}
        # Each subscriber's page-batch form (None if it has none), in
        # subscription order.
        self._page_forms: Dict[str, List[Optional[PageBatchSubscriber]]] = {
            n: [] for n in names
        }
        self.hit_counts: Dict[str, int] = {n: 0 for n in names}
        self.subscriber_errors = 0
        # Optional dispatch-latency probe (duck-typed; see repro.obs).
        self._obs = None

    def attach_obs(self, probe) -> None:
        """Install the dispatch-latency probe (``repro.obs.instrument.Probe``)."""
        self._obs = probe

    @property
    def names(self):
        return tuple(self._subscribers)

    def subscribe(
        self,
        name: str,
        hook: Subscriber,
        pages: Optional[PageBatchSubscriber] = None,
    ) -> None:
        """Add ``hook``; ``pages`` is its optional page-batch form."""
        if name not in self._subscribers:
            raise KeyError(f"unknown tracepoint {name!r}")
        self._subscribers[name].append(hook)
        self._page_forms[name].append(pages)

    def unsubscribe(self, name: str, hook: Subscriber) -> None:
        try:
            index = self._subscribers[name].index(hook)
        except (KeyError, ValueError):
            raise KeyError(f"hook not subscribed to {name!r}") from None
        del self._subscribers[name][index]
        del self._page_forms[name][index]

    def emit(self, name: str, timestamp: float, **fields: Any) -> None:
        """Fire a tracepoint; cheap when nobody is listening."""
        self.hit_counts[name] += 1
        hooks = self._subscribers[name]
        if not hooks:
            return
        event = TraceEvent(name=name, timestamp=timestamp, fields=fields)
        probe = self._obs
        t0 = 0.0
        if probe is not None:
            probe.calls = n = probe.calls + 1
            if not n & probe.mask:
                t0 = time.perf_counter()
        for hook in hooks:
            try:
                hook(event)
            except Exception:
                # A tracing hook must never take down the I/O path.
                self.subscriber_errors += 1
        if t0:
            probe.hist.observe(time.perf_counter() - t0)

    def emit_pages(
        self, name: str, timestamp: float, ino: int, pages: Sequence[int]
    ) -> None:
        """Fire ``name`` once per page of ``pages``, all at ``timestamp``.

        Counts ``len(pages)`` hits.  When every subscriber registered a
        page-batch form and no observability hook is attached, each
        batch form is called once with the whole batch; a batch form
        that raises counts as one subscriber error, however many pages
        it was given.  Otherwise this is ``emit(name, timestamp,
        ino=ino, page=page)`` for each page in order, with that path's
        counting: one error per raising per-event call and one latency
        observation per event.
        """
        forms = self._page_forms[name]
        if None in forms or (forms and self._obs is not None):
            for page in pages:
                self.emit(name, timestamp, ino=ino, page=page)
            return
        self.hit_counts[name] += len(pages)
        for form in forms:
            try:
                form(name, timestamp, ino, pages)
            except Exception:
                self.subscriber_errors += 1
