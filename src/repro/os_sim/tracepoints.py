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
call instead of one ``emit`` per page.  The batch is a :class:`PageRuns`:
the window's non-resident pages as the ascending runs ``[first, end)``
the page cache reads them in, so the batch costs work per run, not per
page.  A subscriber may register a page-batch form next to its
per-event hook; when every subscriber of the tracepoint has one and no
dispatch hook is attached, each batch form is called once per batch.
Otherwise ``emit_pages`` falls back to one ``emit`` per page, expanding
the runs in order, so per-event subscribers (the trace writer, ad-hoc
lambdas) and the per-event dispatch-latency histogram see exactly what
they would without batching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["PageRuns", "TraceEvent", "TracepointRegistry", "STANDARD_TRACEPOINTS"]

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


class PageRuns:
    """A batch of pages as ascending runs ``[first, end)`` of ``count`` pages.

    It reads as the sequence of its pages (iteration yields each page in
    order, ``len`` is ``count``), so a consumer that wants pages needs
    nothing else; a run-aware one reads ``runs``.
    """

    __slots__ = ("runs", "count")

    def __init__(self, runs: Sequence[Tuple[int, int]], count: int):
        self.runs = runs
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        for first, end in self.runs:
            yield from range(first, end)


Subscriber = Callable[[TraceEvent], None]
#: ``hook(name, timestamp, ino, pages)``: one call for a batch of pages.
PageBatchSubscriber = Callable[[str, float, int, PageRuns], None]


class TracepointRegistry:
    """Named tracepoints with subscribe/emit and drop-safe dispatch."""

    HOOK_SLOTS = {"tracepoints.dispatch": "_dispatch_hook"}

    def __init__(self):
        names = STANDARD_TRACEPOINTS
        self._subscribers: Dict[str, List[Subscriber]] = {n: [] for n in names}
        # Each subscriber's page-batch form (None if it has none), in
        # subscription order.
        self._page_forms: Dict[str, List[Optional[PageBatchSubscriber]]] = {
            n: [] for n in names
        }
        self.hit_counts: Dict[str, int] = {n: 0 for n in names}
        self.subscriber_errors = 0
        # The tracepoints.dispatch hook (see repro.hooks): times the
        # dispatch of one event to all subscribers.
        self._dispatch_hook = None

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

    def count_unheard(self, name: str) -> bool:
        """Count one hit of ``name`` if it has no subscriber, and say so.

        False (and nothing counted) means someone listens: the caller
        then fires the event with :meth:`emit`.  A hot path whose event
        nobody reads skips building its fields.
        """
        if self._subscribers[name]:
            return False
        self.hit_counts[name] += 1
        return True

    def emit(self, name: str, timestamp: float, **fields: Any) -> None:
        """Fire a tracepoint; cheap when nobody is listening."""
        self.hit_counts[name] += 1
        subscribers = self._subscribers[name]
        if not subscribers:
            return
        event = TraceEvent(name=name, timestamp=timestamp, fields=fields)
        hook = self._dispatch_hook
        t0 = 0.0
        if hook is not None:
            hook.calls = n = hook.calls + 1
            if not n & hook.mask:
                t0 = time.perf_counter()
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:
                # A tracing hook must never take down the I/O path.
                self.subscriber_errors += 1
        if t0:
            hook.hist.observe(time.perf_counter() - t0)

    def emit_pages(
        self, name: str, timestamp: float, ino: int, pages: Sequence[int]
    ) -> None:
        """Fire ``name`` once per page of ``pages``, all at ``timestamp``.

        ``pages`` is a :class:`PageRuns`, or any sequence of pages, which
        is taken as runs of one page each.  Counts ``len(pages)`` hits.
        When every subscriber registered a page-batch form and no
        dispatch hook is attached, each batch form is called once with
        the whole batch as a :class:`PageRuns`; a batch form that raises
        counts as one subscriber error, however many pages it was given.
        Otherwise this is ``emit(name, timestamp, ino=ino, page=page)``
        for each page in order, with that path's counting: one error per
        raising per-event call and one latency observation per event.
        """
        if type(pages) is not PageRuns:
            pages = PageRuns([(page, page + 1) for page in pages], len(pages))
        forms = self._page_forms[name]
        if None in forms or (forms and self._dispatch_hook is not None):
            for first, end in pages.runs:
                for page in range(first, end):
                    self.emit(name, timestamp, ino=ino, page=page)
            return
        self.hit_counts[name] += pages.count
        for form in forms:
            try:
                form(name, timestamp, ino, pages)
            except Exception:
                self.subscriber_errors += 1
