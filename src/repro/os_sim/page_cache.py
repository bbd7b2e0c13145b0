"""LRU page cache with readahead integration, dirty pages, and writeback.

This is the simulated ``filemap.c``/``page-writeback.c``: the component
the paper instruments (its data-collection hooks live in exactly those
files) and the component whose behaviour the readahead knob changes.

Every page access goes through :meth:`PageCache.read_page` /
:meth:`write_page`:

- hits touch LRU state, emit ``mark_page_accessed``, and may trigger an
  asynchronous readahead window;
- misses consult the per-file readahead state for a window, charge the
  device for one request covering the non-resident pages, and block
  until completion;
- a window's pages are inserted in one loop and its
  ``add_to_page_cache`` events, one per inserted page, are dispatched
  as one batch (:meth:`TracepointRegistry.emit_pages`).  A dirty page
  evicted to make room cuts the batch: the adds of the window's earlier
  pages are dispatched, then the page is written back, then the add of
  the page that evicted it follows.  The event stream is therefore the
  one a per-page ``emit`` gives;
- prefetched pages carry their in-flight completion time; a reader
  arriving early waits only the remaining time (that is how async
  readahead hides latency);
- dirty pages are written back in batches and on eviction, emitting
  ``writeback_dirty_page``.

Cache pollution is first-class: prefetched-but-never-accessed pages are
counted when evicted, which is the mechanism by which oversized
readahead hurts random workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from .clock import SimClock
from .device import DeviceModel
from .readahead import ReadaheadPlan, ReadaheadState, plan_hit, plan_miss
from .tracepoints import TracepointRegistry

__all__ = ["PageCache", "CacheStats", "PageEntry"]


class PageEntry:
    """Metadata for one resident page."""

    __slots__ = ("ready_at", "dirty", "prefetched", "accessed")

    def __init__(
        self,
        ready_at: float,  # device completion time (may be in the future)
        dirty: bool = False,
        prefetched: bool = False,  # inserted by readahead, not by demand
        accessed: bool = False,  # demanded at least once since insertion
    ):
        self.ready_at = ready_at
        self.dirty = dirty
        self.prefetched = prefetched
        self.accessed = accessed


@dataclass
class CacheStats:
    """Lifetime page-cache counters."""

    hits: int = 0
    misses: int = 0
    inserted: int = 0
    evicted: int = 0
    prefetch_inserted: int = 0
    prefetch_used: int = 0
    prefetch_wasted: int = 0   # prefetched pages evicted unread
    writebacks: int = 0
    wait_time: float = 0.0     # time spent waiting on in-flight pages

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class PageCache:
    """Single-device LRU page cache with on-demand readahead."""

    def __init__(
        self,
        clock: SimClock,
        device: DeviceModel,
        tracepoints: TracepointRegistry,
        capacity_pages: int,
        dirty_threshold: float = 0.10,
        writeback_batch: int = 64,
    ):
        if capacity_pages < 1:
            raise ValueError("capacity must be at least one page")
        if not 0.0 < dirty_threshold <= 1.0:
            raise ValueError("dirty_threshold must be in (0, 1]")
        self.clock = clock
        self.device = device
        self.tracepoints = tracepoints
        self.capacity_pages = capacity_pages
        self.dirty_threshold = dirty_threshold
        self.writeback_batch = writeback_batch
        self._pages: "OrderedDict[Tuple[int, int], PageEntry]" = OrderedDict()
        self._dirty_count = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._pages

    @property
    def dirty_pages(self) -> int:
        return self._dirty_count

    # ------------------------------------------------------------------
    # Demand paths
    # ------------------------------------------------------------------

    def read_page(
        self,
        ino: int,
        page: int,
        ra_state: ReadaheadState,
        ra_pages: int,
        file_pages: int,
    ) -> None:
        """Demand-read one page; blocks (advances the clock) as needed."""
        key = (ino, page)
        entry = self._pages.get(key)
        if entry is not None:
            self._touch(key, entry)
            self._record_hit(ino, page, entry)
            plan = plan_hit(ra_state, page, ra_pages, file_pages)
            if plan is not None:
                self._issue_window(ino, plan)
            return
        self.stats.misses += 1
        plan = plan_miss(ra_state, page, ra_pages, file_pages)
        done = self._issue_window(ino, plan)
        if done is not None:
            self.clock.advance_to(done)
        # Mark the demanded page as accessed (it was inserted just now).
        inserted = self._pages.get(key)
        if inserted is not None:
            inserted.accessed = True

    def write_page(self, ino: int, page: int) -> None:
        """Full-page write: write-allocate, mark dirty, maybe write back."""
        key = (ino, page)
        entry = self._pages.get(key)
        if entry is not None:
            self._touch(key, entry)
            self._record_hit(ino, page, entry)
            if not entry.dirty:
                entry.dirty = True
                self._dirty_count += 1
        else:
            self.stats.misses += 1
            entry = PageEntry(ready_at=self.clock.now, dirty=True, accessed=True)
            self._insert(key, entry)
            self._dirty_count += 1
            self.tracepoints.emit(
                "add_to_page_cache", self.clock.now, ino=ino, page=page
            )
        if self._dirty_count > self.dirty_threshold * self.capacity_pages:
            self.writeback(self.writeback_batch)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record_hit(self, ino: int, page: int, entry: PageEntry) -> None:
        self.stats.hits += 1
        if entry.prefetched and not entry.accessed:
            self.stats.prefetch_used += 1
        entry.accessed = True
        if entry.ready_at > self.clock.now:
            # The page is still in flight from an async window.
            self.stats.wait_time += entry.ready_at - self.clock.now
            self.clock.advance_to(entry.ready_at)
        self.tracepoints.emit(
            "mark_page_accessed", self.clock.now, ino=ino, page=page
        )

    def _touch(self, key, entry: PageEntry) -> None:
        self._pages.move_to_end(key)

    def _issue_window(self, ino: int, plan: ReadaheadPlan) -> Optional[float]:
        """Read the non-resident pages of a window in one device request.

        Returns the completion time, or None if every page was already
        resident (nothing to read).
        """
        pages = self._pages
        start = plan.start
        missing = [p for p in range(start, start + plan.count) if (ino, p) not in pages]
        if not missing:
            return None
        clock = self.clock
        tracepoints = self.tracepoints
        done = self.device.submit(clock, len(missing), is_write=False)
        now = clock.now
        is_async = plan.is_async
        tracepoints.emit(
            "readahead", now, ino=ino, start=start, count=len(missing), is_async=is_async
        )
        demanded_page = start if not is_async else None
        stats = self.stats
        capacity = self.capacity_pages
        added = []  # pages whose add_to_page_cache is not dispatched yet
        for p in missing:
            prefetched = is_async or p != demanded_page
            pages[(ino, p)] = PageEntry(done, False, prefetched)
            stats.inserted += 1
            while len(pages) > capacity:
                key, entry = pages.popitem(last=False)
                stats.evicted += 1
                if entry.prefetched and not entry.accessed:
                    stats.prefetch_wasted += 1
                if entry.dirty:
                    if added:
                        tracepoints.emit_pages("add_to_page_cache", now, ino, added)
                        added = []
                    self._dirty_count -= 1
                    self._write_back_pages(1, key[0], key[1])
            if prefetched:
                stats.prefetch_inserted += 1
            added.append(p)
        tracepoints.emit_pages("add_to_page_cache", now, ino, added)
        return done

    def _insert(self, key, entry: PageEntry) -> None:
        self._pages[key] = entry
        self._pages.move_to_end(key)
        self.stats.inserted += 1
        while len(self._pages) > self.capacity_pages:
            self._evict_one()

    def _evict_one(self) -> None:
        key, entry = self._pages.popitem(last=False)
        self.stats.evicted += 1
        if entry.prefetched and not entry.accessed:
            self.stats.prefetch_wasted += 1
        if entry.dirty:
            self._dirty_count -= 1
            self._write_back_pages(1, key[0], key[1])

    def _write_back_pages(self, count: int, ino: int, page: int) -> None:
        """Submit an async write and emit writeback tracepoints."""
        self.device.submit(self.clock, count, is_write=True)
        self.stats.writebacks += count
        self.tracepoints.emit(
            "writeback_dirty_page", self.clock.now, ino=ino, page=page
        )

    # ------------------------------------------------------------------
    # Writeback / maintenance
    # ------------------------------------------------------------------

    def writeback(self, max_pages: Optional[int] = None) -> int:
        """Clean up to ``max_pages`` dirty pages (oldest first, async).

        Contiguous dirty pages of one inode are merged into a single
        device request of up to ``writeback_batch`` pages -- request
        batching is the mechanism the writeback-tuning case study
        optimizes (fewer, larger requests amortize per-request latency
        but occupy the device in longer bursts that delay reads).
        """
        budget = max_pages if max_pages is not None else self._dirty_count
        victims = []
        for key, entry in self._pages.items():
            if len(victims) >= budget or self._dirty_count - len(victims) <= 0:
                break
            if entry.dirty:
                victims.append((key, entry))
        for key, entry in victims:
            entry.dirty = False
            self._dirty_count -= 1
        # Merge into contiguous per-inode runs, capped at the batch size.
        cleaned = len(victims)
        ordered = sorted(key for key, _ in victims)
        run: list = []
        for key in ordered:
            if (
                run
                and key[0] == run[-1][0]
                and key[1] == run[-1][1] + 1
                and len(run) < self.writeback_batch
            ):
                run.append(key)
            else:
                if run:
                    self._write_back_pages(len(run), run[0][0], run[0][1])
                run = [key]
        if run:
            self._write_back_pages(len(run), run[0][0], run[0][1])
        return cleaned

    def sync(self) -> int:
        """Write back everything dirty and wait for the device."""
        cleaned = self.writeback(None)
        self.clock.advance_to(self.device.busy_until)
        return cleaned

    def drop_caches(self) -> None:
        """Discard all clean pages (dirty ones are synced first).

        The paper clears the cache between benchmark runs; this is that
        ``echo 3 > /proc/sys/vm/drop_caches``.
        """
        self.sync()
        self._pages.clear()
        self._dirty_count = 0

    def invalidate(self, ino: int) -> None:
        """Drop all pages of one inode (unlink/truncate path)."""
        keys = [k for k in self._pages if k[0] == ino]
        for key in keys:
            entry = self._pages.pop(key)
            if entry.dirty:
                self._dirty_count -= 1
