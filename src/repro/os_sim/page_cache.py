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
- a window's non-resident pages travel as the ascending runs
  ``[first, end)`` that ``_missing_runs`` finds: one device request
  for their total, one extent per run, and one
  ``add_to_page_cache`` batch of those runs
  (:class:`~repro.os_sim.tracepoints.PageRuns`, dispatched by
  :meth:`TracepointRegistry.emit_pages`), so a window costs Python work
  per run, not per page;
- prefetched pages carry their in-flight completion time; a reader
  arriving early waits only the remaining time (that is how async
  readahead hides latency);
- dirty pages are written back in batches and on eviction, emitting
  ``writeback_dirty_page``.

The LRU holds *extents*, not pages.  An extent is a run ``[first, end)``
of one inode's pages that share a completion time: one per contiguous
non-resident run of a window, or one page that was written or hit.
Extents sit in a doubly linked list, oldest first, and each inode keeps
the sorted starts of its extents for ``bisect`` lookups, so a window
costs Python work per extent, not per page.  The order of pages in the
list is exactly the order a per-page LRU would have, because:

- pages are evicted from the low end of the oldest extent, and a
  window inserts each run in ascending page order;
- a hit moves its page out to a 1-page extent at the MRU end; the
  pages on either side stay where they were, split in place;
- per-page flags are derived: a page is prefetched unless it is its
  extent's ``demand`` page (the demanded page of a synchronous window,
  or the page of a hit or a write), and only 1-page extents are dirty;
- a window whose overflow would evict a dirty page is inserted in
  segments cut at the page that evicts it: the adds of the window's
  earlier pages are dispatched, then the victim is written back, then
  the window goes on.  Events, device submits and the state left when
  a writeback submit raises are therefore those of a per-page insert.

Cache pollution is first-class: prefetched-but-never-accessed pages are
counted when evicted, which is the mechanism by which oversized
readahead hurts random workloads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .clock import SimClock
from .device import DeviceModel
from .readahead import ReadaheadPlan, ReadaheadState, plan_hit, plan_miss
from .tracepoints import PageRuns, TracepointRegistry

__all__ = ["PageCache", "CacheStats"]


def _split_runs(
    runs: List[Tuple[int, int]], count: int
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The lowest ``count`` pages of ``runs`` and the rest, both as runs."""
    head = []
    for i, (first, end) in enumerate(runs):
        if end - first >= count:
            head.append((first, first + count))
            rest = runs[i + 1 :]
            if end - first > count:
                rest.insert(0, (first + count, end))
            return head, rest
        head.append((first, end))
        count -= end - first
    return head, []


class _Extent:
    """Resident pages ``[first, end)`` of one inode, one LRU list node."""

    __slots__ = ("ino", "first", "end", "ready_at", "demand", "dirty", "prev", "next")

    def __init__(self, ino: int, first: int, end: int, ready_at: float, demand: int):
        self.ino = ino
        self.first = first
        self.end = end
        self.ready_at = ready_at  # device completion time (may be in the future)
        self.demand = demand  # the one page not prefetched, or -1
        self.dirty = False  # only ever set on a 1-page extent
        self.prev: Optional[_Extent] = None
        self.next: Optional[_Extent] = None


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
        if writeback_batch < 1:
            raise ValueError("writeback_batch must be >= 1")
        self.clock = clock
        self.device = device
        self.tracepoints = tracepoints
        self.capacity_pages = capacity_pages
        self.dirty_threshold = dirty_threshold
        self.writeback_batch = writeback_batch
        # LRU sentinel: ``_lru.next`` is the oldest extent, ``_lru.prev``
        # the newest.
        self._lru = _Extent(-1, 0, 0, 0.0, -1)
        self._lru.prev = self._lru.next = self._lru
        # Per inode: sorted extent starts and the extents, in step.
        self._index: Dict[int, Tuple[List[int], List[_Extent]]] = {}
        self._len = 0
        self._dirty_count = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return self._find(*key) is not None

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Resident ``(ino, page)`` keys, least recently used first."""
        lru = self._lru
        ext = lru.next
        while ext is not lru:
            for page in range(ext.first, ext.end):
                yield ext.ino, page
            ext = ext.next

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
        ext = self._find(ino, page)
        if ext is not None:
            prefetched = page != ext.demand
            ext = self._touch(ext, page)
            self._record_hit(ino, page, ext.ready_at, prefetched)
            plan = plan_hit(ra_state, page, ra_pages, file_pages)
            if plan is not None:
                self._issue_window(ino, plan)
            return
        self.stats.misses += 1
        plan = plan_miss(ra_state, page, ra_pages, file_pages)
        done = self._issue_window(ino, plan)
        if done is not None:
            self.clock.advance_to(done)

    def write_page(self, ino: int, page: int) -> None:
        """Full-page write: write-allocate, mark dirty, maybe write back."""
        ext = self._lru.prev
        if ext.first == page and ext.end == page + 1 and ext.ino == ino:
            # The MRU page, where each append lands: touching it only
            # marks it demanded.
            prefetched = page != ext.demand
            ext.demand = page
        else:
            ext = self._find(ino, page)
            if ext is not None:
                prefetched = page != ext.demand
                ext = self._touch(ext, page)
        if ext is not None:
            self._record_hit(ino, page, ext.ready_at, prefetched)
            if not ext.dirty:
                ext.dirty = True
                self._dirty_count += 1
        else:
            self.stats.misses += 1
            ext = self._append(ino, page, page + 1, self.clock.now, page)
            ext.dirty = True
            self.stats.inserted += 1
            while self._len > self.capacity_pages:
                self._evict_one()
            self._dirty_count += 1
            tracepoints = self.tracepoints
            if not tracepoints.count_unheard("add_to_page_cache"):
                tracepoints.emit(
                    "add_to_page_cache", self.clock.now, ino=ino, page=page
                )
        if self._dirty_count > self.dirty_threshold * self.capacity_pages:
            self.writeback(self.writeback_batch)

    # ------------------------------------------------------------------
    # Extent list and index
    # ------------------------------------------------------------------

    def _find(self, ino: int, page: int) -> Optional[_Extent]:
        """The extent holding ``(ino, page)``, or None if not resident."""
        index = self._index.get(ino)
        if index is None:
            return None
        i = bisect_right(index[0], page) - 1
        if i < 0:
            return None
        ext = index[1][i]
        return ext if page < ext.end else None

    def _link_after(self, node: _Extent, ext: _Extent) -> None:
        after = node.next
        ext.prev = node
        ext.next = after
        node.next = ext
        after.prev = ext

    def _unlink(self, ext: _Extent) -> None:
        # Clearing the links leaves no reference cycle behind, so a
        # dropped extent is freed at once rather than by the cyclic GC.
        ext.prev.next = ext.next
        ext.next.prev = ext.prev
        ext.prev = ext.next = None

    def _drop(self, ext: _Extent) -> None:
        """Remove ``ext`` from the list and the index (``_len`` is the caller's)."""
        starts, exts = self._index[ext.ino]
        i = bisect_left(starts, ext.first)
        del starts[i]
        del exts[i]
        self._unlink(ext)

    def _append(
        self, ino: int, first: int, end: int, ready_at: float, demand: int
    ) -> _Extent:
        """Insert the non-resident run ``[first, end)`` at the MRU end."""
        ext = _Extent(ino, first, end, ready_at, demand)
        self._link_after(self._lru.prev, ext)
        index = self._index.get(ino)
        if index is None:
            index = self._index[ino] = ([], [])
        starts, exts = index
        i = bisect_right(starts, first)
        starts.insert(i, first)
        exts.insert(i, ext)
        self._len += end - first
        return ext

    def _touch(self, ext: _Extent, page: int) -> _Extent:
        """Move ``page`` of ``ext`` to the MRU end as a 1-page extent."""
        lru = self._lru
        first, end = ext.first, ext.end
        if end - first == 1:
            ext.demand = page
            if ext.next is not lru:
                self._unlink(ext)
                self._link_after(lru.prev, ext)
            return ext
        hit = _Extent(ext.ino, page, page + 1, ext.ready_at, page)
        starts, exts = self._index[ext.ino]
        i = bisect_left(starts, first)
        if page == first:
            ext.first = starts[i] = page + 1
        else:
            i += 1
            if page + 1 < end:
                # The pages above ``page`` keep the extent's LRU position.
                rest = _Extent(ext.ino, page + 1, end, ext.ready_at, ext.demand)
                self._link_after(ext, rest)
                starts.insert(i, page + 1)
                exts.insert(i, rest)
            ext.end = page
        starts.insert(i, page)
        exts.insert(i, hit)
        self._link_after(lru.prev, hit)
        return hit

    def _missing_runs(self, ino: int, start: int, stop: int) -> List[Tuple[int, int]]:
        """The non-resident runs of ``[start, stop)`` in ascending order."""
        index = self._index.get(ino)
        if index is None:
            return [(start, stop)]
        starts, exts = index
        runs = []
        i = bisect_right(starts, start) - 1
        page = start
        if i >= 0 and exts[i].end > page:
            page = exts[i].end
        i += 1
        n = len(starts)
        while page < stop:
            if i == n or starts[i] >= stop:
                runs.append((page, stop))
                break
            if starts[i] > page:
                runs.append((page, starts[i]))
            page = exts[i].end
            i += 1
        return runs

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record_hit(
        self, ino: int, page: int, ready_at: float, prefetched: bool
    ) -> None:
        stats = self.stats
        stats.hits += 1
        if prefetched:
            stats.prefetch_used += 1
        if ready_at > self.clock.now:
            # The page is still in flight from an async window.
            stats.wait_time += ready_at - self.clock.now
            self.clock.advance_to(ready_at)
        tracepoints = self.tracepoints
        if not tracepoints.count_unheard("mark_page_accessed"):
            tracepoints.emit("mark_page_accessed", self.clock.now, ino=ino, page=page)

    def _issue_window(self, ino: int, plan: ReadaheadPlan) -> Optional[float]:
        """Read the non-resident pages of a window in one device request.

        Returns the completion time, or None if every page was already
        resident (nothing to read).
        """
        start = plan.start
        runs = self._missing_runs(ino, start, start + plan.count)
        if not runs:
            return None
        n = 0
        for first, end in runs:
            n += end - first
        clock = self.clock
        tracepoints = self.tracepoints
        done = self.device.submit(clock, n, is_write=False)
        now = clock.now
        is_async = plan.is_async
        if not tracepoints.count_unheard("readahead"):
            tracepoints.emit(
                "readahead", now, ino=ino, start=start, count=n, is_async=is_async
            )
        # A synchronous window's demanded page is its first missing
        # page, ``start``; every other page of a window is prefetched.
        demand = start if not is_async else -1
        stats = self.stats
        lru = self._lru
        capacity = self.capacity_pages
        pos = 0  # pages of the window inserted so far
        emitted = 0  # pages of the window whose adds are dispatched
        pending: List[Tuple[int, int]] = []  # inserted runs not dispatched
        while True:
            over = self._len + n - pos - capacity
            if over > 0:
                over -= self._evict_clean(over)
            if over <= 0 or lru.next is lru:
                # No dirty victim: the rest goes in at once, and any
                # overflow left is the oldest of the window's own pages.
                for first, end in runs:
                    self._append(ino, first, end, done, demand)
                stats.inserted += n - pos
                stats.prefetch_inserted += n - pos - (pos == 0 and demand >= 0)
                if over > 0:
                    self._evict_clean(over)
                pending += runs
                break
            # The oldest page is dirty: it is evicted by the insert that
            # overfills the cache, the k-th page from ``pos``.
            k = capacity - self._len + 1
            head, runs = _split_runs(runs, k)
            for first, end in head:
                self._append(ino, first, end, done, demand)
            stats.inserted += k
            stats.prefetch_inserted += k - 1 - (pos == 0 < k - 1 and demand >= 0)
            victim = lru.next
            self._drop(victim)
            self._len -= 1
            stats.evicted += 1
            pos += k
            # The adds before the overfilling page go out before the
            # victim's writeback; that page's add waits for the next batch.
            last = head[-1][1] - 1
            pending += head
            if pending[-1][0] == last:
                pending.pop()
            else:
                pending[-1] = (pending[-1][0], last)
            if pending:
                tracepoints.emit_pages(
                    "add_to_page_cache", now, ino, PageRuns(pending, pos - 1 - emitted)
                )
            emitted = pos - 1
            pending = [(last, last + 1)]
            self._dirty_count -= 1
            self._write_back_pages(1, victim.ino, victim.first)
            stats.prefetch_inserted += last != demand
        tracepoints.emit_pages(
            "add_to_page_cache", now, ino, PageRuns(pending, n - emitted)
        )
        return done

    def _evict_clean(self, limit: int) -> int:
        """Evict up to ``limit`` pages from the LRU end, stopping at a dirty page.

        Returns how many pages were evicted.
        """
        lru = self._lru
        evicted = wasted = 0
        while evicted < limit:
            ext = lru.next
            if ext is lru or ext.dirty:
                break
            first = ext.first
            take = min(limit - evicted, ext.end - first)
            wasted += take - (first <= ext.demand < first + take)
            if take == ext.end - first:
                self._drop(ext)
            else:
                starts = self._index[ext.ino][0]
                ext.first = starts[bisect_left(starts, first)] = first + take
            evicted += take
        self._len -= evicted
        self.stats.evicted += evicted
        self.stats.prefetch_wasted += wasted
        return evicted

    def _evict_one(self) -> None:
        if self._evict_clean(1):
            return
        victim = self._lru.next  # a dirty 1-page extent
        self._drop(victim)
        self._len -= 1
        self.stats.evicted += 1
        self._dirty_count -= 1
        self._write_back_pages(1, victim.ino, victim.first)

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
        limit = min(budget, self._dirty_count)
        victims = []
        lru = self._lru
        ext = lru.next
        while len(victims) < limit and ext is not lru:
            if ext.dirty:
                ext.dirty = False
                victims.append((ext.ino, ext.first))
            ext = ext.next
        self._dirty_count -= len(victims)
        # Merge into contiguous per-inode runs, capped at the batch size.
        cleaned = len(victims)
        ordered = sorted(victims)
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
        lru = self._lru
        ext = lru.next
        while ext is not lru:
            after = ext.next
            ext.prev = ext.next = None
            ext = after
        lru.prev = lru.next = lru
        self._index.clear()
        self._len = 0
        self._dirty_count = 0

    def invalidate(self, ino: int) -> None:
        """Drop all pages of one inode (unlink/truncate path)."""
        index = self._index.pop(ino, None)
        if index is None:
            return
        for ext in index[1]:
            if ext.dirty:
                self._dirty_count -= 1
            self._len -= ext.end - ext.first
            self._unlink(ext)
