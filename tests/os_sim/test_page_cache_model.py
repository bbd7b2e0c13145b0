"""Differential test: the extent LRU against a per-page reference model.

``ModelCache`` is the page cache written the plain way, one
``OrderedDict`` entry per ``(ino, page)``.  Both caches run the same
op stream on their own clock, device and tracepoints, and after every
op the test compares everything an outside observer can see: the event
stream (per-event and page-batch subscribers), the device submits,
``CacheStats``, the clock, ``len``, ``dirty_pages``, residency and LRU
order.  The second property makes the k-th ``device.submit`` raise on
both sides and compares the state the raise leaves behind.

``STRESS=1`` (set by ``make check``) runs many more examples.
"""

import dataclasses
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hooks import HookPlane
from repro.os_sim.clock import SimClock
from repro.os_sim.device import nvme_ssd
from repro.os_sim.page_cache import CacheStats, PageCache
from repro.os_sim.readahead import ReadaheadState, plan_hit, plan_miss
from repro.os_sim.tracepoints import STANDARD_TRACEPOINTS, TracepointRegistry

from ..conftest import STRESS

INOS = (1, 2)
FILE_PAGES = 48


class ModelCache:
    """Per-page LRU with the page cache's counters, events and submits."""

    def __init__(self, clock, device, tracepoints, capacity_pages, dirty_threshold, writeback_batch):
        self.clock, self.device, self.tp = clock, device, tracepoints
        self.cap, self.threshold, self.batch = capacity_pages, dirty_threshold, writeback_batch
        self.pages = OrderedDict()  # (ino, page) -> [ready_at, dirty, prefetched and unread]
        self.dirty_pages = 0
        self.stats = CacheStats()

    def __len__(self):
        return len(self.pages)

    def __contains__(self, key):
        return key in self.pages

    def __iter__(self):
        return iter(self.pages)

    def read_page(self, ino, page, state, ra_pages, file_pages):
        entry = self.pages.get((ino, page))
        if entry is not None:
            self._hit(ino, page, entry)
            plan = plan_hit(state, page, ra_pages, file_pages)
            if plan is not None:
                self._window(ino, plan)
            return
        self.stats.misses += 1
        done = self._window(ino, plan_miss(state, page, ra_pages, file_pages))
        if done is not None:
            self.clock.advance_to(done)

    def write_page(self, ino, page):
        entry = self.pages.get((ino, page))
        if entry is not None:
            self._hit(ino, page, entry)
            if not entry[1]:
                entry[1] = True
                self.dirty_pages += 1
        else:
            self.stats.misses += 1
            self.pages[(ino, page)] = [self.clock.now, True, False]
            self.stats.inserted += 1
            while len(self.pages) > self.cap:
                self._evict([])
            self.dirty_pages += 1
            self.tp.emit("add_to_page_cache", self.clock.now, ino=ino, page=page)
        if self.dirty_pages > self.threshold * self.cap:
            self.writeback(self.batch)

    def _hit(self, ino, page, entry):
        self.pages.move_to_end((ino, page))
        self.stats.hits += 1
        self.stats.prefetch_used += entry[2]
        entry[2] = False
        if entry[0] > self.clock.now:
            self.stats.wait_time += entry[0] - self.clock.now
            self.clock.advance_to(entry[0])
        self.tp.emit("mark_page_accessed", self.clock.now, ino=ino, page=page)

    def _window(self, ino, plan):
        start = plan.start
        missing = [p for p in range(start, start + plan.count) if (ino, p) not in self.pages]
        if not missing:
            return None
        done = self.device.submit(self.clock, len(missing), is_write=False)
        now = self.clock.now
        self.tp.emit("readahead", now, ino=ino, start=start, count=len(missing), is_async=plan.is_async)
        added = []  # pages whose add_to_page_cache is not dispatched yet
        for p in missing:
            prefetched = plan.is_async or p != start
            self.pages[(ino, p)] = [done, False, prefetched]
            self.stats.inserted += 1
            while len(self.pages) > self.cap:
                self._evict(added, now, ino)
            self.stats.prefetch_inserted += prefetched
            added.append(p)
        self.tp.emit_pages("add_to_page_cache", now, ino, added)
        return done

    def _evict(self, added, now=None, ino=None):
        key, (_, dirty, unread) = self.pages.popitem(last=False)
        self.stats.evicted += 1
        self.stats.prefetch_wasted += unread
        if dirty:
            if added:  # a dirty victim cuts the window's add batch
                self.tp.emit_pages("add_to_page_cache", now, ino, list(added))
                added.clear()
            self.dirty_pages -= 1
            self._write(1, key)

    def _write(self, count, key):
        self.device.submit(self.clock, count, is_write=True)
        self.stats.writebacks += count
        self.tp.emit("writeback_dirty_page", self.clock.now, ino=key[0], page=key[1])

    def writeback(self, max_pages=None):
        budget = max_pages if max_pages is not None else self.dirty_pages
        victims = []
        for key, entry in self.pages.items():
            if len(victims) >= budget or self.dirty_pages - len(victims) <= 0:
                break
            if entry[1]:
                entry[1] = False
                victims.append(key)
        self.dirty_pages -= len(victims)
        run = []
        for key in sorted(victims):
            if run and key == (run[-1][0], run[-1][1] + 1) and len(run) < self.batch:
                run.append(key)
                continue
            if run:
                self._write(len(run), run[0])
            run = [key]
        if run:
            self._write(len(run), run[0])
        return len(victims)

    def sync(self):
        cleaned = self.writeback(None)
        self.clock.advance_to(self.device.busy_until)
        return cleaned

    def drop_caches(self):
        self.sync()
        self.pages.clear()
        self.dirty_pages = 0

    def invalidate(self, ino):
        for key in [k for k in self.pages if k[0] == ino]:
            self.dirty_pages -= self.pages.pop(key)[1]


class InjectedError(Exception):
    pass


class SubmitFault:
    """A fault rule that raises on the ``k``-th ``device.submit`` firing."""

    def __init__(self, k):
        self.k = k
        self.fired = 0

    def fire(self):
        self.fired += 1
        if self.fired == self.k:
            raise InjectedError(self.fired)


class SubmitLog:
    """A ``device.submit`` histogram that logs each served request."""

    def __init__(self, side, is_write):
        self.side = side
        self.is_write = is_write

    def observe(self, duration):
        self.side.log.append(("submit", duration, self.is_write))


class Side:
    """One cache with its own clock, device, tracepoints and logs."""

    def __init__(self, cls, config, batched, fail_at):
        self.clock, self.device, self.tp = SimClock(), nvme_ssd(), TracepointRegistry()
        self.log = []
        # The device.submit hook logs each request's service time (its
        # page count is a function of it) and fails the fail_at-th one.
        plane = HookPlane()
        hook = plane.hook("device.submit")
        hook.hist = (SubmitLog(self, False), SubmitLog(self, True))
        if fail_at:
            hook.rules.append(SubmitFault(fail_at))
        plane.attach(self.device)
        for name in STANDARD_TRACEPOINTS:
            pages = self._on_pages if batched else None
            self.tp.subscribe(name, self._on_event, pages=pages)
        self.cache = cls(self.clock, self.device, self.tp, *config)
        self.states = {ino: ReadaheadState() for ino in INOS}

    def _on_event(self, event):
        self.log.append((event.name, event.timestamp, event.fields))

    def _on_pages(self, name, timestamp, ino, pages):
        self.log.append((name, timestamp, ino, list(pages)))

    def apply(self, op):
        kind, *args = op
        cache = self.cache
        try:
            if kind == "read":
                ino, page, count, ra = args
                for p in range(page, min(page + count, FILE_PAGES)):
                    cache.read_page(ino, p, self.states[ino], ra, FILE_PAGES)
            elif kind == "write":
                ino, page, count = args
                for p in range(page, min(page + count, FILE_PAGES)):
                    cache.write_page(ino, p)
            elif kind == "advance":
                self.clock.advance(args[0] * 1e-6)
            else:
                result = getattr(cache, kind)(*args)
                self.log.append((kind, result))
        except InjectedError as error:
            self.log.append(("raised", error.args))

    def observed(self):
        """What the last op did and left behind; the log restarts empty."""
        cache = self.cache
        resident = [(ino, p) for ino in INOS for p in range(FILE_PAGES) if (ino, p) in cache]
        log, self.log = self.log, []
        return (
            log,
            dataclasses.asdict(cache.stats),
            dataclasses.asdict(self.device.stats),
            self.clock.now,
            len(cache),
            cache.dirty_pages,
            resident,
            list(cache),  # LRU order
        )


ino_st = st.sampled_from(INOS)
page_st = st.integers(0, FILE_PAGES - 1)
ra_st = st.integers(0, 128)
run_st = st.integers(1, 24)
OPS = {
    "read": st.tuples(ino_st, page_st, run_st, ra_st),
    "write": st.tuples(ino_st, page_st, run_st),
    "advance": st.tuples(st.integers(0, 300)),
    "writeback": st.tuples(st.none() | st.integers(0, 8)),
    "invalidate": st.tuples(ino_st),
    "sync": st.just(()),
    "drop_caches": st.just(()),
}
# Reads and writes of page runs make up most of a stream.
KINDS = ("read",) * 4 + ("write",) * 3 + tuple(OPS)[2:]
op_st = st.sampled_from(KINDS).flatmap(lambda kind: OPS[kind].map(lambda args: (kind,) + args))
ops_st = st.lists(op_st, min_size=10, max_size=50)
config_st = st.tuples(
    st.integers(1, 40),  # capacity_pages
    st.sampled_from([0.1, 0.5, 1.0]),  # dirty_threshold
    st.integers(1, 8),  # writeback_batch
)


def check_same(config, batched, ops, fail_at=0):
    real = Side(PageCache, config, batched, fail_at)
    model = Side(ModelCache, config, batched, fail_at)
    for op in ops:
        real.apply(op)
        model.apply(op)
        assert real.observed() == model.observed(), op


@settings(max_examples=1000 if STRESS else 60, deadline=None)
@given(config_st, st.booleans(), ops_st)
def test_extent_lru_matches_per_page_model(config, batched, ops):
    check_same(config, batched, ops)


@settings(max_examples=500 if STRESS else 40, deadline=None)
@given(config_st, st.booleans(), ops_st, st.integers(1, 40))
def test_failed_submit_leaves_the_model_state(config, batched, ops, fail_at):
    check_same(config, batched, ops, fail_at)


# Dirty pages, then windows that evict them mid-insert (one larger than
# the cache): each submit of the stream raises in turn.
CUT_OPS = [
    ("write", 1, 0, 3),
    ("read", 2, 0, 1, 64),
    ("write", 1, 10, 3),
    ("read", 2, 20, 3, 128),
    ("write", 2, 40, 4),
    ("read", 1, 30, 1, 64),
    ("writeback", 8),
    ("write", 1, 0, 2),
    ("sync",),
]


@pytest.mark.parametrize("batched", [False, True])
def test_each_failed_submit_of_cut_windows(batched):
    for fail_at in range(1, 17):
        check_same((10, 1.0, 2), batched, CUT_OPS, fail_at)
