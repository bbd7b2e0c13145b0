"""Tests for the page cache: hits, misses, readahead, eviction, writeback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.os_sim.clock import SimClock
from repro.os_sim.device import nvme_ssd
from repro.os_sim.page_cache import PageCache
from repro.os_sim.readahead import ReadaheadState
from repro.os_sim.tracepoints import TracepointRegistry

FILE_PAGES = 100_000
INO = 1


def make_cache(capacity=256, **kwargs):
    clock = SimClock()
    device = nvme_ssd()
    registry = TracepointRegistry()
    cache = PageCache(clock, device, registry, capacity_pages=capacity, **kwargs)
    return cache, clock, device, registry


class TestReadPath:
    def test_miss_then_hit(self):
        cache, clock, device, _ = make_cache()
        state = ReadaheadState()
        cache.read_page(INO, 5, state, 0, FILE_PAGES)
        assert cache.stats.misses == 1
        t_after_miss = clock.now
        cache.read_page(INO, 5, state, 0, FILE_PAGES)
        assert cache.stats.hits == 1
        assert clock.now == t_after_miss  # hit costs no device time

    def test_miss_blocks_for_device(self):
        cache, clock, device, _ = make_cache()
        cache.read_page(INO, 0, ReadaheadState(), 0, FILE_PAGES)
        assert clock.now == pytest.approx(device.service_time(1))

    def test_random_miss_reads_window(self):
        cache, clock, device, _ = make_cache()
        cache.read_page(INO, 50, ReadaheadState(), 64, FILE_PAGES)
        # window = 64 // 8 = 8 pages in one request
        assert device.stats.pages_read == 8
        assert device.stats.read_requests == 1
        for page in range(50, 58):
            assert (INO, page) in cache

    def test_sequential_stream_prefetches_async(self):
        cache, clock, device, _ = make_cache(capacity=4096)
        state = ReadaheadState()
        for page in range(0, 64):
            cache.read_page(INO, page, state, 64, FILE_PAGES)
        # Reads beyond the first window must mostly hit prefetched pages.
        assert cache.stats.hits > 40
        assert cache.stats.prefetch_used > 0

    def test_waiting_on_inflight_page_charged_as_wait(self):
        cache, clock, device, _ = make_cache()
        state = ReadaheadState()
        # Prime a sequential stream so an async window is in flight.
        for page in range(0, 40):
            cache.read_page(INO, page, state, 256, FILE_PAGES)
        assert cache.stats.wait_time >= 0.0  # accounting exists
        assert clock.now >= device.stats.busy_time * 0.0  # sanity

    def test_demanded_page_marked_accessed(self):
        cache, _, _, _ = make_cache()
        cache.read_page(INO, 9, ReadaheadState(), 64, FILE_PAGES)
        # The demanded page was not prefetched: hitting it uses no prefetch.
        cache.read_page(INO, 9, ReadaheadState(), 64, FILE_PAGES)
        assert cache.stats.prefetch_used == 0
        # Its neighbour was prefetched and is used once, on its first hit.
        cache.read_page(INO, 10, ReadaheadState(), 64, FILE_PAGES)
        assert cache.stats.prefetch_used == 1
        cache.read_page(INO, 10, ReadaheadState(), 64, FILE_PAGES)
        assert cache.stats.prefetch_used == 1


class TestEviction:
    def test_capacity_bound_holds(self):
        cache, _, _, _ = make_cache(capacity=16)
        state = ReadaheadState()
        for page in range(0, 200, 3):  # random-ish
            cache.read_page(INO, page, state, 0, FILE_PAGES)
        assert len(cache) <= 16

    def test_lru_evicts_oldest(self):
        cache, _, _, _ = make_cache(capacity=2)
        cache.read_page(INO, 1, ReadaheadState(), 0, FILE_PAGES)
        cache.read_page(INO, 2, ReadaheadState(), 0, FILE_PAGES)
        cache.read_page(INO, 1, ReadaheadState(), 0, FILE_PAGES)  # touch 1
        cache.read_page(INO, 3, ReadaheadState(), 0, FILE_PAGES)  # evicts 2
        assert (INO, 1) in cache and (INO, 3) in cache
        assert (INO, 2) not in cache

    def test_wasted_prefetch_counted(self):
        cache, _, _, _ = make_cache(capacity=8)
        state = ReadaheadState()
        # Large random windows insert prefetched pages that are never
        # read before being evicted.
        for page in range(0, 4000, 97):
            cache.read_page(INO, page, state, 64, FILE_PAGES)
        assert cache.stats.prefetch_wasted > 0

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_capacity_never_exceeded(self, pages):
        cache, _, _, _ = make_cache(capacity=32)
        state = ReadaheadState()
        for page in pages:
            cache.read_page(INO, page, state, 128, 501)
            assert len(cache) <= 32

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_property_hit_plus_miss_equals_accesses(self, pages):
        cache, _, _, _ = make_cache(capacity=64)
        state = ReadaheadState()
        for page in pages:
            cache.read_page(INO, page, state, 32, 200)
        assert cache.stats.accesses == len(pages)


class TestWritePath:
    def test_write_allocates_and_dirties(self):
        cache, _, device, _ = make_cache()
        cache.write_page(INO, 3)
        assert cache.dirty_pages == 1
        assert device.stats.read_requests == 0  # no read-modify-write

    def test_write_hit_no_double_dirty(self):
        cache, _, _, _ = make_cache()
        cache.write_page(INO, 3)
        cache.write_page(INO, 3)
        assert cache.dirty_pages == 1

    def test_threshold_triggers_writeback(self):
        cache, _, device, registry = make_cache(capacity=100, dirty_threshold=0.1)
        for page in range(12):
            cache.write_page(INO, page)
        assert device.stats.write_requests > 0
        assert registry.hit_counts["writeback_dirty_page"] > 0
        assert cache.dirty_pages <= 11

    def test_dirty_eviction_writes_back(self):
        cache, _, device, _ = make_cache(capacity=4, dirty_threshold=1.0)
        for page in range(8):
            cache.write_page(INO, page)
        assert device.stats.pages_written >= 4

    def test_sync_cleans_everything(self):
        cache, clock, device, _ = make_cache(dirty_threshold=1.0)
        for page in range(5):
            cache.write_page(INO, page)
        cache.sync()
        assert cache.dirty_pages == 0
        assert clock.now >= device.stats.busy_time  # waited for drain

    def test_drop_caches_empties(self):
        cache, _, _, _ = make_cache()
        cache.write_page(INO, 1)
        cache.read_page(INO, 2, ReadaheadState(), 0, FILE_PAGES)
        cache.drop_caches()
        assert len(cache) == 0 and cache.dirty_pages == 0

    def test_invalidate_single_inode(self):
        cache, _, _, _ = make_cache()
        cache.write_page(1, 0)
        cache.write_page(2, 0)
        cache.invalidate(1)
        assert (1, 0) not in cache and (2, 0) in cache
        assert cache.dirty_pages == 1


class TestTracepoints:
    def test_insert_emits_add_to_page_cache(self):
        cache, _, _, registry = make_cache()
        cache.read_page(INO, 0, ReadaheadState(), 64, FILE_PAGES)
        assert registry.hit_counts["add_to_page_cache"] == 8  # the window

    def test_hit_emits_mark_page_accessed(self):
        cache, _, _, registry = make_cache()
        state = ReadaheadState()
        cache.read_page(INO, 0, state, 0, FILE_PAGES)
        cache.read_page(INO, 0, state, 0, FILE_PAGES)
        assert registry.hit_counts["mark_page_accessed"] == 1

    def test_event_fields(self):
        cache, _, _, registry = make_cache()
        events = []
        registry.subscribe("add_to_page_cache", events.append)
        cache.read_page(7, 42, ReadaheadState(), 0, FILE_PAGES)
        assert events[0].fields == {"ino": 7, "page": 42}

    @staticmethod
    def _writes_and_hits(listen):
        """Write misses and hits (with evictions), then read hits."""
        cache, clock, _, registry = make_cache(capacity=4)
        events, emitted = [], {}
        if listen:
            for name in ("mark_page_accessed", "add_to_page_cache"):
                registry.subscribe(name, events.append)
            emit = registry.emit

            def counting_emit(name, timestamp, **fields):
                emitted[name] = emitted.get(name, 0) + 1
                emit(name, timestamp, **fields)

            registry.emit = counting_emit
        expected = []
        for page in (0, 1, 0, 2, 3, 4, 4, 1, 0):
            added = (INO, page) not in cache
            cache.write_page(INO, page)
            name = "add_to_page_cache" if added else "mark_page_accessed"
            expected.append((name, clock.now, {"ino": INO, "page": page}))
        for page in (4, 0):
            cache.read_page(INO, page, ReadaheadState(), 0, FILE_PAGES)
            expected.append(("mark_page_accessed", clock.now, {"ino": INO, "page": page}))
        return registry, events, emitted, expected

    def test_write_path_counts_equal_with_and_without_a_subscriber(self):
        quiet, _, _, _ = self._writes_and_hits(listen=False)
        heard, events, emitted, expected = self._writes_and_hits(listen=True)
        assert quiet.hit_counts == heard.hit_counts
        for name in ("mark_page_accessed", "add_to_page_cache"):
            assert quiet.hit_counts[name] == emitted[name]
        assert emitted == {
            "add_to_page_cache": 7, "mark_page_accessed": 4, "writeback_dirty_page": 9
        }
        assert [(e.name, e.timestamp, e.fields) for e in events] == expected

    def test_validation(self):
        clock, device, registry = SimClock(), nvme_ssd(), TracepointRegistry()
        with pytest.raises(ValueError):
            PageCache(clock, device, registry, capacity_pages=0)
        with pytest.raises(ValueError):
            PageCache(clock, device, registry, capacity_pages=10, dirty_threshold=0.0)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_writeback_batch_validated(self, batch):
        clock, device, registry = SimClock(), nvme_ssd(), TracepointRegistry()
        with pytest.raises(ValueError, match="writeback_batch must be >= 1"):
            PageCache(clock, device, registry, capacity_pages=10, writeback_batch=batch)
