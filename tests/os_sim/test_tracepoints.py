"""Tests for the tracepoint registry."""

import pytest

from repro.hooks import HookPlane
from repro.os_sim.tracepoints import STANDARD_TRACEPOINTS, PageRuns, TracepointRegistry


class TestRegistry:
    def test_standard_names_present(self):
        registry = TracepointRegistry()
        assert "add_to_page_cache" in registry.names
        assert "writeback_dirty_page" in registry.names

    def test_emit_counts_without_subscribers(self):
        registry = TracepointRegistry()
        registry.emit("readahead", 0.0, ino=1)
        assert registry.hit_counts["readahead"] == 1
        assert sum(registry.hit_counts.values()) == 1

    def test_subscriber_receives_event(self):
        registry = TracepointRegistry()
        events = []
        registry.subscribe("add_to_page_cache", events.append)
        registry.emit("add_to_page_cache", 1.5, ino=3, page=9)
        assert events[0].name == "add_to_page_cache"
        assert events[0].timestamp == 1.5
        assert events[0].fields["page"] == 9

    def test_multiple_subscribers_all_called(self):
        registry = TracepointRegistry()
        a, b = [], []
        registry.subscribe("readahead", a.append)
        registry.subscribe("readahead", b.append)
        registry.emit("readahead", 0.0)
        assert len(a) == len(b) == 1

    def test_unsubscribe(self):
        registry = TracepointRegistry()
        events = []
        registry.subscribe("readahead", events.append)
        registry.unsubscribe("readahead", events.append)
        registry.emit("readahead", 0.0)
        assert events == []

    def test_unsubscribe_unknown_hook(self):
        registry = TracepointRegistry()
        with pytest.raises(KeyError):
            registry.unsubscribe("readahead", lambda e: None)

    def test_subscribe_unknown_name(self):
        with pytest.raises(KeyError):
            TracepointRegistry().subscribe("nope", lambda e: None)

    def test_subscriber_exception_swallowed_and_counted(self):
        registry = TracepointRegistry()

        def bad(event):
            raise RuntimeError("hook bug")

        good_events = []
        registry.subscribe("readahead", bad)
        registry.subscribe("readahead", good_events.append)
        registry.emit("readahead", 0.0)  # must not raise
        assert registry.subscriber_errors == 1
        assert len(good_events) == 1  # later hooks still run

    def test_count_unheard_counts_only_without_subscribers(self):
        registry = TracepointRegistry()
        assert registry.count_unheard("readahead")
        assert registry.hit_counts["readahead"] == 1
        events = []
        registry.subscribe("readahead", events.append)
        assert not registry.count_unheard("readahead")
        assert registry.hit_counts["readahead"] == 1
        assert events == []


class TestReadaheadTracepoint:
    """The page cache counts each readahead window whether or not it
    builds the event, and a subscriber still gets every window."""

    @staticmethod
    def _misses(stack, events=None):
        if events is not None:
            stack.tracepoints.subscribe("readahead", events.append)
        handle = stack.fs.open("table", create=True)
        stack.fs.write(handle, 0, b"x" * 4096 * 2048)
        stack.drop_caches()
        before = stack.tracepoints.hit_counts["readahead"]
        for page in (0, 704, 1408, 304, 1904):
            stack.fs.read(handle, page * 4096, 4096)
        return stack.tracepoints.hit_counts["readahead"] - before

    def test_windows_counted_with_and_without_a_subscriber(self):
        from repro.os_sim import make_stack

        events = []
        quiet = self._misses(make_stack("nvme", cache_pages=64, ra_pages=16))
        heard = self._misses(make_stack("nvme", cache_pages=64, ra_pages=16), events)
        assert quiet == heard == len(events) == 5
        assert [(e.fields["start"], e.fields["is_async"]) for e in events] == [
            (page, False) for page in (0, 704, 1408, 304, 1904)
        ]


class TestEmitPages:
    def test_counts_hits_without_subscribers(self):
        registry = TracepointRegistry()
        registry.emit_pages("add_to_page_cache", 0.0, 1, PageRuns([(4, 7)], 3))
        assert registry.hit_counts["add_to_page_cache"] == 3
        assert registry.subscriber_errors == 0

    def test_page_runs_read_as_their_pages(self):
        pages = PageRuns([(4, 7), (9, 10), (12, 14)], 6)
        assert list(pages) == [4, 5, 6, 9, 12, 13]
        assert len(pages) == 6

    def test_generic_subscriber_expands_runs_in_order(self):
        registry = TracepointRegistry()
        events = []
        registry.subscribe("add_to_page_cache", events.append)
        registry.emit_pages("add_to_page_cache", 0.0, 7, PageRuns([(3, 5), (8, 9)], 3))
        assert [e.fields["page"] for e in events] == [3, 4, 8]
        assert registry.hit_counts["add_to_page_cache"] == 3

    def test_page_list_reaches_batch_forms_as_runs_of_one(self):
        registry = TracepointRegistry()
        batches = []
        registry.subscribe(
            "add_to_page_cache", lambda e: None, pages=lambda *b: batches.append(b)
        )
        registry.emit_pages("add_to_page_cache", 0.0, 1, [9, 3, 4])
        (name, timestamp, ino, pages), = batches
        assert pages.runs == [(9, 10), (3, 4), (4, 5)]
        assert pages.count == 3

    def test_generic_subscriber_gets_one_event_per_page(self):
        registry = TracepointRegistry()
        events = []
        registry.subscribe("add_to_page_cache", events.append)
        registry.emit_pages("add_to_page_cache", 2.5, 7, [9, 3, 4])
        assert [e.fields["page"] for e in events] == [9, 3, 4]
        assert all(e.name == "add_to_page_cache" for e in events)
        assert all(e.timestamp == 2.5 for e in events)
        assert all(e.fields == {"ino": 7, "page": e.fields["page"]} for e in events)
        assert registry.hit_counts["add_to_page_cache"] == 3

    def test_batch_subscribers_called_once_per_batch(self):
        registry = TracepointRegistry()
        batches, events = [], []
        registry.subscribe(
            "add_to_page_cache",
            events.append,
            pages=lambda *batch: batches.append(batch),
        )
        runs = PageRuns([(10, 12)], 2)
        registry.emit_pages("add_to_page_cache", 1.0, 2, runs)
        assert batches == [("add_to_page_cache", 1.0, 2, runs)]
        assert events == []
        assert registry.hit_counts["add_to_page_cache"] == 2
        # A plain emit still reaches the per-event hook.
        registry.emit("add_to_page_cache", 1.5, ino=2, page=12)
        assert [e.fields["page"] for e in events] == [12]

    def test_mixed_subscribers_fall_back_to_per_page_dispatch(self):
        registry = TracepointRegistry()
        batched, generic, batches = [], [], []
        registry.subscribe(
            "add_to_page_cache", batched.append, pages=lambda *b: batches.append(b)
        )
        registry.subscribe("add_to_page_cache", generic.append)
        registry.emit_pages("add_to_page_cache", 0.0, 1, PageRuns([(5, 7)], 2))
        assert batches == []
        assert [e.fields["page"] for e in batched] == [5, 6]
        assert [e.fields["page"] for e in generic] == [5, 6]
        assert registry.hit_counts["add_to_page_cache"] == 2
        # Once the generic subscriber leaves, batches go through whole.
        registry.unsubscribe("add_to_page_cache", generic.append)
        runs = PageRuns([(7, 8)], 1)
        registry.emit_pages("add_to_page_cache", 0.0, 1, runs)
        assert batches == [("add_to_page_cache", 0.0, 1, runs)]

    def test_attached_obs_falls_back_to_per_page_dispatch(self):
        class Histogram:
            count = 0

            def observe(self, value):
                self.count += 1

        registry = TracepointRegistry()
        events, batches = [], []
        registry.subscribe(
            "add_to_page_cache", events.append, pages=lambda *b: batches.append(b)
        )
        plane = HookPlane()
        hook = plane.hook("tracepoints.dispatch")
        hook.hist, hook.mask = Histogram(), 0
        plane.attach(registry)
        registry.emit_pages("add_to_page_cache", 0.0, 1, PageRuns([(1, 4)], 3))
        assert batches == []
        assert len(events) == 3
        assert hook.hist.count == 3

    def test_raising_batch_hook_counted_once_and_suppressed(self):
        registry = TracepointRegistry()
        batches = []

        def bad(name, timestamp, ino, pages):
            raise RuntimeError("hook bug")

        registry.subscribe("add_to_page_cache", lambda e: None, pages=bad)
        registry.subscribe(
            "add_to_page_cache", lambda e: None, pages=lambda *b: batches.append(b)
        )
        registry.emit_pages("add_to_page_cache", 0.0, 1, PageRuns([(1, 4)], 3))  # must not raise
        assert registry.subscriber_errors == 1
        assert len(batches) == 1  # later hooks still run
        assert registry.hit_counts["add_to_page_cache"] == 3


class TestBlockRaSetTracepoint:
    def test_set_readahead_emits_event(self):
        from repro.os_sim import make_stack

        stack = make_stack("nvme", ra_pages=128)
        events = []
        stack.tracepoints.subscribe("block_ra_set", events.append)
        stack.set_readahead(64)
        assert events[0].fields == {"value": 64}
        assert stack.block.ra_pages == 64
