"""Tests for the tracepoint registry."""

import pytest

from repro.os_sim.tracepoints import STANDARD_TRACEPOINTS, TracepointRegistry


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

class TestEmitPages:
    def test_counts_hits_without_subscribers(self):
        registry = TracepointRegistry()
        registry.emit_pages("add_to_page_cache", 0.0, 1, [4, 5, 6])
        assert registry.hit_counts["add_to_page_cache"] == 3
        assert registry.subscriber_errors == 0

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
        registry.emit_pages("add_to_page_cache", 1.0, 2, [10, 11])
        assert batches == [("add_to_page_cache", 1.0, 2, [10, 11])]
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
        registry.emit_pages("add_to_page_cache", 0.0, 1, [5, 6])
        assert batches == []
        assert [e.fields["page"] for e in batched] == [5, 6]
        assert [e.fields["page"] for e in generic] == [5, 6]
        assert registry.hit_counts["add_to_page_cache"] == 2
        # Once the generic subscriber leaves, batches go through whole.
        registry.unsubscribe("add_to_page_cache", generic.append)
        registry.emit_pages("add_to_page_cache", 0.0, 1, [7])
        assert batches == [("add_to_page_cache", 0.0, 1, [7])]

    def test_attached_obs_falls_back_to_per_page_dispatch(self):
        class Histogram:
            count = 0

            def observe(self, value):
                self.count += 1

        class Probe:
            hist = Histogram()
            mask = 0
            calls = 0

        registry = TracepointRegistry()
        events, batches = [], []
        registry.subscribe(
            "add_to_page_cache", events.append, pages=lambda *b: batches.append(b)
        )
        registry.attach_obs(Probe)
        registry.emit_pages("add_to_page_cache", 0.0, 1, [1, 2, 3])
        assert batches == []
        assert len(events) == 3
        assert Probe.hist.count == 3

    def test_raising_batch_hook_counted_once_and_suppressed(self):
        registry = TracepointRegistry()
        batches = []

        def bad(name, timestamp, ino, pages):
            raise RuntimeError("hook bug")

        registry.subscribe("add_to_page_cache", lambda e: None, pages=bad)
        registry.subscribe(
            "add_to_page_cache", lambda e: None, pages=lambda *b: batches.append(b)
        )
        registry.emit_pages("add_to_page_cache", 0.0, 1, [1, 2, 3])  # must not raise
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
