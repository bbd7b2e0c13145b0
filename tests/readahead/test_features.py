"""Tests for the feature collector."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.os_sim import make_stack
from repro.readahead.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    PAPER_FEATURES,
    FeatureCollector,
)


@pytest.fixture
def stack():
    return make_stack("nvme", cache_pages=256, ra_pages=64)


def emit_accesses(stack, pages, ino=1, name="mark_page_accessed"):
    for page in pages:
        stack.tracepoints.emit(name, stack.now, ino=ino, page=page)


class TestFeatureDefinitions:
    def test_five_paper_features(self):
        assert NUM_FEATURES == 5
        assert len(PAPER_FEATURES) == 5
        assert len(FEATURE_NAMES) == 8  # eight candidates tried

    def test_names(self):
        names = FeatureCollector.feature_names()
        assert names == [
            "tracepoint_count",
            "offset_cma",
            "offset_cmstd",
            "mean_abs_delta",
            "current_ra",
        ]


class TestCollection:
    def test_count_is_per_window(self, stack):
        collector = FeatureCollector(stack)
        emit_accesses(stack, [1, 2, 3])
        first = collector.snapshot()
        assert first[0] == 3
        emit_accesses(stack, [4])
        second = collector.snapshot()
        assert second[0] == 1  # window reset

    def test_offset_stats_cumulative(self, stack):
        collector = FeatureCollector(stack)
        emit_accesses(stack, [0, 10])
        collector.snapshot()
        emit_accesses(stack, [20])
        features = collector.snapshot()
        assert features[1] == pytest.approx(10.0)  # mean of 0,10,20

    def test_sequential_stream_low_delta(self, stack):
        collector = FeatureCollector(stack)
        emit_accesses(stack, range(100))
        features = collector.snapshot()
        assert features[3] == pytest.approx(1.0)

    def test_random_stream_high_delta(self, stack):
        collector = FeatureCollector(stack)
        rng = np.random.default_rng(0)
        emit_accesses(stack, rng.integers(0, 100_000, size=200))
        features = collector.snapshot()
        assert features[3] > 1000

    def test_current_ra_reflects_block_layer(self, stack):
        collector = FeatureCollector(stack)
        stack.set_readahead(512)
        emit_accesses(stack, [1])
        assert collector.snapshot()[4] == 512

    def test_writeback_counts_but_no_offset(self, stack):
        collector = FeatureCollector(stack)
        stack.tracepoints.emit("writeback_dirty_page", 0.0, ino=1, page=5)
        features = collector.snapshot_all()
        assert features[0] == 1          # counted
        assert features[1] == 0.0        # offset stats untouched

    def test_candidate_features(self, stack):
        collector = FeatureCollector(stack)
        emit_accesses(stack, [5, 6], ino=1, name="add_to_page_cache")
        emit_accesses(stack, [7], ino=2, name="mark_page_accessed")
        features = collector.snapshot_all()
        assert features[6] == pytest.approx(1 / 3)  # hit ratio
        assert features[7] == 2                     # unique inodes
        assert features[5] == pytest.approx(1.0)    # signed mean delta

    def test_detach_stops_collection(self, stack):
        collector = FeatureCollector(stack)
        collector.detach()
        emit_accesses(stack, [1, 2])
        assert collector.snapshot()[0] == 0

    def test_reset_clears_cumulative(self, stack):
        collector = FeatureCollector(stack)
        emit_accesses(stack, [100, 200])
        collector.reset()
        emit_accesses(stack, [0])
        features = collector.snapshot()
        assert features[1] == 0.0  # cma over just the new event

    def test_context_manager_detaches(self, stack):
        with FeatureCollector(stack) as collector:
            emit_accesses(stack, [1])
        emit_accesses(stack, [2])
        assert collector.events_seen == 1

    def test_reads_drive_features_end_to_end(self, stack):
        collector = FeatureCollector(stack)
        handle = stack.fs.open("f", create=True)
        stack.fs.write(handle, 0, b"x" * 4096 * 64)
        stack.drop_caches()
        collector.reset()
        for page in range(16):
            stack.fs.read(handle, page * 4096, 100)
        features = collector.snapshot()
        assert features[0] > 0
        assert features[3] < 10  # sequential

    def test_page_batches_match_per_event_bit_for_bit(self):
        rng = np.random.default_rng(3)
        per_event = make_stack("nvme", cache_pages=256, ra_pages=64)
        batched = make_stack("nvme", cache_pages=256, ra_pages=64)
        one, many = FeatureCollector(per_event), FeatureCollector(batched)
        for window in range(5):
            for _ in range(20):
                ino = int(rng.integers(1, 4))
                pages = rng.integers(0, 1 << 40, size=int(rng.integers(0, 17))).tolist()
                emit_accesses(per_event, pages, ino=ino, name="add_to_page_cache")
                batched.tracepoints.emit_pages("add_to_page_cache", 0.0, ino, pages)
                hit = int(rng.integers(0, 1 << 40))
                emit_accesses(per_event, [hit], ino=ino)
                emit_accesses(batched, [hit], ino=ino)
            assert one.snapshot_all().tobytes() == many.snapshot_all().tobytes()
        assert one.events_seen == many.events_seen

    @given(
        base=st.integers(0, 1 << 40),
        spread=st.sampled_from([64, 1 << 40]),
        batches=st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 1 << 40), max_size=16)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_offset_features_match_numpy(self, base, spread, batches):
        """(ii), (iii) and (iv) against numpy, per event and as batches.

        With ``spread`` 64 the offsets are a small spread on a mean near
        2^40, where a sum-of-squares variance cancels catastrophically.
        """
        stack = make_stack("nvme", cache_pages=16)
        collector = FeatureCollector(stack)
        offsets = []
        for batched, draws in batches:
            pages = [base + draw % (spread + 1) for draw in draws]
            offsets += pages
            if batched:
                stack.tracepoints.emit_pages("add_to_page_cache", 0.0, 1, pages)
            else:
                emit_accesses(stack, pages, name="add_to_page_cache")
        values = np.array(offsets, dtype=np.float64)
        features = collector.snapshot()
        assert features[0] == len(offsets)
        if not offsets:
            assert features[1:4].tolist() == [0.0, 0.0, 0.0]
            return
        assert features[1] == pytest.approx(values.mean(), rel=1e-12)
        assert features[2] == pytest.approx(values.std(), rel=1e-6, abs=1e-3)
        deltas = np.abs(np.diff(values))
        expected = deltas.mean() if len(deltas) else 0.0
        assert features[3] == pytest.approx(expected, rel=1e-9)

    def test_dropped_stack_freed_without_cycle_collection(self):
        stack = make_stack("nvme", cache_pages=16)
        FeatureCollector(stack)
        alive = weakref.ref(stack)
        gc.disable()
        try:
            del stack
            assert alive() is None
        finally:
            gc.enable()
