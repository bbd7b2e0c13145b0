"""Tests for the feature collector."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.os_sim import make_stack
from repro.os_sim.tracepoints import PageRuns
from repro.readahead.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    PAPER_FEATURES,
    FeatureCollector,
)

from ..conftest import STRESS


@pytest.fixture
def stack():
    return make_stack("nvme", cache_pages=256, ra_pages=64)


def emit_accesses(stack, pages, ino=1, name="mark_page_accessed"):
    for page in pages:
        stack.tracepoints.emit(name, stack.now, ino=ino, page=page)


def expand(runs):
    """The pages of ``runs``, in order."""
    return [page for first, end in runs for page in range(first, end)]


def per_page_fold(collector, name, ino, pages):
    """The collector's fold as it was before it took runs: every page,
    in order, takes the general step from the previous offset."""
    count, mean, m2 = collector.count, collector.mean, collector.m2
    previous, deltas = collector.previous, collector.deltas
    abs_mean, signed_sum = collector.abs_mean, collector.signed_sum
    for page in pages:
        offset = float(page)
        count += 1
        delta = offset - mean
        mean += delta / count
        m2 += delta * (offset - mean)
        if previous is not None:
            step = offset - previous
            deltas += 1
            abs_mean += (abs(step) - abs_mean) / deltas
            signed_sum += step
        previous = offset
    collector.count, collector.mean, collector.m2 = count, mean, m2
    collector.previous, collector.deltas = previous, deltas
    collector.abs_mean, collector.signed_sum = abs_mean, signed_sum
    n = len(pages)
    if not n:
        return
    collector._window_events += n
    collector.events_seen += n
    if name == "mark_page_accessed":
        collector._hits += n
    else:
        collector._inserts += n
    collector._inodes.add(ino)


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
                starts = rng.integers(0, 1 << 40, size=int(rng.integers(0, 4))).tolist()
                runs = [(start, start + int(rng.integers(1, 17))) for start in starts]
                pages = expand(runs)
                emit_accesses(per_event, pages, ino=ino, name="add_to_page_cache")
                batched.tracepoints.emit_pages(
                    "add_to_page_cache", 0.0, ino, PageRuns(runs, len(pages))
                )
                hit = int(rng.integers(0, 1 << 40))
                emit_accesses(per_event, [hit], ino=ino)
                emit_accesses(batched, [hit], ino=ino)
            assert one.snapshot_all().tobytes() == many.snapshot_all().tobytes()
        assert one.events_seen == many.events_seen

    @given(
        base=st.integers(0, 1 << 40),
        spread=st.sampled_from([64, 1 << 40]),
        batches=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.tuples(st.integers(0, 1 << 40), st.integers(1, 8)), max_size=6),
            ),
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
            runs = []
            for draw, length in draws:
                first = base + draw % (spread + 1)
                runs.append((first, first + length))
            pages = expand(runs)
            offsets += pages
            if batched:
                stack.tracepoints.emit_pages(
                    "add_to_page_cache", 0.0, 1, PageRuns(runs, len(pages))
                )
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


# A collector state a fold can start from: None for a fresh collector
# (``previous`` is None), else count, mean, m2, previous, deltas,
# abs_mean and signed_sum.  Every step is a difference of two integer
# offsets, so a reachable ``signed_sum`` is an integer.
prior_st = st.none() | st.tuples(
    st.integers(1, 1 << 40),
    st.floats(0, 2.0**41),
    st.floats(0, 2.0**82),
    st.integers(0, 1 << 40),
    st.integers(0, 1 << 40),
    st.floats(0, 2.0**41),
    st.integers(-(1 << 41), 1 << 41),
)
run_st = st.tuples(st.integers(0, 1 << 40), st.integers(1, 256))
# A window's batch of 0-4 runs, or a hit on one page, with its inode.
op_st = st.tuples(
    st.integers(1, 3),
    st.lists(run_st, max_size=4) | st.integers(0, 1 << 40),
)


class TestRunFold:
    @given(prior=prior_st, ops=st.lists(op_st, min_size=1, max_size=8))
    @settings(max_examples=500 if STRESS else 100, deadline=None)
    def test_runs_fold_to_the_bits_of_their_pages(self, prior, ops):
        """A batch of runs folds to exactly what the per-page loop gives."""
        folded = FeatureCollector(make_stack("nvme", cache_pages=16))
        reference = FeatureCollector(make_stack("nvme", cache_pages=16))
        reference.detach()
        if prior is not None:
            for collector in (folded, reference):
                (collector.count, collector.mean, collector.m2, previous,
                 collector.deltas, collector.abs_mean, signed_sum) = prior
                collector.previous = float(previous)
                collector.signed_sum = float(signed_sum)
        tracepoints = folded._registry
        for ino, op in ops:
            if isinstance(op, int):
                tracepoints.emit("mark_page_accessed", 0.0, ino=ino, page=op)
                per_page_fold(reference, "mark_page_accessed", ino, [op])
                continue
            runs = [(first, first + length) for first, length in op]
            pages = expand(runs)
            tracepoints.emit_pages(
                "add_to_page_cache", 0.0, ino, PageRuns(runs, len(pages))
            )
            per_page_fold(reference, "add_to_page_cache", ino, pages)
        assert folded.snapshot_all().tobytes() == reference.snapshot_all().tobytes()
        assert folded.events_seen == reference.events_seen


class TestRunShapedWindowPath:
    def test_readrandom_miss_hands_the_collector_one_run_per_window(self, monkeypatch):
        """Engagement guard: at ra 128 each random miss inserts a 16-page
        window, which must reach the collector's batch form as one run
        in one call, with no add event dispatched page by page."""
        batches, per_event = [], []
        fold = FeatureCollector._on_offset_pages

        def spy_fold(collector, name, timestamp, ino, pages):
            batches.append((name, list(pages.runs), pages.count))
            fold(collector, name, timestamp, ino, pages)

        def spy_event(collector, event):
            per_event.append(event.name)

        monkeypatch.setattr(FeatureCollector, "_on_offset_pages", spy_fold)
        monkeypatch.setattr(FeatureCollector, "_on_offset_event", spy_event)
        stack = make_stack("nvme", cache_pages=64, ra_pages=128)
        handle = stack.fs.open("table", create=True)
        stack.fs.write(handle, 0, b"x" * 4096 * 4096)
        stack.drop_caches()
        collector = FeatureCollector(stack)
        rng = np.random.default_rng(0)
        pages = rng.choice(4096 // 16, size=40, replace=False) * 16
        for page in pages.tolist():
            stack.fs.read(handle, page * 4096, 4096)
        assert per_event == []
        assert batches == [
            ("add_to_page_cache", [(page, page + 16)], 16) for page in pages.tolist()
        ]
        assert collector.events_seen == 40 * 16
        assert stack.tracepoints.hit_counts["readahead"] == 40
