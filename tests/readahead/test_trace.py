"""Tests for trace recording and offline feature extraction."""

import numpy as np
import pytest

from repro.minikv import DBOptions, MiniKV
from repro.os_sim import make_stack
from repro.readahead import (
    FeatureCollector,
    TraceWriter,
    dataset_from_traces,
    read_trace,
)
from repro.workloads import populate_db, run_workload, workload_by_name


def run_traced(path, workload_name="readrandom", num_keys=4000, sim_s=0.35):
    stack = make_stack("nvme", cache_pages=256)
    db = MiniKV(stack, DBOptions(memtable_bytes=1 << 20))
    populate_db(db, num_keys, 200, np.random.default_rng(0))
    stack.drop_caches()
    with TraceWriter(stack, path) as writer:
        stack.set_readahead(64)
        workload = workload_by_name(workload_name, num_keys, 200)
        run_workload(
            stack, db, workload, n_ops=10**9, rng=np.random.default_rng(1),
            max_sim_seconds=sim_s,
        )
    return stack, writer


@pytest.fixture(scope="module")
def readrandom_trace(tmp_path_factory):
    """``(path, records written)`` of one default ``run_traced`` run,
    recorded once for the tests that only read it."""
    path = str(tmp_path_factory.mktemp("trace") / "run.ktrace")
    _, writer = run_traced(path)
    return path, writer.records_written


class TestRoundTrip:
    def test_records_written_and_read_back(self, readrandom_trace):
        path, records_written = readrandom_trace
        assert records_written > 100
        events = list(read_trace(path))
        assert len(events) == records_written
        names = {e.name for e in events}
        assert "add_to_page_cache" in names
        assert "block_ra_set" in names

    def test_timestamps_monotone(self, readrandom_trace):
        path, _ = readrandom_trace
        timestamps = [e.timestamp for e in read_trace(path)]
        assert timestamps == sorted(timestamps)

    def test_field_fidelity(self, tmp_path):
        path = str(tmp_path / "manual.ktrace")
        stack = make_stack("nvme")
        with TraceWriter(stack, path):
            stack.tracepoints.emit(
                "add_to_page_cache", 1.5, ino=7, page=123456789
            )
            stack.tracepoints.emit(
                "readahead", 2.0, ino=3, start=10, count=64, is_async=True
            )
            stack.set_readahead(512)
        events = list(read_trace(path))
        assert events[0].fields == {"ino": 7, "page": 123456789}
        assert events[1].fields == {
            "ino": 3, "start": 10, "count": 64, "is_async": True,
        }
        assert events[2].name == "block_ra_set"
        assert events[2].fields == {"value": 512}

    def test_detach_stops_recording(self, tmp_path):
        path = str(tmp_path / "t.ktrace")
        stack = make_stack("nvme")
        writer = TraceWriter(stack, path)
        writer.detach()
        stack.tracepoints.emit("add_to_page_cache", 0.0, ino=1, page=1)
        writer.close()
        assert list(read_trace(path)) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad")
        open(path, "wb").write(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            list(read_trace(path))

    def test_truncated_record_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.ktrace")
        stack = make_stack("nvme")
        with TraceWriter(stack, path):
            stack.tracepoints.emit("add_to_page_cache", 0.0, ino=1, page=1)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            list(read_trace(path))

    @pytest.mark.parametrize(
        "data",
        [b"KTRC", b"KTRC\x01", b"KTRC\x01\x02\x05ab"],
        ids=["no-version", "no-name-count", "short-name"],
    )
    def test_truncated_header_rejected(self, tmp_path, data):
        path = str(tmp_path / "header.ktrace")
        open(path, "wb").write(data)
        with pytest.raises(ValueError, match="truncated header"):
            list(read_trace(path))


class TestOfflineDataset:
    def test_dataset_built_from_traces(self, tmp_path, readrandom_trace):
        readseq = str(tmp_path / "readseq.ktrace")
        run_traced(readseq, workload_name="readseq", sim_s=0.35)
        paths = [(readrandom_trace[0], 0), (readseq, 1)]
        dataset = dataset_from_traces(paths, window_s=0.1)
        assert len(dataset) >= 2
        assert set(np.unique(dataset.y)) <= {0, 1}
        assert dataset.x.shape[1] == 5
        assert np.all(np.isfinite(dataset.x))

    def test_offline_features_match_online(self, tmp_path):
        """The same run observed online and through a trace must produce
        (near-)identical feature windows."""
        path = str(tmp_path / "both.ktrace")
        stack = make_stack("nvme", cache_pages=256)
        db = MiniKV(stack, DBOptions(memtable_bytes=1 << 20))
        populate_db(db, 4000, 200, np.random.default_rng(0))
        stack.drop_caches()
        online = FeatureCollector(stack)
        online_windows = []
        with TraceWriter(stack, path):
            workload = workload_by_name("readrandom", 4000, 200)
            run_workload(
                stack, db, workload, n_ops=10**9,
                rng=np.random.default_rng(1),
                tick_interval=0.1,
                on_tick=lambda t, r: online_windows.append(online.snapshot()),
                max_sim_seconds=0.45,
            )
        online.detach()
        offline = dataset_from_traces(
            [(path, 0)], window_s=0.1, skip_first_windows=0
        )
        count = min(len(online_windows), len(offline))
        assert count >= 3
        for online_row, offline_row in zip(online_windows[:count], offline.x[:count]):
            # Cumulative statistics must agree closely; the per-window
            # count may differ by boundary alignment.
            np.testing.assert_allclose(online_row[1:4], offline_row[1:4],
                                       rtol=0.15)

    def test_ra_feature_follows_trace(self, tmp_path):
        path = str(tmp_path / "ra.ktrace")
        stack = make_stack("nvme")
        with TraceWriter(stack, path):
            stack.set_readahead(256)
            for i in range(50):
                stack.tracepoints.emit(
                    "mark_page_accessed", 0.01 * i, ino=1, page=i
                )
        dataset = dataset_from_traces(
            [(path, 0)], window_s=0.2, skip_first_windows=0
        )
        assert np.all(dataset.x[:, 4] == 256)

    def test_empty_trace_rejected(self, tmp_path):
        path = str(tmp_path / "empty.ktrace")
        stack = make_stack("nvme")
        TraceWriter(stack, path).close()
        with pytest.raises(RuntimeError, match="no complete windows"):
            dataset_from_traces([(path, 0)])

    def test_invalid_window(self, tmp_path):
        with pytest.raises(ValueError):
            dataset_from_traces([], window_s=0.0)
