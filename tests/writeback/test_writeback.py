"""Tests for the writeback-tuning case study."""

import numpy as np
import pytest

from repro.kml import UCB1Tuner
from repro.minikv import DBOptions, MiniKV
from repro.os_sim import make_stack
from repro.workloads import populate_db, run_workload, workload_by_name
from repro.writeback import (
    DEFAULT_CONFIGS,
    WritebackConfig,
    sweep_writeback_configs,
)


class TestConfig:
    def test_apply_and_read(self):
        stack = make_stack("nvme")
        config = WritebackConfig(0.25, 32)
        config.apply(stack)
        assert stack.cache.dirty_threshold == 0.25
        assert stack.cache.writeback_batch == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            WritebackConfig(0.0, 8)
        with pytest.raises(ValueError):
            WritebackConfig(1.5, 8)
        with pytest.raises(ValueError):
            WritebackConfig(0.5, 0)

    def test_hashable_for_dict_keys(self):
        assert len({WritebackConfig(0.1, 8), WritebackConfig(0.1, 8)}) == 1

    def test_str(self):
        assert "batch=8" in str(WritebackConfig(0.1, 8))


class TestBatchedWriteback:
    def test_contiguous_pages_merge_into_one_request(self):
        stack = make_stack("nvme", cache_pages=1024)
        stack.cache.dirty_threshold = 1.0  # no auto-trigger
        stack.cache.writeback_batch = 64
        for page in range(32):
            stack.cache.write_page(1, page)
        requests_before = stack.device.stats.write_requests
        cleaned = stack.cache.writeback()
        assert cleaned == 32
        assert stack.device.stats.write_requests == requests_before + 1
        assert stack.device.stats.pages_written == 32

    def test_batch_cap_splits_requests(self):
        stack = make_stack("nvme", cache_pages=1024)
        stack.cache.dirty_threshold = 1.0
        stack.cache.writeback_batch = 8
        for page in range(32):
            stack.cache.write_page(1, page)
        stack.cache.writeback()
        assert stack.device.stats.write_requests == 4  # 32 / 8

    def test_non_contiguous_pages_separate_requests(self):
        stack = make_stack("nvme", cache_pages=1024)
        stack.cache.dirty_threshold = 1.0
        stack.cache.writeback_batch = 64
        for page in (0, 10, 20):
            stack.cache.write_page(1, page)
        stack.cache.writeback()
        assert stack.device.stats.write_requests == 3

    def test_different_inodes_separate_requests(self):
        stack = make_stack("nvme", cache_pages=1024)
        stack.cache.dirty_threshold = 1.0
        stack.cache.writeback_batch = 64
        stack.cache.write_page(1, 0)
        stack.cache.write_page(2, 1)
        stack.cache.writeback()
        assert stack.device.stats.write_requests == 2

    def test_writeback_budget_respected(self):
        stack = make_stack("nvme", cache_pages=1024)
        stack.cache.dirty_threshold = 1.0
        for page in range(20):
            stack.cache.write_page(1, page)
        cleaned = stack.cache.writeback(5)
        assert cleaned == 5
        assert stack.cache.dirty_pages == 15


class TestSweep:
    def test_eager_unbatched_is_worst_for_fillrandom(self):
        sweep = sweep_writeback_configs(
            "ssd", "fillrandom", num_keys=8000, ops_per_point=1500,
            cache_pages=256, memtable_bytes=128 * 1024,
        )
        runs = sweep.results["fillrandom"]
        worst = min(runs, key=lambda c: runs[c].throughput)
        assert worst.writeback_batch == 1
        best = sweep.best("fillrandom")
        assert runs[best].throughput > 2.0 * runs[worst].throughput


class TestBanditTuner:
    def test_plays_all_arms_then_converges(self):
        stack = make_stack("ssd", cache_pages=256)
        db = MiniKV(stack, DBOptions(memtable_bytes=128 * 1024))
        populate_db(db, 8000, 400, np.random.default_rng(0))
        stack.drop_caches()
        tuner = UCB1Tuner(
            DEFAULT_CONFIGS, lambda c: c.apply(stack), exploration=0.5
        )
        workload = workload_by_name("fillrandom", 8000, 400)
        run_workload(
            stack, db, workload, n_ops=10**9, rng=np.random.default_rng(1),
            tick_interval=0.002, on_tick=tuner.on_tick, max_sim_seconds=0.12,
        )
        assert {arm for _, arm in tuner.history} == set(DEFAULT_CONFIGS)
        # Converged config must not be the eager-unbatched arm.
        assert tuner.best_arm.writeback_batch > 1
