"""Tests for the db_bench-equivalent workloads and the runner."""

import numpy as np
import pytest

from repro.minikv import DBOptions, MiniKV
from repro.os_sim import make_stack
from repro.workloads import (
    CPU_OP_S,
    MixGraph,
    ReadRandom,
    ReadRandomWriteRandom,
    ReadReverse,
    ReadSeq,
    UpdateRandom,
    generators,
    load_stack,
    make_key,
    populate_db,
    run_closed_loop,
    run_workload,
    workload_by_name,
)


NUM_KEYS = 500


class SlowReadRandom(ReadRandom):
    """readrandom whose every op also takes 1 ms of simulated time, so a
    few hundred ops span several tick windows."""

    def __init__(self, clock):
        super().__init__(NUM_KEYS)
        self.clock = clock

    def step(self):
        super().step()
        self.clock.advance(1e-3)


@pytest.fixture
def loaded():
    stack = make_stack("nvme", cache_pages=2048)
    db = MiniKV(stack, DBOptions(memtable_bytes=16 * 1024))
    populate_db(db, NUM_KEYS, 50, np.random.default_rng(0))
    return stack, db


#: A value size at which ``populate_db`` draws 8 keys per rng call.
BLOCK_VALUE_SIZE = generators._POPULATE_BLOCK_BYTES // 8
BLOCK = generators._POPULATE_BLOCK_BYTES // BLOCK_VALUE_SIZE


class RecordingDB:
    """Forwards puts to ``db`` (if any) and keeps each value put."""

    def __init__(self, db=None):
        self.db = db
        self.values = []

    def put(self, key, value):
        assert key == make_key(len(self.values))
        self.values.append(value)
        if self.db is not None:
            self.db.put(key, value)

    def close(self):
        if self.db is not None:
            self.db.close()


def populated_values(num_keys, value_size, seed):
    recorder = RecordingDB()
    populate_db(recorder, num_keys, value_size, np.random.default_rng(seed))
    return recorder.values


class TestPopulate:
    def test_all_keys_present(self, loaded):
        _, db = loaded
        assert db.get(make_key(0)) is not None
        assert db.get(make_key(NUM_KEYS - 1)) is not None
        assert len(list(db.scan())) == NUM_KEYS

    def test_same_seed_same_values(self):
        assert populated_values(300, 50, 3) == populated_values(300, 50, 3)
        assert populated_values(300, 50, 3) != populated_values(300, 50, 4)

    def test_values_are_value_size_letters(self):
        for value_size in (1, 7, 400):
            values = populated_values(200, value_size, 0)
            assert len(values) == 200
            for value in values:
                assert type(value) is bytes and len(value) == value_size
                assert set(value) <= set(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        letters = b"".join(populated_values(200, 400, 0))
        assert len(set(letters)) == 26  # every letter drawn
        with pytest.raises(ValueError, match="value_size"):
            populated_values(1, 0, 0)

    def test_values_prefix_stable_across_blocks(self):
        longest = populated_values(2 * BLOCK + 3, BLOCK_VALUE_SIZE, 5)
        for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK):
            assert populated_values(n, BLOCK_VALUE_SIZE, 5) == longest[:n]
        # Rows of one draw differ from each other.
        assert len(set(longest)) == len(longest)

    @pytest.mark.parametrize("num_keys", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_edges_load_and_read_back(self, num_keys):
        stack = make_stack("nvme", cache_pages=2048)
        db = MiniKV(stack, DBOptions(memtable_bytes=1 << 20))
        recorder = RecordingDB(db)
        populate_db(recorder, num_keys, BLOCK_VALUE_SIZE, np.random.default_rng(9))
        assert len(recorder.values) == num_keys
        for index, value in enumerate(recorder.values):
            assert db.get(make_key(index)) == value
        assert db.get(make_key(num_keys)) is None


class TestWorkloadSemantics:
    def test_readseq_iterates_in_order(self, loaded):
        stack, db = loaded
        workload = ReadSeq(NUM_KEYS)
        workload.bind(db, np.random.default_rng(1))
        gets_before = db.stats.seeks
        for _ in range(10):
            workload.step()
        assert db.stats.seeks == gets_before + 1  # one iterator opened

    def test_readseq_wraps_at_end(self, loaded):
        stack, db = loaded
        workload = ReadSeq(NUM_KEYS)
        workload.bind(db, np.random.default_rng(1))
        for _ in range(NUM_KEYS + 5):
            workload.step()  # must not raise at wrap

    def test_readrandom_issues_gets(self, loaded):
        stack, db = loaded
        workload = ReadRandom(NUM_KEYS)
        workload.bind(db, np.random.default_rng(2))
        for _ in range(50):
            workload.step()
        assert db.stats.gets == 50
        assert db.stats.get_hits == 50  # keys all exist

    def test_readreverse_descending(self, loaded):
        stack, db = loaded
        workload = ReadReverse(NUM_KEYS)
        workload.bind(db, np.random.default_rng(3))
        for _ in range(5):
            workload.step()
        # The underlying reverse scan starts from the largest key.

    def test_rrwr_mixes_reads_and_writes(self, loaded):
        stack, db = loaded
        workload = ReadRandomWriteRandom(NUM_KEYS)
        workload.bind(db, np.random.default_rng(4))
        for _ in range(200):
            workload.step()
        assert db.stats.gets > 50
        assert db.stats.puts > NUM_KEYS  # populate + workload writes

    def test_updaterandom_preserves_value_size(self, loaded):
        stack, db = loaded
        workload = UpdateRandom(NUM_KEYS)
        workload.bind(db, np.random.default_rng(6))
        for _ in range(50):
            workload.step()
        value = db.get(make_key(3))
        assert value is not None and len(value) == 50

    def test_mixgraph_runs_all_op_kinds(self, loaded):
        stack, db = loaded
        workload = MixGraph(NUM_KEYS)
        workload.bind(db, np.random.default_rng(7))
        seeks_before = db.stats.seeks
        for _ in range(300):
            workload.step()
        assert db.stats.gets > 0
        assert db.stats.seeks > seeks_before  # range scans happened

    def test_mixgraph_hot_keys_skewed(self, loaded):
        stack, db = loaded
        workload = MixGraph(NUM_KEYS)
        workload.bind(db, np.random.default_rng(8))
        indices = [workload._sample_key_index() for _ in range(5000)]
        counts = np.bincount(indices, minlength=NUM_KEYS)
        # Top-10 hottest keys carry a disproportionate share.
        assert np.sort(counts)[-10:].sum() > 0.2 * len(indices)

    def test_workload_by_name(self):
        for name in ("readseq", "readrandom", "readreverse",
                     "readrandomwriterandom", "updaterandom", "mixgraph"):
            assert workload_by_name(name, 100).name == name
        with pytest.raises(ValueError):
            workload_by_name("bogus", 100)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            ReadRandom(0)
        with pytest.raises(ValueError):
            ReadRandom(10, value_size=0)


class TestRunner:
    def test_throughput_positive(self, loaded):
        stack, db = loaded
        result = run_workload(
            stack, db, ReadRandom(NUM_KEYS), 100, np.random.default_rng(9)
        )
        assert result.ops == 100
        assert result.throughput > 0
        assert result.elapsed > 0

    def test_cpu_cost_charged(self, loaded):
        stack, db = loaded
        before = stack.now
        run_workload(
            stack, db, ReadRandom(NUM_KEYS), 50, np.random.default_rng(10),
        )
        # Each op costs at least CPU_OP_S, up to the rounding of the
        # clock's 50 float additions.
        assert stack.now - before >= 50 * CPU_OP_S - 1e-12

    def test_ticks_fire_per_interval(self, loaded):
        stack, db = loaded
        ticks = []
        run_workload(
            stack,
            db,
            SlowReadRandom(stack.clock),  # 500 ops -> >= 0.5 simulated s
            500,
            np.random.default_rng(11),
            tick_interval=0.1,
            on_tick=lambda t, rate: ticks.append((t, rate)),
        )
        assert len(ticks) >= 4
        times = [t for t, _ in ticks]
        np.testing.assert_allclose(np.diff(times), 0.1, atol=1e-9)

    def test_timeline_matches_ticks(self, loaded):
        stack, db = loaded
        result = run_workload(
            stack, db, SlowReadRandom(stack.clock), 300,
            np.random.default_rng(12), tick_interval=0.1,
        )
        assert len(result.timeline) >= 2
        # Rates in the timeline are ops per second within each window.
        for _, rate in result.timeline:
            assert 0 <= rate <= 1e5

    def test_max_sim_seconds_stops_early(self, loaded):
        stack, db = loaded
        result = run_workload(
            stack, db, SlowReadRandom(stack.clock), 10**6,
            np.random.default_rng(13), max_sim_seconds=0.05,
        )
        assert result.ops < 10**6
        assert result.elapsed == pytest.approx(0.05, rel=0.2)

    def test_validation(self, loaded):
        stack, db = loaded
        with pytest.raises(ValueError):
            run_workload(stack, db, ReadRandom(10), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_workload(
                stack, db, ReadRandom(10), 10, np.random.default_rng(0),
                tick_interval=0,
            )
        for bound in (0, -1):
            with pytest.raises(ValueError, match="max_sim_seconds"):
                run_workload(
                    stack, db, ReadRandom(10), 10, np.random.default_rng(0),
                    max_sim_seconds=bound,
                )


class Recorder:
    """A policy that logs what it sees and when it is detached."""

    def __init__(self, stack):
        self.stack = stack
        self.cached_at_start = len(stack.cache)
        self.ra_at_start = stack.block.ra_pages
        self.ticks = []
        self.detached = False

    def on_tick(self, sim_time, rate):
        self.ticks.append(sim_time)

    def detach(self):
        self.detached = True


def load_small():
    return load_stack(
        "nvme", NUM_KEYS, 50, 64, memtable_bytes=16 * 1024, seed=0, ra_pages=32
    )


class TestClosedLoop:
    @pytest.fixture
    def small(self):
        return load_small()

    def test_cold_start_protocol(self, small):
        calls = []
        result, policy = run_closed_loop(
            small, "readrandom", policy=Recorder, ra_pages=8,
            prepare=lambda stack: calls.append(stack.block.ra_pages),
            sim_seconds=0.05, window=0.01,
        )
        assert calls == [32]  # prepare runs before the readahead is set
        assert policy.cached_at_start == 0
        assert policy.ra_at_start == 8
        assert len(policy.ticks) == len(result.timeline) >= 4
        assert policy.detached

    def test_default_rng_is_populate_seed_plus_one(self, small):
        first, none = run_closed_loop(small, "readrandom", n_ops=300)
        again, _ = run_closed_loop(load_small(), "readrandom", n_ops=300,
                                   rng_seed=1)
        other, _ = run_closed_loop(load_small(), "readrandom", n_ops=300,
                                   rng_seed=2)
        assert none is None
        assert first.ops == again.ops == 300
        assert first.throughput == again.throughput != other.throughput

    def test_rerun_sees_earlier_writes(self, small):
        puts = small.db.stats.puts
        run_closed_loop(small, "updaterandom", n_ops=50)
        run_closed_loop(small, "updaterandom", n_ops=50)
        assert small.db.stats.puts == puts + 100

    def test_unbounded_run_is_rejected(self, small):
        with pytest.raises(ValueError, match="n_ops or sim_seconds"):
            run_closed_loop(small, "readrandom")


class TestFillRandom:
    def test_puts_random_keys(self, loaded):
        stack, db = loaded
        from repro.workloads import FillRandom

        workload = FillRandom(NUM_KEYS, value_size=64)
        workload.bind(db, np.random.default_rng(20))
        puts_before = db.stats.puts
        gets_before = db.stats.gets
        for _ in range(50):
            workload.step()
        assert db.stats.puts == puts_before + 50
        assert db.stats.gets == gets_before  # pure writer

    def test_factory_name(self):
        from repro.workloads import workload_by_name

        assert workload_by_name("fillrandom", 100).name == "fillrandom"
