"""Tests for the MiniKV LSM store end to end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minikv import DBOptions, MiniKV
from repro.minikv.compaction import merge_records
from repro.minikv.memtable import TOMBSTONE
from repro.os_sim import make_stack


def small_db(memtable_bytes=4096, **kwargs):
    stack = make_stack("nvme", cache_pages=4096)
    options = DBOptions(memtable_bytes=memtable_bytes, **kwargs)
    return MiniKV(stack, options), stack


class TestBasicOps:
    def test_put_get(self):
        db, _ = small_db()
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_get_absent(self):
        db, _ = small_db()
        assert db.get(b"nope") is None

    def test_overwrite_latest_wins(self):
        db, _ = small_db()
        db.put(b"k", b"old")
        db.put(b"k", b"new")
        assert db.get(b"k") == b"new"

    def test_delete(self):
        db, _ = small_db()
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_delete_shadows_flushed_value(self):
        db, _ = small_db()
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        db.flush()
        assert db.get(b"k") is None

    def test_empty_key_rejected(self):
        db, _ = small_db()
        with pytest.raises(ValueError):
            db.put(b"", b"v")
        with pytest.raises(ValueError):
            db.get("string")  # type: ignore[arg-type]

    def test_stats_counters(self):
        db, _ = small_db()
        db.put(b"a", b"1")
        db.get(b"a")
        db.get(b"missing")
        assert db.stats.puts == 1
        assert db.stats.gets == 2
        assert db.stats.get_hits == 1


class TestFlushCompaction:
    def test_flush_moves_memtable_to_l0(self):
        db, _ = small_db()
        db.put(b"k", b"v")
        db.flush()
        assert len(db._memtable) == 0
        assert db.num_l0_tables == 1
        assert db.get(b"k") == b"v"

    def test_flush_empty_is_noop(self):
        db, _ = small_db()
        db.flush()
        assert db.num_l0_tables == 0

    def test_automatic_flush_on_threshold(self):
        db, _ = small_db(memtable_bytes=512)
        for i in range(50):
            db.put(b"key-%04d" % i, b"x" * 32)
        assert db.stats.flushes > 0

    def test_compaction_merges_l0_into_l1(self):
        db, _ = small_db(memtable_bytes=256, l0_compaction_trigger=2)
        for i in range(200):
            db.put(b"key-%04d" % i, b"x" * 32)
        db.close()
        assert db.stats.compactions > 0
        assert db.num_l0_tables <= 2
        # Every key must survive the merges.
        for i in range(200):
            assert db.get(b"key-%04d" % i) == b"x" * 32

    def test_compaction_drops_tombstones(self):
        db, _ = small_db(memtable_bytes=128, l0_compaction_trigger=1)
        db.put(b"gone", b"v")
        db.flush()
        db.delete(b"gone")
        db.flush()
        for i in range(100):  # force compaction
            db.put(b"pad-%04d" % i, b"x" * 16)
        db.close()
        assert db.get(b"gone") is None
        # The tombstone itself must not survive in L1.
        for table in db._l1:
            assert table.get(b"gone") in (None,)

    def test_newest_version_wins_across_levels(self):
        db, _ = small_db()
        db.put(b"k", b"v1")
        db.flush()
        db.put(b"k", b"v2")
        db.flush()
        assert db.get(b"k") == b"v2"


class TestScans:
    def test_scan_sorted_all_live_keys(self):
        db, _ = small_db(memtable_bytes=512)
        keys = [b"key-%04d" % i for i in range(120)]
        for key in keys:
            db.put(key, b"v:" + key)
        db.delete(keys[7])
        records = list(db.scan())
        scanned_keys = [k for k, _ in records]
        assert scanned_keys == sorted(set(keys) - {keys[7]})
        assert all(v == b"v:" + k for k, v in records)

    def test_scan_with_start_key(self):
        db, _ = small_db()
        for i in range(20):
            db.put(b"k%02d" % i, b"v")
        records = list(db.scan(b"k10"))
        assert records[0][0] == b"k10"
        assert len(records) == 10

    def test_scan_reverse_mirror(self):
        db, _ = small_db(memtable_bytes=512)
        for i in range(77):
            db.put(b"key-%04d" % i, b"%d" % i)
        forward = [k for k, _ in db.scan()]
        backward = [k for k, _ in db.scan_reverse()]
        assert backward == forward[::-1]

    def test_scan_sees_memtable_and_sstables(self):
        db, _ = small_db()
        db.put(b"flushed", b"1")
        db.flush()
        db.put(b"fresh", b"2")
        keys = [k for k, _ in db.scan()]
        assert keys == [b"flushed", b"fresh"]

    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=12),
            st.binary(min_size=0, max_size=40),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_scan_equals_reference_map(self, mapping):
        db, _ = small_db(memtable_bytes=512)
        for key, value in mapping.items():
            db.put(key, value)
        assert dict(db.scan()) == mapping

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_property_get_after_put_across_flushes(self, keys):
        db, _ = small_db(memtable_bytes=256)
        reference = {}
        for i, key in enumerate(keys):
            value = b"v%d" % i
            db.put(key, value)
            reference[key] = value
            if i % 7 == 0:
                db.flush()
        for key, value in reference.items():
            assert db.get(key) == value


class TestRecovery:
    def test_reopen_sees_flushed_and_unflushed_data(self):
        stack = make_stack("nvme", cache_pages=4096)
        db = MiniKV(stack, DBOptions(memtable_bytes=1 << 20))
        db.put(b"flushed", b"1")
        db.flush()
        db.put(b"in-wal-only", b"2")
        # Crash: no close(). Reopen over the same filesystem.
        reopened = MiniKV(stack, DBOptions(memtable_bytes=1 << 20))
        assert reopened.get(b"flushed") == b"1"
        assert reopened.get(b"in-wal-only") == b"2"

    def test_reopen_sees_deletes(self):
        stack = make_stack("nvme", cache_pages=4096)
        db = MiniKV(stack, DBOptions())
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        reopened = MiniKV(stack, DBOptions())
        assert reopened.get(b"k") is None

    def test_wal_disabled_loses_unflushed(self):
        stack = make_stack("nvme", cache_pages=4096)
        db = MiniKV(stack, DBOptions(wal_enabled=False))
        db.put(b"k", b"v")
        reopened = MiniKV(stack, DBOptions(wal_enabled=False))
        assert reopened.get(b"k") is None

    def test_table_seq_continues_after_recovery(self):
        stack = make_stack("nvme", cache_pages=4096)
        db = MiniKV(stack, DBOptions())
        db.put(b"a", b"1")
        db.flush()
        reopened = MiniKV(stack, DBOptions())
        reopened.put(b"b", b"2")
        reopened.flush()  # must not collide with the first table name
        assert reopened.get(b"a") == b"1"
        assert reopened.get(b"b") == b"2"


class TestMergeRecords:
    def test_newest_stream_wins(self):
        new = iter([(b"k", b"new")])
        old = iter([(b"k", b"old"), (b"z", b"zv")])
        merged = dict(merge_records([new, old], drop_tombstones=False))
        assert merged == {b"k": b"new", b"z": b"zv"}

    def test_tombstone_dropped_only_when_asked(self):
        streams = lambda: [iter([(b"k", TOMBSTONE)])]
        assert list(merge_records(streams(), drop_tombstones=True)) == []
        kept = list(merge_records(streams(), drop_tombstones=False))
        assert kept[0][1] is TOMBSTONE

    def test_tombstone_shadows_older_value_then_drops(self):
        new = iter([(b"k", TOMBSTONE)])
        old = iter([(b"k", b"v")])
        assert list(merge_records([new, old], drop_tombstones=True)) == []


class TestOpenFiles:
    def test_per_file_ra_override_applies(self):
        db, stack = small_db()
        db.put(b"a", b"1")
        db.flush()
        handle = db._l0[0]._file
        handle.set_ra_pages(16)
        stack.block.ioctl_blkraset(256)
        assert handle.ra_pages == 16


#: One L0 table's worth of ops: (delete?, key index) pairs.
TABLE_OPS = st.lists(st.tuples(st.booleans(), st.integers(10, 89)), min_size=1, max_size=25)


class TestOverlappingTables:
    """Gets over 2-5 overlapping L0 tables, some of whose first keys
    exclude the key, answer as a reference dict does."""

    @given(st.lists(TABLE_OPS, min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_get_equals_reference(self, tables):
        db, _ = small_db(memtable_bytes=1 << 20, l0_compaction_trigger=8)
        reference = {}
        for ops in tables:
            for delete, index in ops:
                key = b"k%03d" % index
                if delete:
                    db.delete(key)
                    reference.pop(key, None)
                else:
                    value = b"v%d-%d" % (index, db.stats.puts)
                    db.put(key, value)
                    reference[key] = value
            db.flush()
        assert db.num_l0_tables == len(tables)
        assert db.num_l1_tables == 0
        # Keys below every table, present and deleted ones, gaps, and
        # keys above every table.
        keys = [b"\x00", b"a", b"k", b"k000", b"k009", b"k01"]
        keys += [b"k%03d" % index for index in range(10, 90)]
        keys += [b"k%03d\x00" % index for index in range(10, 90, 7)]
        keys += [b"k090", b"k999", b"l", b"z\xff"]
        for key in keys:
            assert db.get(key) == reference.get(key)
