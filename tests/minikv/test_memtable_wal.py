"""Tests for the memtable and write-ahead log."""

import pytest

from repro.minikv.memtable import MemTable, TOMBSTONE
from repro.minikv.wal import WriteAheadLog
from repro.os_sim import make_stack


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"k", b"v")
        assert table.get(b"k") == b"v"
        assert table.get(b"absent") is None

    def test_overwrite(self):
        table = MemTable()
        table.put(b"k", b"v1")
        table.put(b"k", b"v2")
        assert table.get(b"k") == b"v2"
        assert len(table) == 1

    def test_delete_leaves_tombstone(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.delete(b"k")
        assert table.get(b"k") is TOMBSTONE

    def test_sorted_iteration(self):
        table = MemTable()
        for key in (b"c", b"a", b"b"):
            table.put(key, b"v")
        assert [k for k, _ in table.items_sorted()] == [b"a", b"b", b"c"]

    def test_byte_accounting_tracks_overwrites(self):
        table = MemTable()
        table.put(b"key", b"x" * 100)
        first = table.approx_bytes
        table.put(b"key", b"x" * 10)
        assert table.approx_bytes < first
        table.delete(b"key")
        assert table.approx_bytes == 3 + MemTable.RECORD_OVERHEAD

    def test_clear(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.clear()
        assert len(table) == 0 and table.approx_bytes == 0


class TestWAL:
    @pytest.fixture
    def fs(self):
        return make_stack("nvme", cache_pages=1024).fs

    def test_append_replay_round_trip(self, fs):
        wal = WriteAheadLog(fs, "wal")
        wal.append(b"a", b"1")
        wal.append(b"b", None)  # delete
        wal.append(b"c", b"3")
        assert list(wal.replay()) == [(b"a", b"1"), (b"b", None), (b"c", b"3")]

    def test_replay_empty_missing_file(self, fs):
        assert list(WriteAheadLog(fs, "nope").replay()) == []

    def test_reset_truncates(self, fs):
        wal = WriteAheadLog(fs, "wal")
        wal.append(b"a", b"1")
        wal.reset()
        assert list(wal.replay()) == []
        wal.append(b"b", b"2")  # usable after reset
        assert list(wal.replay()) == [(b"b", b"2")]

    def test_torn_tail_stops_replay(self, fs):
        wal = WriteAheadLog(fs, "wal")
        wal.append(b"a", b"1")
        wal.append(b"b", b"2")
        # Corrupt the last byte (torn write).
        inode = fs.open("wal").inode
        inode.data[-1] ^= 0xFF
        assert list(wal.replay()) == [(b"a", b"1")]

    def test_mid_log_corruption_stops_at_bad_record(self, fs):
        wal = WriteAheadLog(fs, "wal")
        wal.append(b"aaaa", b"1111")
        wal.append(b"bbbb", b"2222")
        inode = fs.open("wal").inode
        inode.data[12] ^= 0xFF  # inside the first record's key
        assert list(wal.replay()) == []

    def test_oversized_key_rejected(self, fs):
        wal = WriteAheadLog(fs, "wal")
        with pytest.raises(ValueError):
            wal.append(b"k" * 70_000, b"v")

    def test_empty_value_is_not_tombstone(self, fs):
        wal = WriteAheadLog(fs, "wal")
        wal.append(b"k", b"")
        assert list(wal.replay()) == [(b"k", b"")]
