"""Tests for SSTable building and reading."""

import pytest

from repro.minikv.memtable import TOMBSTONE
from repro.minikv.sstable import SSTableBuilder, SSTableReader
from repro.os_sim import make_stack
from repro.os_sim.device import PAGE_SIZE


@pytest.fixture
def fs():
    return make_stack("nvme", cache_pages=4096).fs


def build_table(fs, n=500, name="sst", value_size=100):
    builder = SSTableBuilder(fs, name)
    expected = {}
    for i in range(n):
        key = b"key-%06d" % i
        value = bytes([i % 256]) * value_size
        builder.add(key, value)
        expected[key] = value
    return builder.finish(), expected


class TestBuilder:
    def test_out_of_order_keys_rejected(self, fs):
        builder = SSTableBuilder(fs, "sst")
        builder.add(b"b", b"1")
        with pytest.raises(ValueError, match="ascending"):
            builder.add(b"a", b"2")
        with pytest.raises(ValueError, match="ascending"):
            builder.add(b"b", b"dup")

    def test_finish_twice_rejected(self, fs):
        builder = SSTableBuilder(fs, "sst")
        builder.add(b"a", b"1")
        builder.finish()
        with pytest.raises(RuntimeError):
            builder.finish()

    def test_add_after_finish_rejected(self, fs):
        builder = SSTableBuilder(fs, "sst")
        builder.add(b"a", b"1")
        builder.finish()
        with pytest.raises(RuntimeError):
            builder.add(b"b", b"2")

    def test_blocks_page_aligned(self, fs):
        table, _ = build_table(fs, n=300)
        offsets = [off for _, off, _ in table._index]
        assert all(off % PAGE_SIZE == 0 for off in offsets)
        lengths = [length for _, _, length in table._index]
        assert all(length <= PAGE_SIZE for length in lengths)

    def test_unaligned_mode(self, fs):
        builder = SSTableBuilder(fs, "sst", align=False)
        for i in range(300):
            builder.add(b"key-%06d" % i, b"x" * 100)
        table = builder.finish()
        # Without padding the data region is dense.
        index = table._index
        assert len(index) >= 2
        assert all(
            off == prev_off + prev_len
            for (_, prev_off, prev_len), (_, off, _) in zip(index, index[1:])
        )

    def test_tiny_block_size_rejected(self, fs):
        with pytest.raises(ValueError):
            SSTableBuilder(fs, "sst", block_size=32)

class TestReader:
    def test_get_every_key(self, fs):
        table, expected = build_table(fs, n=500)
        for key, value in expected.items():
            assert table.get(key) == value

    def test_get_absent_key(self, fs):
        table, _ = build_table(fs, n=100)
        assert table.get(b"zzz-not-there") is None
        assert table.get(b"key-000050x") is None  # between real keys

    def test_bloom_short_circuits_io(self, fs):
        table, _ = build_table(fs, n=500)
        reads_before = fs.cache.stats.accesses
        misses = sum(table.get(b"absent-%06d" % i) is None for i in range(200))
        assert misses == 200
        # Bloom filters (~1% fp) mean almost no block reads happened.
        assert fs.cache.stats.accesses - reads_before < 20

    def test_tombstones_round_trip(self, fs):
        builder = SSTableBuilder(fs, "sst")
        builder.add(b"alive", b"v")
        builder.add(b"dead", TOMBSTONE)
        table = builder.finish()
        assert table.get(b"alive") == b"v"
        assert table.get(b"dead") is TOMBSTONE

    def test_scan_ordered_and_complete(self, fs):
        table, expected = build_table(fs, n=400)
        records = list(table.scan())
        assert len(records) == 400
        keys = [k for k, _ in records]
        assert keys == sorted(keys)

    def test_scan_from_start_key(self, fs):
        table, _ = build_table(fs, n=100)
        records = list(table.scan(b"key-000050"))
        assert records[0][0] == b"key-000050"
        assert len(records) == 50

    def test_scan_reverse(self, fs):
        table, _ = build_table(fs, n=250)
        forward = [k for k, _ in table.scan()]
        backward = [k for k, _ in table.scan_reverse()]
        assert backward == forward[::-1]

    def test_reopen_from_disk(self, fs):
        _, expected = build_table(fs, n=200, name="persist")
        reopened = SSTableReader(fs, "persist")
        key = b"key-%06d" % 123
        assert reopened.get(key) == expected[key]

    def test_bad_magic_rejected(self, fs):
        handle = fs.open("garbage", create=True)
        fs.write(handle, 0, b"\x00" * 256)
        with pytest.raises(ValueError, match="magic"):
            SSTableReader(fs, "garbage")

    def test_too_small_rejected(self, fs):
        handle = fs.open("tiny", create=True)
        fs.write(handle, 0, b"xx")
        with pytest.raises(ValueError, match="too small"):
            SSTableReader(fs, "tiny")

    def test_large_values_spanning_blocks(self, fs):
        builder = SSTableBuilder(fs, "big")
        # Values near the block size force one record per block.
        for i in range(20):
            builder.add(b"k%02d" % i, bytes([i]) * 3000)
        table = builder.finish()
        assert len(table._index) >= 10
        assert table.get(b"k07") == bytes([7]) * 3000
