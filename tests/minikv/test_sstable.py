"""Tests for SSTable building and reading."""

import hashlib
import struct
from bisect import bisect_right

import pytest

from repro.minikv.memtable import TOMBSTONE
from repro.minikv.sstable import SSTableBuilder, SSTableReader, _decode_records
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

    def test_tiny_block_size_rejected(self, fs):
        with pytest.raises(ValueError):
            SSTableBuilder(fs, "sst", block_size=32)

    def test_file_bytes_pinned(self, fs):
        """Data blocks, index, bloom block and footer of one small table,
        byte for byte: keys of 5-8 bytes, tombstones, empty values."""
        builder = SSTableBuilder(fs, "pinned")
        for key, i in sorted((b"key-%d" % (i * 37), i) for i in range(150)):
            builder.add(key, TOMBSTONE if i % 17 == 0 else bytes([65 + i % 26]) * (i % 90))
        table = builder.finish()
        assert len(table._index) == 2
        raw = fs.read(fs.open("pinned"), 0, fs.stat_size("pinned"))
        assert len(raw) == 8470
        assert hashlib.sha256(raw).hexdigest() == (
            "dc2cd7e3242ea12e6fb08b5ee829eb87b722020aa65a77cd497a6f9288f7566a"
        )

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


def decoded_get(table, key):
    """The point lookup as a walk of ``_decode_records`` over the key's
    block, stopping at the first larger key (no bloom check)."""
    idx = bisect_right(table._first_keys, key) - 1
    if idx < 0:
        return None
    for record_key, value in _decode_records(table._read_block(idx)):
        if record_key == key:
            return value
        if record_key > key:
            break
    return None


class TestFirstKeySkip:
    """A key below a table's first key is answered before the bloom
    filter is probed, with no block read."""

    @pytest.fixture
    def table(self, fs):
        builder = SSTableBuilder(fs, "ranged")
        for i in range(100, 600):
            builder.add(b"key-%06d" % i, b"v%d" % i)
        table = builder.finish()
        assert len(table._index) >= 3
        return table

    @staticmethod
    def refuse(*args):
        raise AssertionError("not reached for a key below the first key")

    def test_below_first_key_probes_nothing(self, fs, table, monkeypatch):
        monkeypatch.setattr(table.bloom, "may_contain", self.refuse)
        monkeypatch.setattr(fs, "read", self.refuse)
        for key in (b"\x00", b"a", b"key-", b"key-000000", b"key-000099",
                    b"key-0000999", b"key-000099\xff"):
            assert table.get(key) is None

    def test_first_key_and_later_blocks_still_found(self, table):
        first_keys = table._first_keys
        for key in [first_keys[0], first_keys[0] + b"\x00", first_keys[-1],
                    b"key-000101", b"key-000599"]:
            expected = b"v%d" % int(key[4:10]) if len(key) == 10 else None
            assert table.get(key) == expected

    def test_bloom_still_guards_keys_at_or_above_first_key(self, fs, table, monkeypatch):
        monkeypatch.setattr(table.bloom, "may_contain", lambda key: False)
        monkeypatch.setattr(fs, "read", self.refuse)
        for key in (table._first_keys[0], b"key-000350", b"zzz"):
            assert table.get(key) is None

    def test_empty_table(self, fs, monkeypatch):
        table = SSTableBuilder(fs, "empty").finish()
        monkeypatch.setattr(table.bloom, "may_contain", self.refuse)
        assert table.get(b"anything") is None


class TestInPlaceScan:
    """``SSTableReader.get`` scans its block in place; it must answer as
    the record decoder does, with the bloom filter out of the way so
    absent keys reach the scan."""

    @pytest.fixture
    def table(self, fs):
        # Keys of 5-8 bytes, so a shorter key can be a prefix of a longer
        # one; every 17th record a tombstone; values of 0-89 bytes.
        builder = SSTableBuilder(fs, "mixed")
        for key, i in sorted((b"key-%d" % (i * 37), i) for i in range(400)):
            builder.add(key, TOMBSTONE if i % 17 == 0 else bytes([65 + i % 26]) * (i % 90))
        table = builder.finish()
        table.bloom.may_contain = lambda key: True
        return table

    def test_every_key_tombstones_included(self, table):
        keys = [key for key, _ in table.scan()]
        assert len(keys) == 400
        tombstones = 0
        for key in keys:
            value = table.get(key)
            assert value == decoded_get(table, key)
            assert value is not None
            tombstones += value is TOMBSTONE
        assert tombstones == 24

    def test_absent_keys_before_between_and_after_blocks(self, table):
        keys = [key for key, _ in table.scan()]
        assert len(table._index) >= 3
        absent = [b"", b"a", b"key-", b"key-0", b"zzz", keys[-1] + b"\x00"]
        for key in keys:
            absent += [key[:-1], key + b"0", key[:-1] + b"\xff"]
        # Just past the last key of each block, before the next block.
        for first_key in table._first_keys[1:]:
            index = keys.index(first_key)
            absent.append(keys[index - 1] + b"\x00")
        present = set(keys)
        absent = [key for key in absent if key not in present]
        assert len(absent) > 800
        for key in absent:
            assert table.get(key) is None
            assert decoded_get(table, key) is None

    def test_truncated_record_still_raises(self, fs, table):
        block_off, block_len = table._index[1][1:]
        block = fs.read(table._file, block_off, block_len)
        records = list(_decode_records(block))
        # Make the third record of block 1 claim more value bytes than
        # the block holds.
        offset = 0
        for key, value in records[:2]:
            offset += 7 + len(key) + (0 if value is TOMBSTONE else len(value))
        handle = fs.open("mixed")
        fs.write(handle, block_off + offset + 2, struct.pack("<I", block_len))
        # Keys before the damaged record are still found, and an absent
        # key before it stops at the first larger key; one at or past it
        # raises, as the decoder does.
        assert table.get(records[0][0]) == records[0][1]
        assert table.get(records[1][0]) == decoded_get(table, records[1][0])
        assert table.get(records[0][0] + b"\x00") is None
        for key in (records[2][0], records[-1][0]):
            with pytest.raises(ValueError, match="truncated"):
                table.get(key)
            with pytest.raises(ValueError, match="truncated"):
                decoded_get(table, key)
