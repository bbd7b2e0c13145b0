"""Sorted string tables: immutable on-"disk" runs of key/value records.

File layout (all little-endian), modeled on RocksDB's BlockBasedTable:

    [data block 0][data block 1]...[index block][bloom block][footer]

Data block: concatenated records, each
    u16 key_len | u32 value_len | u8 flags | key | value
Blocks are cut at ~``block_size`` bytes (default one 4 KiB page), so a
point lookup touches one page and a scan touches pages sequentially --
this is what couples the KV store to OS readahead behaviour.

Index block: u32 count, then per data block
    u16 first_key_len | first_key | u64 offset | u32 length
Bloom block: serialized BloomFilter over all keys, built in one
``BloomFilter.from_keys`` pass when the table is finished.
Footer (fixed size, at EOF):
    u64 index_off | u64 index_len | u64 bloom_off | u64 bloom_len | 4s magic
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

from ..os_sim.vfs import SimFS
from .bloom import BloomFilter
from .memtable import TOMBSTONE

__all__ = ["SSTableBuilder", "SSTableReader", "Record", "FOOTER_MAGIC"]

FOOTER_MAGIC = b"MKV1"
_FOOTER = struct.Struct("<QQQQ4s")
_RECORD_HEADER = struct.Struct("<HIB")
_TOMBSTONE_FLAG = 0x01

Record = Tuple[bytes, object]  # (key, value bytes or TOMBSTONE)


def _decode_records(raw: bytes) -> Iterator[Record]:
    offset = 0
    while offset + _RECORD_HEADER.size <= len(raw):
        klen, vlen, flags = _RECORD_HEADER.unpack_from(raw, offset)
        start = offset + _RECORD_HEADER.size
        end = start + klen + vlen
        if end > len(raw):
            raise ValueError("truncated record in data block")
        key = raw[start : start + klen]
        if flags & _TOMBSTONE_FLAG:
            yield key, TOMBSTONE
        else:
            yield key, raw[start + klen : end]
        offset = end


class SSTableBuilder:
    """Streams sorted records into a new SSTable file.

    Data blocks are padded to ``block_size`` boundaries (RocksDB's
    ``block_align`` option) so a point lookup touches exactly one page
    -- the configuration under which OS readahead effects are cleanest.
    """

    def __init__(self, fs: SimFS, name: str, block_size: int = 4096):
        if block_size < 64:
            raise ValueError("block_size too small")
        self.fs = fs
        self.name = name
        self.block_size = block_size
        self._file = fs.open(name, create=True)
        self._offset = 0
        # The open block: header, key and body of each record, joined
        # once when the block is written, and their total length.
        self._block: List[bytes] = []
        self._block_len = 0
        self._index: List[Tuple[bytes, int, int]] = []
        self._keys: List[bytes] = []
        self._last_key: Optional[bytes] = None
        self._finished = False

    def add(self, key: bytes, value) -> None:
        """Append one record; keys must arrive in strictly ascending order."""
        if self._finished:
            raise RuntimeError("builder already finished")
        if self._last_key is not None and key <= self._last_key:
            raise ValueError("keys must be strictly ascending")
        self._last_key = key
        if value is TOMBSTONE:
            flags, body = _TOMBSTONE_FLAG, b""
        else:
            flags, body = 0, value
        if len(key) > 0xFFFF:
            raise ValueError("key too long for SSTable record")
        size = _RECORD_HEADER.size + len(key) + len(body)
        # Cut the block *before* overflowing so blocks stay <= block_size
        # (required for page alignment to hold).
        block_size = self.block_size
        if self._block_len and self._block_len + size > block_size:
            self._flush_block()
        self._block += (_RECORD_HEADER.pack(len(key), len(body), flags), key, body)
        self._block_len += size
        self._keys.append(key)
        if self._block_len >= block_size:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._block:
            return
        data = b"".join(self._block)
        self.fs.write(self._file, self._offset, data)
        # The block's first key follows its first header.
        self._index.append((self._block[1], self._offset, len(data)))
        self._offset += len(data)
        if self._offset % self.block_size != 0:
            pad = self.block_size - (self._offset % self.block_size)
            self.fs.write(self._file, self._offset, b"\x00" * pad)
            self._offset += pad
        self._block = []
        self._block_len = 0

    def finish(self) -> "SSTableReader":
        """Write index, bloom, footer; returns a reader over the table."""
        if self._finished:
            raise RuntimeError("builder already finished")
        self._flush_block()
        self._finished = True
        # Index block
        index_off = self._offset
        parts = [struct.pack("<I", len(self._index))]
        for first_key, off, length in self._index:
            parts.append(struct.pack("<H", len(first_key)))
            parts.append(first_key)
            parts.append(struct.pack("<QI", off, length))
        index_raw = b"".join(parts)
        self.fs.write(self._file, index_off, index_raw)
        # Bloom block
        bloom_raw = BloomFilter.from_keys(self._keys).to_bytes()
        bloom_off = index_off + len(index_raw)
        self.fs.write(self._file, bloom_off, bloom_raw)
        # Footer
        footer = _FOOTER.pack(
            index_off, len(index_raw), bloom_off, len(bloom_raw), FOOTER_MAGIC
        )
        self.fs.write(self._file, bloom_off + len(bloom_raw), footer)
        self.fs.fsync(self._file)
        return SSTableReader(self.fs, self.name)


class SSTableReader:
    """Random and sequential access to one SSTable.

    The index and bloom filter are held in memory (the table-cache
    model RocksDB uses); data blocks are read through the simulated
    page cache on every access, so lookups cost device time.
    """

    def __init__(self, fs: SimFS, name: str):
        self.fs = fs
        self.name = name
        self._file = fs.open(name)
        size = fs.stat_size(name)
        if size < _FOOTER.size:
            raise ValueError(f"{name}: too small to be an SSTable")
        footer_raw = fs.read(self._file, size - _FOOTER.size, _FOOTER.size)
        index_off, index_len, bloom_off, bloom_len, magic = _FOOTER.unpack(footer_raw)
        if magic != FOOTER_MAGIC:
            raise ValueError(f"{name}: bad SSTable magic {magic!r}")
        index_raw = fs.read(self._file, index_off, index_len)
        self._index = self._parse_index(index_raw)
        bloom_raw = fs.read(self._file, bloom_off, bloom_len)
        self.bloom = BloomFilter.from_bytes(bloom_raw)
        self._first_keys = [entry[0] for entry in self._index]

    @staticmethod
    def _parse_index(raw: bytes) -> List[Tuple[bytes, int, int]]:
        (count,) = struct.unpack_from("<I", raw, 0)
        offset = 4
        index = []
        for _ in range(count):
            (klen,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            first_key = raw[offset : offset + klen]
            offset += klen
            block_off, block_len = struct.unpack_from("<QI", raw, offset)
            offset += 12
            index.append((first_key, block_off, block_len))
        return index

    # ------------------------------------------------------------------

    def _read_block(self, block_idx: int) -> bytes:
        _, off, length = self._index[block_idx]
        return self.fs.read(self._file, off, length)

    def get(self, key: bytes):
        """Value bytes, TOMBSTONE, or None if not in this table.

        A key below the table's first key is answered before the bloom
        filter is probed, as RocksDB's FilePicker checks a file's key
        range before its filter: a probe could only pass it on a false
        positive, and it would then find no block to read.
        """
        first_keys = self._first_keys
        if not first_keys or key < first_keys[0] or not self.bloom.may_contain(key):
            return None
        # Rightmost block whose first key <= key; there is one.
        idx = bisect_right(first_keys, key) - 1
        # _decode_records' walk, done in place: only the keys passed
        # and the matched value are sliced.
        _, off, length = self._index[idx]
        raw = self.fs.read(self._file, off, length)
        size = len(raw)
        unpack_header = _RECORD_HEADER.unpack_from
        header_size = _RECORD_HEADER.size
        offset = 0
        while offset + header_size <= size:
            klen, vlen, flags = unpack_header(raw, offset)
            start = offset + header_size
            end = start + klen + vlen
            if end > size:
                raise ValueError("truncated record in data block")
            record_key = raw[start : start + klen]
            if record_key == key:
                return TOMBSTONE if flags & _TOMBSTONE_FLAG else raw[start + klen : end]
            if record_key > key:
                break
            offset = end
        return None

    def scan(self, start_key: Optional[bytes] = None) -> Iterator[Record]:
        """All records in key order, optionally from ``start_key``."""
        first_block = 0
        if start_key is not None and self._index:
            first_block = max(0, bisect_right(self._first_keys, start_key) - 1)
        for block_idx in range(first_block, len(self._index)):
            for record in _decode_records(self._read_block(block_idx)):
                if start_key is not None and record[0] < start_key:
                    continue
                yield record

    def scan_reverse(self) -> Iterator[Record]:
        """All records in descending key order (readreverse support)."""
        for block_idx in range(len(self._index) - 1, -1, -1):
            records = list(_decode_records(self._read_block(block_idx)))
            for record in reversed(records):
                yield record
