"""In-memory write buffer (memtable) with tombstone support."""

from __future__ import annotations

from typing import Iterator, Tuple

__all__ = ["MemTable", "TOMBSTONE"]

#: Sentinel distinguishing "deleted" from "absent".
TOMBSTONE = object()


class MemTable:
    """Unordered write buffer; sorted on iteration (i.e. at flush time).

    RocksDB uses a skiplist for concurrent ordered inserts; minikv is
    single-threaded per DB so a dict plus sort-on-flush gives the same
    semantics with O(1) upserts.  Size accounting approximates the
    bytes a flush would write, which drives the flush trigger.
    """

    # Fixed per-record overhead in the SSTable encoding (see sstable.py).
    RECORD_OVERHEAD = 7

    def __init__(self):
        self._entries = {}
        self.approx_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: bytes, value: bytes) -> None:
        old = self._entries.get(key)
        if old is not None:
            self._account(key, old)
        self._entries[key] = value
        self.approx_bytes += len(key) + len(value) + self.RECORD_OVERHEAD

    def delete(self, key: bytes) -> None:
        """Record a tombstone (the delete must shadow older SSTables)."""
        old = self._entries.get(key)
        if old is not None:
            self._account(key, old)
        self._entries[key] = TOMBSTONE
        self.approx_bytes += len(key) + self.RECORD_OVERHEAD

    def _account(self, key: bytes, old) -> None:
        """Take back the bytes of the entry ``key`` overwrites."""
        old_len = 0 if old is TOMBSTONE else len(old)
        self.approx_bytes -= len(key) + old_len + self.RECORD_OVERHEAD

    def get(self, key: bytes):
        """Returns the value, TOMBSTONE, or None (not present here)."""
        return self._entries.get(key)

    def items_sorted(self) -> Iterator[Tuple[bytes, object]]:
        """All entries in key order (tombstones included)."""
        for key in sorted(self._entries):
            yield key, self._entries[key]

    def clear(self) -> None:
        self._entries.clear()
        self.approx_bytes = 0
