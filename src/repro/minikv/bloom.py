"""Bloom filter for SSTable point lookups (from scratch).

RocksDB consults a per-table bloom filter before touching data blocks;
minikv does the same so that point reads of absent keys cost no I/O.
Hashing is double hashing over two independent 32-bit hashes (FNV-1a
and CRC32), the standard Kirsch-Mitzenmacher construction.

A point lookup probes the filter of every table in turn with the same
key, so :meth:`BloomFilter.may_contain` remembers the hash pair of the
last key it saw (one entry, shared by all filters) and hashes each key
once per lookup instead of once per table.
"""

from __future__ import annotations

import struct
import zlib

__all__ = ["BloomFilter"]

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
    return h


# (key, fnv1a, crc32) of the last key probed: a cache of a pure
# function of the key bytes, so sharing it changes no answer.  The key is
# kept as an immutable bytes copy, so a caller mutating a bytearray key
# afterwards cannot make a stale pair look current.
_last_probe = (b"", _fnv1a(b""), zlib.crc32(b""))


class BloomFilter:
    """Fixed-size bloom filter over byte keys."""

    def __init__(self, n_bits: int, n_hashes: int):
        if n_bits < 8:
            raise ValueError("need at least 8 bits")
        if not 1 <= n_hashes <= 16:
            raise ValueError("n_hashes must be in [1, 16]")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._bits = bytearray((n_bits + 7) // 8)
        self.count = 0

    @classmethod
    def for_capacity(cls, n_items: int) -> "BloomFilter":
        """Sized like RocksDB's default, 10 bits per key: ~1% false
        positives with the optimal 10 * ln 2 ~= 7 hashes."""
        return cls(max(64, n_items * 10), 7)

    def _probes(self, key: bytes):
        h1 = _fnv1a(key)
        h2 = zlib.crc32(key) & 0xFFFFFFFF
        # Avoid degenerate stride 0.
        if h2 % self.n_bits == 0:
            h2 += 1
        for i in range(self.n_hashes):
            yield (h1 + i * h2) % self.n_bits

    def add(self, key: bytes) -> None:
        for bit in self._probes(key):
            self._bits[bit >> 3] |= 1 << (bit & 7)
        self.count += 1

    def may_contain(self, key: bytes) -> bool:
        """False if ``key`` was never added; the same probes as ``add``."""
        global _last_probe
        last_key, h1, h2 = _last_probe
        if key != last_key:
            key = bytes(key)
            h1 = _fnv1a(key)
            h2 = zlib.crc32(key) & 0xFFFFFFFF
            _last_probe = (key, h1, h2)
        n_bits = self.n_bits
        if h2 % n_bits == 0:
            h2 += 1
        bits = self._bits
        for i in range(self.n_hashes):
            bit = (h1 + i * h2) % n_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    # ------------------------------------------------------------------
    # Serialization (embedded in the SSTable file)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = struct.pack("<IIB", self.n_bits, self.count, self.n_hashes)
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        if len(raw) < 9:
            raise ValueError("bloom blob too small")
        n_bits, count, n_hashes = struct.unpack("<IIB", raw[:9])
        bloom = cls(n_bits, n_hashes)
        expected = (n_bits + 7) // 8
        body = raw[9:]
        if len(body) != expected:
            raise ValueError(
                f"bloom body length {len(body)} != expected {expected}"
            )
        bloom._bits = bytearray(body)
        bloom.count = count
        return bloom
