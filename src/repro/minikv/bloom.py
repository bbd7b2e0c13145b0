"""Bloom filter for SSTable point lookups (from scratch).

RocksDB consults a per-table bloom filter before touching data blocks;
minikv does the same so that point reads of absent keys cost no I/O.
Hashing is double hashing over two independent 32-bit hashes (FNV-1a
and CRC32), the standard Kirsch-Mitzenmacher construction.

A filter is built one way, :meth:`BloomFilter.from_keys`, over all the
keys of a table at once: it hashes the keys of each length as one uint8
array (FNV-1a column by column), computes every probe position in one
array expression and packs the bits with numpy.  It sets exactly the
bits a key-by-key build would, so the serialized filter is the same
bytes.

A point lookup probes the filter of every table in turn with the same
key, so :meth:`BloomFilter.may_contain` remembers the hash pair of the
last key it saw (one entry, shared by all filters) and hashes each key
once per lookup instead of once per table.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

import numpy as np

__all__ = ["BloomFilter"]

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
    return h


def _fnv1a_rows(rows: np.ndarray) -> np.ndarray:
    """FNV-1a of each row of a 2-D uint8 array, as uint64 < 2**32.

    A 32-bit hash times the 25-bit prime stays below 2**57, so the
    uint64 product never wraps and masking gives the 32-bit result.
    """
    h = np.full(len(rows), _FNV_OFFSET, dtype=np.uint64)
    for column in rows.T:
        h ^= column
        h *= _FNV_PRIME
        h &= 0xFFFFFFFF
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
    def from_keys(cls, keys: Sequence[bytes]) -> "BloomFilter":
        """A filter over ``keys``, sized like RocksDB's default: 10 bits
        per key (at least 64), ~1% false positives with the optimal
        10 * ln 2 ~= 7 hashes."""
        n = len(keys)
        bloom = cls(max(64, 10 * n), 7)
        bloom.count = n
        lengths = np.fromiter(map(len, keys), dtype=np.intp, count=n)
        h1 = np.empty(n, dtype=np.uint64)
        for length in np.unique(lengths).tolist():
            members = np.flatnonzero(lengths == length)
            same = keys if len(members) == n else [keys[i] for i in members]
            rows = np.frombuffer(b"".join(same), dtype=np.uint8)
            h1[members] = _fnv1a_rows(rows.reshape(len(members), length))
        h2 = np.fromiter(map(zlib.crc32, keys), dtype=np.uint64, count=n)
        n_bits = np.uint64(bloom.n_bits)
        h2[h2 % n_bits == 0] += 1  # avoid a degenerate stride of 0
        # Below 2**32 + 6 * (2**32 + 1): no uint64 sum here wraps.
        probes = h2[:, None] * np.arange(bloom.n_hashes, dtype=np.uint64)
        probes += h1[:, None]
        probes %= n_bits
        bits = np.zeros(bloom.n_bits, dtype=bool)
        bits[probes.ravel()] = True
        bloom._bits = bytearray(np.packbits(bits, bitorder="little"))
        return bloom

    def may_contain(self, key: bytes) -> bool:
        """False if ``key`` is not in the filter: the probes of
        :meth:`from_keys`, stopping at the first clear bit."""
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
        # Probe i is (h1 + i * h2) % n_bits, reached by stepping h2.
        bit = h1 % n_bits
        for _ in range(self.n_hashes):
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            bit = (bit + h2) % n_bits
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
