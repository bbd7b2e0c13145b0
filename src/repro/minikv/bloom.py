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

A point lookup probes the filter of each table whose first key is at or
below the key (``SSTableReader.get`` answers a key below it without the
filter), and :meth:`BloomFilter.may_contain` hashes a key once for all
of them: it keeps the hash pair of the last key probed (one entry,
shared by all filters; over 4 overlapping tables from a random-order
fill, ~2.6 filters per get, a get measured ~13.0 us with it and ~14.3
us without).  A new key's FNV-1a, a left fold over its bytes, starts
from a module-level memo of the state after all but the key's last 4
bytes and folds in only those 4.  Both are caches of pure functions of
the key bytes, keyed by immutable ``bytes``, so no answer changes.  The
prefix memo holds at most :data:`_PREFIX_MEMO_CAP` prefixes and starts
over when full.

The prefix memo relies on keys sharing all but their last 4 bytes, as
db_bench's ``user%012d`` keys do across 10**4 keys: a probe of such a
key measured ~1.9-2.1 us against ~3.0-3.1 us hashing every byte.  Keys
without that property pay a memo miss and insert on every new key:
probing random 16-byte keys measured ~2.6-2.8 us against ~2.2 us (one
filter over 60k keys, 20k probes, 2-vCPU x86 VM, Python 3.11).
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


#: Prefixes the memo holds before it starts over.
_PREFIX_MEMO_CAP = 1024

# FNV-1a state after each key prefix seen, keyed by the prefix bytes.
_prefix_memo: dict = {}

# (key, fnv1a, crc32) of the last key probed, for the next table's
# filter: the key is an immutable bytes copy, so a caller mutating a
# bytearray key afterwards cannot make a stale pair look current.
_last_probe = (b"", _fnv1a(b""), zlib.crc32(b""))


def _remember_prefix(prefix: bytes) -> int:
    """``_fnv1a(prefix)``, stored in the memo (emptied first when full)."""
    if len(_prefix_memo) >= _PREFIX_MEMO_CAP:
        _prefix_memo.clear()
    state = _prefix_memo[prefix] = _fnv1a(prefix)
    return state


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
            # FNV-1a: the memoised state of all but the last 4 bytes,
            # then those bytes folded in.
            prefix = key[:-4]
            h1 = _prefix_memo.get(prefix)
            if h1 is None:
                h1 = _remember_prefix(prefix)
            for byte in key[-4:]:
                h1 = ((h1 ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
            h2 = zlib.crc32(key)
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
