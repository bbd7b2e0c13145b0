"""db_bench-equivalent workloads (the paper's six benchmarks).

The paper trains on four workloads -- readseq, readrandom, readreverse,
readrandomwriterandom -- and additionally evaluates on updaterandom and
mixgraph (mixgraph lives in its own module).  Each class here mirrors
the semantics of the RocksDB db_bench benchmark of the same name.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..minikv.db import MiniKV
from .base import Workload, make_key, make_value
from .mixgraph import MixGraph

__all__ = [
    "ReadSeq",
    "ReadRandom",
    "ReadReverse",
    "ReadRandomWriteRandom",
    "UpdateRandom",
    "FillSeq",
    "FillRandom",
    "populate_db",
    "workload_by_name",
]

#: db_bench readrandomwriterandom's default share of reads.
READ_FRACTION = 0.9


#: Value bytes ``populate_db`` draws per rng call (see its docstring).
_POPULATE_BLOCK_BYTES = 1 << 17


def populate_db(
    db: MiniKV,
    num_keys: int,
    value_size: int,
    rng: np.random.Generator,
) -> None:
    """fillseq: load ``num_keys`` sequential keys, then flush.

    Each value is ``value_size`` bytes drawn uniformly from A-Z, as
    :func:`make_value` draws them, but one ``rng`` call draws a block of
    keys and each key takes one row: one numpy call per key costs far
    more than its bytes.  The bytes differ from a per-key draw (numpy
    drops the unused bytes of its 32-bit buffer at the end of each
    call), but they stay prefix-stable: the first n keys get the same
    values whatever ``num_keys`` is.  No simulated result reads value
    bytes, only record sizes.

    A block stays under 128 KiB, the size from which glibc's malloc maps
    a buffer of its own: freeing a larger one raises that threshold for
    the rest of the process, and 1-2 MiB blocks measured +11-13% peak
    RSS on ``readrandom_collect`` (none with the threshold pinned).

    The op-stream workloads keep ``make_value``: their ``rng`` also
    draws keys and sizes between values, so batching their values would
    change every later draw.
    """
    if value_size < 1:
        raise ValueError("value_size must be >= 1")
    per_block = max(1, _POPULATE_BLOCK_BYTES // value_size)
    for start in range(0, num_keys, per_block):
        count = min(per_block, num_keys - start)
        block = rng.integers(65, 91, size=(count, value_size), dtype=np.uint8).tobytes()
        # The values' heap layout moves the later op-path wall: this loop
        # read ~3% less than one computing ``row * value_size`` per key.
        offsets = range(0, len(block), value_size)
        for index, offset in zip(range(start, start + count), offsets):
            db.put(make_key(index), block[offset : offset + value_size])
    db.close()


class FillSeq(Workload):
    """Sequential fill (used by tests; the benches use populate_db)."""

    name = "fillseq"

    def bind(self, db, rng):
        super().bind(db, rng)
        self._next = 0

    def step(self) -> None:
        self.db.put(make_key(self._next), make_value(self.rng, self.value_size))
        self._next = (self._next + 1) % self.num_keys


class FillRandom(Workload):
    """Random-key puts (db_bench fillrandom): the write-path stressor."""

    name = "fillrandom"

    def step(self) -> None:
        index = int(self.rng.integers(0, self.num_keys))
        self.db.put(make_key(index), make_value(self.rng, self.value_size))


class ReadSeq(Workload):
    """Forward iteration over the whole DB, one entry per op."""

    name = "readseq"

    def bind(self, db, rng):
        super().bind(db, rng)
        self._iter: Optional[Iterator[Tuple[bytes, bytes]]] = None

    def step(self) -> None:
        if self._iter is None:
            self._iter = self.db.scan()
        try:
            next(self._iter)
        except StopIteration:
            self._iter = self.db.scan()
            next(self._iter)


class ReadReverse(Workload):
    """Backward iteration over the whole DB, one entry per op."""

    name = "readreverse"

    def bind(self, db, rng):
        super().bind(db, rng)
        self._iter: Optional[Iterator[Tuple[bytes, bytes]]] = None

    def step(self) -> None:
        if self._iter is None:
            self._iter = self.db.scan_reverse()
        try:
            next(self._iter)
        except StopIteration:
            self._iter = self.db.scan_reverse()
            next(self._iter)


#: Keys ``ReadRandom`` draws per rng call (see its docstring).
_READRANDOM_BLOCK = 1024


class ReadRandom(Workload):
    """Uniform-random point gets over the key space.

    One ``rng.integers(0, num_keys, size=B)`` call draws the keys of the
    next B ops, and the ops take them in order: one numpy call per key
    costs more than the key.  With numpy's bounded integers (Lemire's
    method over the bit generator's own 32- or 64-bit stream) a block
    returns the values B one-key calls return, so the keys served are
    those of per-op draws while nothing else draws from ``rng`` during
    the run.  The generator is drawn up to one block ahead of the ops:
    a run that ends mid-block leaves it where the whole block's draws
    do, not where its ops' draws would.
    """

    name = "readrandom"

    def bind(self, db, rng):
        super().bind(db, rng)
        self._keys: List[bytes] = []  # the block's unused keys, last first

    def step(self) -> None:
        keys = self._keys
        if not keys:
            drawn = self.rng.integers(0, self.num_keys, size=_READRANDOM_BLOCK).tolist()
            keys = self._keys = [make_key(index) for index in reversed(drawn)]
        self.db.get(keys.pop())


class ReadRandomWriteRandom(Workload):
    """Interleaved random reads and writes (db_bench default: 90% reads)."""

    name = "readrandomwriterandom"

    def step(self) -> None:
        index = int(self.rng.integers(0, self.num_keys))
        key = make_key(index)
        if self.rng.random() < READ_FRACTION:
            self.db.get(key)
        else:
            self.db.put(key, make_value(self.rng, self.value_size))


class UpdateRandom(Workload):
    """Read-modify-write of random keys (never seen in training)."""

    name = "updaterandom"

    def step(self) -> None:
        index = int(self.rng.integers(0, self.num_keys))
        key = make_key(index)
        value = self.db.get(key) or b""
        # "Modify": rewrite with fresh bytes of the same length.
        size = len(value) or self.value_size
        self.db.put(key, make_value(self.rng, size))



_BY_NAME = {
    cls.name: cls
    for cls in (ReadSeq, ReadRandom, ReadReverse, ReadRandomWriteRandom,
                UpdateRandom, MixGraph, FillSeq, FillRandom)
}


def workload_by_name(name: str, num_keys: int, value_size: int = 100) -> Workload:
    """Factory for the paper's six evaluation workloads (and the fills)."""
    try:
        cls = _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}") from None
    return cls(num_keys, value_size)
