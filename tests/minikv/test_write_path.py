"""The store's write path, pinned and checked against reference models.

``TestPinnedLoad`` pins what a load leaves behind: the bytes of every
file (WAL, SSTables, MANIFEST), the page-cache, device and DB counters,
the tracepoint counts and the simulated clock, with nobody listening to
the tracepoints and with a subscriber that hears every event.  The
other classes check the WAL record and the SSTable file bytes against
plain models written here.
"""

import dataclasses
import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minikv.db import DBOptions, MiniKV
from repro.minikv.memtable import TOMBSTONE
from repro.minikv.sstable import FOOTER_MAGIC, SSTableBuilder
from repro.minikv.bloom import BloomFilter
from repro.minikv.wal import WAL_TOMBSTONE_FLAG, WriteAheadLog
from repro.os_sim import make_stack
from repro.os_sim.tracepoints import STANDARD_TRACEPOINTS
from repro.workloads import make_key, populate_db


def load(listen: bool):
    """Populate a small store (four flushes, one compaction), then leave
    overwrites, deletes and an empty value in the WAL."""
    stack = make_stack("nvme", cache_pages=16)
    events = []
    if listen:
        for name in STANDARD_TRACEPOINTS:
            stack.tracepoints.subscribe(name, events.append)
    db = MiniKV(stack, DBOptions(memtable_bytes=24 << 10, l0_compaction_trigger=2))
    populate_db(db, 900, 90, np.random.default_rng(11))
    for i in range(0, 900, 7):
        db.put(make_key(i), b"v%d" % i * (i % 13))
    for i in range(3, 900, 11):
        db.delete(make_key(i))
    db.put(make_key(5), b"")
    return stack, db, events


def snapshot(stack, db, events):
    fs = stack.fs
    files = {}
    for name in fs.list_files():
        # The inode's bytes, read past the page cache so the counters
        # below stay those of the load.
        files[name] = hashlib.sha256(fs.open(name).inode.data).hexdigest()
    heard = hashlib.sha256(
        repr([(e.name, e.timestamp, e.fields) for e in events]).encode()
    ).hexdigest()
    return {
        "files": files,
        "cache": dataclasses.asdict(stack.cache.stats),
        "device": dataclasses.asdict(stack.device.stats),
        "db": dataclasses.asdict(db.stats),
        "hit_counts": dict(stack.tracepoints.hit_counts),
        "subscriber_errors": stack.tracepoints.subscriber_errors,
        "clock": stack.clock.now,
        "events": (len(events), heard),
    }


class TestPinnedLoad:
    @pytest.mark.parametrize("listen", [False, True], ids=["unheard", "heard"])
    def test_load_pinned(self, listen):
        stack, db, events = load(listen)
        assert db.stats.flushes >= 2 and db.stats.compactions >= 1
        snap = snapshot(stack, db, events)
        assert snap.pop("events") == EVENTS[listen]
        assert snap == PINNED


#: What the load leaves, computed on the write path before its fast
#: paths went in (``load(False)`` and ``load(True)`` leave the same).
PINNED = {'files': {'db/MANIFEST': 'c4255f67fa089cf0753bdecbab802c71f636048fcec1f62a23ec85d76c94d009',
           'db/sst-000003': '25b06f043d97f84ed5f6c60dc34911a54b349aaec3c21ab5ba105f580e999c77',
           'db/sst-000004': '088aa479ee2890ab7a546c574d8019c20d3ff80323f84c0fc54763b3e7665e9b',
           'db/sst-000005': '92cfbff4dffba4add40d75c9a517f9a8df76d1f76f0ab48b0acfb7f4f05cdd24',
           'db/wal': '6ae174ff49da611233bbb71c2a40d44645f7847552303f58cf8e04e549091a2f'},
 'cache': {'hits': 1201,
           'misses': 96,
           'inserted': 121,
           'evicted': 70,
           'prefetch_inserted': 25,
           'prefetch_used': 16,
           'prefetch_wasted': 8,
           'writebacks': 170,
           'wait_time': 6.87499999999998e-05},
 'device': {'read_requests': 5,
            'write_requests': 96,
            'pages_read': 29,
            'pages_written': 170,
            'busy_time': 0.0022687499999999973},
 'db': {'puts': 1030,
        'gets': 0,
        'deletes': 82,
        'get_hits': 0,
        'flushes': 5,
        'compactions': 1,
        'seeks': 0,
        'io_retries': 0,
        'io_giveups': 0,
        'orphans_removed': 0,
        'wal_records_replayed': 0},
 'hit_counts': {'add_to_page_cache': 121,
                'mark_page_accessed': 1201,
                'writeback_dirty_page': 96,
                'readahead': 5,
                'block_ra_set': 0},
 'subscriber_errors': 0,
 'clock': 0.0022237499999999974}

#: (events heard, SHA-256 of their name, timestamp and fields).
EVENTS = {False: (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
 True: (1423, 'a13446b557129969411b3f664b86343137f51f6797cb87a2851f6c464e7664a8')}


# ----------------------------------------------------------------------
# WAL records
# ----------------------------------------------------------------------

_WAL_HEADER = struct.Struct("<HIBI")

wal_keys = st.one_of(
    st.binary(max_size=24),
    st.binary(min_size=1, max_size=1).map(lambda b: b * 0xFFFF),
)
wal_values = st.one_of(st.none(), st.just(b""), st.binary(max_size=300))


def wal_records(raw: bytes):
    """(key, body, flags, stored crc) of each record of a WAL file."""
    records, offset = [], 0
    while offset < len(raw):
        klen, vlen, flags, crc = _WAL_HEADER.unpack_from(raw, offset)
        start = offset + _WAL_HEADER.size
        key, body = raw[start : start + klen], raw[start + klen : start + klen + vlen]
        records.append((key, body, flags, crc))
        offset = start + klen + vlen
    assert offset == len(raw)
    return records


class TestWalRecords:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(wal_keys, wal_values), max_size=12))
    def test_records_and_replay(self, ops):
        stack = make_stack("nvme", cache_pages=64)
        wal = WriteAheadLog(stack.fs, "wal")
        for key, value in ops:
            wal.append(key, value)
        raw = bytes(stack.fs.open("wal").inode.data) if ops else b""
        records = wal_records(raw)
        assert len(records) == len(ops)
        for (key, value), (k, body, flags, crc) in zip(ops, records):
            assert (k, body) == (key, value or b"")
            assert flags == (WAL_TOMBSTONE_FLAG if value is None else 0)
            assert crc == zlib.crc32(key + body + bytes([flags]))
        assert list(wal.replay()) == ops

    def test_key_too_long_writes_nothing(self):
        stack = make_stack("nvme", cache_pages=64)
        wal = WriteAheadLog(stack.fs, "wal")
        with pytest.raises(ValueError, match="too long"):
            wal.append(b"k" * 0x10000, b"v")
        assert not stack.fs.exists("wal")


# ----------------------------------------------------------------------
# SSTable file bytes
# ----------------------------------------------------------------------


class ReferenceTable:
    """The SSTable layout of sstable.py, built in one bytearray.

    ``sizes`` holds the file length after each record: a block is
    written by the add that fills it, not by the next one.
    """

    def __init__(self, block_size: int):
        self.block_size = block_size
        self.out = bytearray()
        self.block = bytearray()
        self.index = []
        self.keys = []
        self.sizes = []

    def _cut(self) -> None:
        if self.block:
            self.index.append((self.first, len(self.out), len(self.block)))
            self.out += self.block
            self.out += bytes(-len(self.out) % self.block_size)
            self.block = bytearray()

    def add(self, key: bytes, value) -> None:
        flags, body = (1, b"") if value is TOMBSTONE else (0, value)
        record = struct.pack("<HIB", len(key), len(body), flags) + key + body
        if self.block and len(self.block) + len(record) > self.block_size:
            self._cut()
        if not self.block:
            self.first = key
        self.block += record
        self.keys.append(key)
        if len(self.block) >= self.block_size:
            self._cut()
        self.sizes.append(len(self.out))

    def finish(self) -> bytes:
        self._cut()
        index = struct.pack("<I", len(self.index)) + b"".join(
            struct.pack("<H", len(k)) + k + struct.pack("<QI", off, n)
            for k, off, n in self.index
        )
        bloom = BloomFilter.from_keys(self.keys).to_bytes()
        index_off = len(self.out)
        footer = struct.pack(
            "<QQQQ4s", index_off, len(index), index_off + len(index), len(bloom),
            FOOTER_MAGIC,
        )
        return bytes(self.out) + index + bloom + footer


table_values = st.one_of(
    st.just(TOMBSTONE), st.just(b""), st.binary(max_size=200)
)
table_records = st.dictionaries(
    st.binary(min_size=1, max_size=12), table_values, max_size=40
).map(lambda d: sorted(d.items()))


def check_table(records, block_size: int) -> None:
    stack = make_stack("nvme", cache_pages=256)
    builder = SSTableBuilder(stack.fs, "sst", block_size=block_size)
    reference = ReferenceTable(block_size)
    inode = stack.fs.open("sst").inode
    for key, value in records:
        builder.add(key, value)
        reference.add(key, value)
        assert len(inode.data) == reference.sizes[-1]
    builder.finish()
    assert bytes(inode.data) == reference.finish()


class TestSSTableBytes:
    @settings(max_examples=80, deadline=None)
    @given(table_records, st.sampled_from([64, 100, 4096]))
    def test_bytes_equal_reference(self, records, block_size):
        check_table(records, block_size)

    @pytest.mark.parametrize(
        "sizes",
        [
            [57],  # one record exactly fills the block
            [20, 29, 57, 5],  # two that fill it together, then a full one
            [57, 200, 0],  # a full block, an oversized record, an empty value
        ],
    )
    def test_exact_and_oversized_blocks(self, sizes):
        # Each record is 7 header bytes, a 1-byte key and the value.
        records = [(bytes([65 + i]), b"v" * size) for i, size in enumerate(sizes)]
        records.append((b"Z", TOMBSTONE))
        check_table(records, 65)
