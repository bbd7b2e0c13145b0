"""minikv: a mini LSM-tree key-value store over the simulated VFS.

The RocksDB stand-in for the reproduction (see DESIGN.md section 2):
memtable + WAL, flush to L0 SSTables, size-tiered compaction into L1,
bloom-filtered point gets, forward/reverse iterators, and a manifest
for recovery.  Its read and write paths generate the same *page-cache
access patterns* db_bench workloads generate on RocksDB, which is all
the readahead case study observes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..os_sim.stack import StorageStack
from ..os_sim.vfs import SimFS
from .compaction import compact_tables, merge_records
from .memtable import TOMBSTONE, MemTable
from .sstable import SSTableBuilder, SSTableReader
from .wal import WriteAheadLog

__all__ = ["MiniKV", "DBOptions", "DBStats"]


@dataclass
class DBOptions:
    """Tunables, defaulted for benchmark-scale datasets."""

    memtable_bytes: int = 1 << 20      # flush threshold (1 MiB)
    l0_compaction_trigger: int = 4     # L0 tables before compaction
    block_size: int = 4096             # one simulated page
    wal_enabled: bool = True
    name: str = "db"
    # Transient-I/O retry policy (see repro.faults): how many times a
    # read-path or manifest-sync error marked transient is retried, and
    # the capped-exponential backoff charged to the simulated clock.
    io_retries: int = 3
    io_retry_backoff_s: float = 1e-4
    io_retry_backoff_cap_s: float = 1e-2


@dataclass
class DBStats:
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    get_hits: int = 0
    flushes: int = 0
    compactions: int = 0
    seeks: int = 0
    io_retries: int = 0        # transient I/O errors absorbed by retry
    io_giveups: int = 0        # retry budget exhausted; error propagated
    orphans_removed: int = 0   # unreferenced SSTable files GC'd at open
    wal_records_replayed: int = 0


class MiniKV:
    """LSM KV store: put/get/delete/scan with crash recovery.

    Every step boundary whose ordering matters for recovery is a named
    *crash point* (:attr:`CRASH_POINTS`): under an armed fault plane a
    :class:`~repro.faults.errors.SimCrash` can be raised exactly there,
    and ``repro.faults.harness`` proves that reopening the store over
    the surviving files recovers to reference-model equivalence.  The
    durability order is manifest-before-WAL-reset and
    manifest-before-input-unlink, with the manifest itself updated via
    write-tmp + fsync + rename so it is never mid-rewrite on disk.
    """

    #: Registered crash points (short names; the fault-plane site is
    #: ``"minikv." + name``).  ``repro.faults.plane.SITES`` mirrors
    #: this list -- tests/faults/test_plane.py asserts they stay in
    #: sync -- and the crash harness exercises every entry plus the
    #: torn-write site ``minikv.wal.append`` owned by the WAL.
    CRASH_POINTS = (
        "memtable.apply",
        "flush.after_build",
        "flush.after_manifest",
        "flush.after_wal_reset",
        "compact.after_merge",
        "compact.after_manifest",
        "compact.after_unlink",
        "manifest.tmp_written",
    )

    def __init__(self, stack: StorageStack, options: Optional[DBOptions] = None):
        self.stack = stack
        self.fs: SimFS = stack.fs
        self.options = options or DBOptions()
        self.stats = DBStats()
        self._memtable = MemTable()
        self._wal = WriteAheadLog(self.fs, f"{self.options.name}/wal")
        self._l0: List[SSTableReader] = []  # newest first
        self._l1: List[SSTableReader] = []  # at most one table
        self._next_table_seq = 0
        # Optional latency probes (duck-typed; see repro.obs).
        self._obs_get = self._obs_put = self._obs_compact = None
        # Optional fault-injection site handles (duck-typed; see
        # repro.faults): short crash-point name -> FaultSite.
        self._fault_sites = None
        self._recover()

    def attach_obs(self, get, put, compaction) -> None:
        """Install the get, put and compaction probes (``repro.obs``)."""
        self._obs_get, self._obs_put, self._obs_compact = get, put, compaction

    def attach_faults(self, plane) -> None:
        """Resolve crash-point site handles (and the WAL's) from a plane."""
        sites = {}
        for short in self.CRASH_POINTS:
            site = plane.site("minikv." + short)
            if site is not None:
                sites[short] = site
        self._fault_sites = sites or None
        self._wal.attach_faults(plane)

    def detach_faults(self) -> None:
        self._fault_sites = None
        self._wal.detach_faults()

    def _crash_point(self, name: str) -> None:
        """Fire a registered crash point (cold paths only; hot paths
        inline the ``_fault_sites is not None`` guard)."""
        sites = self._fault_sites
        if sites is not None:
            site = sites.get(name)
            if site is not None:
                site.fire()

    # ------------------------------------------------------------------
    # Recovery / manifest
    # ------------------------------------------------------------------

    @property
    def _manifest_name(self) -> str:
        return f"{self.options.name}/MANIFEST"

    def _write_manifest(self) -> None:
        """Atomically replace the manifest: tmp + fsync + rename.

        A crash can therefore leave either the old manifest or the new
        one, never a torn rewrite -- the invariant every recovery path
        below assumes.
        """
        lines = [f"seq {self._next_table_seq}"]
        for table in self._l0:
            lines.append(f"0 {table.name}")
        for table in self._l1:
            lines.append(f"1 {table.name}")
        payload = "\n".join(lines).encode("ascii")
        tmp_name = self._manifest_name + ".tmp"
        if self.fs.exists(tmp_name):
            self.fs.unlink(tmp_name)
        handle = self.fs.open(tmp_name, create=True)
        self.fs.write(handle, 0, payload)
        self.fs.fsync(handle)
        self._crash_point("manifest.tmp_written")
        self.fs.rename(tmp_name, self._manifest_name)

    def _recover(self) -> None:
        """Rebuild levels from the manifest, then replay the WAL.

        Also garbage-collects crash leftovers: a stale MANIFEST.tmp
        and any SSTable file the manifest does not reference (a flush
        or compaction that died between building its output and
        publishing it) -- otherwise a recovered table seq would collide
        with the orphan's name.
        """
        tmp_name = self._manifest_name + ".tmp"
        if self.fs.exists(tmp_name):
            self.fs.unlink(tmp_name)
        if self.fs.exists(self._manifest_name):
            handle = self.fs.open(self._manifest_name)
            raw = self.fs.read(handle, 0, self.fs.stat_size(self._manifest_name))
            for line in raw.decode("ascii").splitlines():
                tag, value = line.split(" ", 1)
                if tag == "seq":
                    self._next_table_seq = int(value)
                elif tag == "0":
                    self._l0.append(SSTableReader(self.fs, value))
                elif tag == "1":
                    self._l1.append(SSTableReader(self.fs, value))
                else:
                    raise ValueError(f"bad manifest line {line!r}")
        referenced = {table.name for table in self._l0 + self._l1}
        sst_prefix = f"{self.options.name}/sst-"
        for fname in self.fs.list_files():
            if fname.startswith(sst_prefix) and fname not in referenced:
                self.fs.unlink(fname)
                self.stats.orphans_removed += 1
        if self.options.wal_enabled:
            for key, value in self._wal.replay():
                if value is None:
                    self._memtable.delete(key)
                else:
                    self._memtable.put(key, value)
                self.stats.wal_records_replayed += 1

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_key(key)
        probe = self._obs_put
        t0 = 0.0
        if probe is not None:
            probe.calls = n = probe.calls + 1
            if not n & probe.mask:
                t0 = time.perf_counter()
        if self.options.wal_enabled:
            self._wal.append(key, value)
        sites = self._fault_sites
        if sites is not None:
            # Crash window: WAL record durable, memtable not yet updated.
            site = sites.get("memtable.apply")
            if site is not None:
                site.fire()
        self._memtable.put(key, value)
        self.stats.puts += 1
        self._maybe_flush()
        if t0:
            probe.hist.observe(time.perf_counter() - t0)

    def delete(self, key: bytes) -> None:
        self._check_key(key)
        if self.options.wal_enabled:
            self._wal.append(key, None)
        sites = self._fault_sites
        if sites is not None:
            site = sites.get("memtable.apply")
            if site is not None:
                site.fire()
        self._memtable.delete(key)
        self.stats.deletes += 1
        self._maybe_flush()

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
            raise ValueError("keys must be non-empty bytes")

    def _maybe_flush(self) -> None:
        if self._memtable.approx_bytes >= self.options.memtable_bytes:
            self.flush()

    def flush(self) -> None:
        """Persist the memtable as a new L0 SSTable.

        Ordering is load-bearing for crash safety: the new table is
        built and *published in the manifest* before the memtable and
        WAL are cleared.  A crash after the build leaves an orphan file
        (GC'd on recovery) with the WAL intact; a crash after the
        manifest but before the WAL reset replays records already in
        the table, which is idempotent.  Resetting the WAL first --
        the naive order -- would lose every unflushed record.
        """
        if len(self._memtable) == 0:
            return
        name = self._new_table_name()
        builder = SSTableBuilder(self.fs, name, block_size=self.options.block_size)
        for key, value in self._memtable.items_sorted():
            builder.add(key, value)
        self._l0.insert(0, builder.finish())
        self._crash_point("flush.after_build")
        self._write_manifest()
        self._crash_point("flush.after_manifest")
        self._memtable.clear()
        if self.options.wal_enabled:
            self._wal.reset()
        self._crash_point("flush.after_wal_reset")
        self.stats.flushes += 1
        self._maybe_compact()

    def _new_table_name(self) -> str:
        name = f"{self.options.name}/sst-{self._next_table_seq:06d}"
        self._next_table_seq += 1
        return name

    def _maybe_compact(self) -> None:
        if len(self._l0) <= self.options.l0_compaction_trigger:
            return
        probe = self._obs_compact
        t0 = 0.0
        if probe is not None:
            probe.calls = n = probe.calls + 1
            if not n & probe.mask:
                t0 = time.perf_counter()
        inputs = self._l0 + self._l1  # newest first, L1 oldest
        out_name = self._new_table_name()
        merged = compact_tables(
            self.fs,
            inputs,
            out_name,
            drop_tombstones=True,  # L1 is the bottom level
            block_size=self.options.block_size,
        )
        self._crash_point("compact.after_merge")
        # Publish the merged table in the manifest *before* unlinking
        # the inputs -- the reverse order leaves a manifest referencing
        # deleted files, which is unrecoverable.
        self._l0 = []
        self._l1 = [merged]
        self._write_manifest()
        self._crash_point("compact.after_manifest")
        for table in inputs:
            self.fs.unlink(table.name)
        self._crash_point("compact.after_unlink")
        self.stats.compactions += 1
        if t0:
            probe.hist.observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _retry_io(self, fn, exc: Exception):
        """Retry ``fn``, whose first attempt raised ``exc``, while its
        errors are *transient*, with capped exponential backoff.

        Only exceptions carrying a truthy ``transient`` attribute (the
        convention :class:`repro.faults.errors.InjectedIOError` follows)
        are retried; everything else propagates immediately.  Backoff
        is charged to the simulated clock so retry storms are visible
        in the timing results, not hidden wall-clock sleeps.  Callers
        make the first attempt themselves, so the error-free path costs
        no extra call.
        """
        attempt = 0
        while True:
            if not getattr(exc, "transient", False):
                raise exc
            if attempt >= self.options.io_retries:
                self.stats.io_giveups += 1
                raise exc
            delay = min(
                self.options.io_retry_backoff_s * (2 ** attempt),
                self.options.io_retry_backoff_cap_s,
            )
            self.fs.clock.advance(delay)
            attempt += 1
            self.stats.io_retries += 1
            try:
                return fn()
            except Exception as retry_exc:
                exc = retry_exc

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        probe = self._obs_get
        t0 = 0.0
        if probe is not None:
            probe.calls = n = probe.calls + 1
            if not n & probe.mask:
                t0 = time.perf_counter()
        self.stats.gets += 1
        value = self._memtable.get(key)
        if value is None:
            for table in self._l0 + self._l1:
                try:
                    value = table.get(key)
                except Exception as exc:
                    value = self._retry_io(lambda: table.get(key), exc)
                if value is not None:
                    break
        if t0:
            probe.hist.observe(time.perf_counter() - t0)
        if value is None or value is TOMBSTONE:
            return None
        self.stats.get_hits += 1
        return bytes(value)

    def _streams(self, start_key: Optional[bytes] = None):
        memtable_items = (
            (k, v)
            for k, v in self._memtable.items_sorted()
            if start_key is None or k >= start_key
        )
        streams = [iter(list(memtable_items))]
        streams.extend(table.scan(start_key) for table in self._l0)
        streams.extend(table.scan(start_key) for table in self._l1)
        return streams

    def scan(self, start_key: Optional[bytes] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Live records in ascending key order, optionally from a seek key."""
        self.stats.seeks += 1
        for key, value in merge_records(
            self._streams(start_key), drop_tombstones=True
        ):
            yield key, bytes(value)

    def scan_reverse(self) -> Iterator[Tuple[bytes, bytes]]:
        """All live records in descending key order.

        Reverse merge: each source iterates in reverse, the heap orders
        by descending key, and newer sources still win ties.
        """
        self.stats.seeks += 1
        import heapq

        streams = [
            iter(sorted(self._memtable.items_sorted(), reverse=True))
        ]
        streams.extend(table.scan_reverse() for table in self._l0)
        streams.extend(table.scan_reverse() for table in self._l1)
        iterators = [iter(s) for s in streams]
        heap = []
        for src, it in enumerate(iterators):
            try:
                key, value = next(it)
                heap.append((_ReverseKey(key), src, value))
            except StopIteration:
                pass
        heapq.heapify(heap)
        last_key = None
        while heap:
            rkey, src, value = heapq.heappop(heap)
            try:
                nxt_key, nxt_value = next(iterators[src])
                heapq.heappush(heap, (_ReverseKey(nxt_key), src, nxt_value))
            except StopIteration:
                pass
            if rkey.key == last_key:
                continue
            last_key = rkey.key
            if value is TOMBSTONE:
                continue
            yield rkey.key, bytes(value)

    # ------------------------------------------------------------------

    @property
    def num_l0_tables(self) -> int:
        return len(self._l0)

    @property
    def num_l1_tables(self) -> int:
        return len(self._l1)

    def close(self) -> None:
        """Flush everything so a reopen sees all data."""
        self.flush()
        if self.options.wal_enabled:
            self._wal.sync()


class _ReverseKey:
    """Orders bytes descending inside a min-heap."""

    __slots__ = ("key",)

    def __init__(self, key: bytes):
        self.key = key

    def __lt__(self, other: "_ReverseKey") -> bool:
        return self.key > other.key

    def __eq__(self, other) -> bool:
        return isinstance(other, _ReverseKey) and self.key == other.key
