"""End-to-end tests: every injection site, exercised through its component."""

import numpy as np
import pytest

from repro.faults import (
    FaultKind,
    FaultPlane,
    InjectedIOError,
    SimCrash,
)
from repro.kml import Linear, ModelFormatError, Sequential, load_model, save_model
from repro.kml import model_io
from repro.minikv.db import DBOptions, MiniKV
from repro.os_sim import make_stack
from repro.runtime.circular_buffer import CircularBuffer


@pytest.fixture(autouse=True)
def _clear_model_io_hook():
    yield
    model_io.set_fault_hook(None)


class TestVfsSites:
    def test_write_error(self):
        stack = make_stack("nvme")
        plane = FaultPlane().inject("vfs.write", FaultKind.ERROR)
        stack.fs.attach_faults(plane)
        handle = stack.fs.open("f", create=True)
        with pytest.raises(InjectedIOError):
            stack.fs.write(handle, 0, b"payload")
        stack.fs.detach_faults()
        stack.fs.write(handle, 0, b"payload")  # detaching disarms

    def test_torn_write_persists_prefix_then_crashes(self):
        stack = make_stack("nvme")
        plane = FaultPlane().inject(
            "vfs.write", FaultKind.TORN_WRITE, keep_fraction=0.5
        )
        stack.fs.attach_faults(plane)
        handle = stack.fs.open("f", create=True)
        with pytest.raises(SimCrash):
            stack.fs.write(handle, 0, b"x" * 100)
        # Exactly the torn prefix is durable: 50 of 100 bytes.
        assert stack.fs.stat_size("f") == 50

    def test_fsync_and_read_errors(self):
        stack = make_stack("nvme")
        plane = (
            FaultPlane()
            .inject("vfs.fsync", FaultKind.ERROR)
            .inject("vfs.read", FaultKind.ERROR, nth=2)
        )
        handle = stack.fs.open("f", create=True)
        stack.fs.write(handle, 0, b"data")
        stack.fs.attach_faults(plane)
        with pytest.raises(InjectedIOError):
            stack.fs.fsync(handle)
        assert stack.fs.read(handle, 0, 4) == b"data"  # nth=2: first is fine
        with pytest.raises(InjectedIOError):
            stack.fs.read(handle, 0, 4)


class TestDeviceSite:
    def test_transient_error_raises_oserror(self):
        stack = make_stack("nvme")
        plane = FaultPlane().inject(
            "device.submit", FaultKind.ERROR, transient=True
        )
        stack.device.attach_faults(plane)
        with pytest.raises(OSError) as excinfo:
            stack.device.submit(stack.clock, 4)
        assert excinfo.value.transient
        # Failed submissions are not counted as served requests.
        assert stack.device.stats.total_requests == 0

    def test_delay_charges_the_busy_timeline(self):
        stack = make_stack("nvme")
        baseline = stack.device.service_time(4)
        plane = FaultPlane().inject(
            "device.submit", FaultKind.DELAY, delay_s=2e-3
        )
        stack.device.attach_faults(plane)
        done = stack.device.submit(stack.clock, 4)
        assert done == pytest.approx(baseline + 2e-3)
        assert stack.device.stats.busy_time == pytest.approx(baseline + 2e-3)


class TestBufferSite:
    def test_forced_drop_counts_like_overflow(self):
        buf = CircularBuffer(64)
        plane = FaultPlane().inject("buffer.push", FaultKind.DROP, every=2)
        buf.attach_faults(plane)
        results = [buf.push(i) for i in range(10)]
        assert results.count(False) == 5
        assert buf.dropped == 5
        assert buf.pushed == 5
        assert len(buf) == 5


class TestModelIoSite:
    def _model(self):
        return Sequential(
            [Linear(4, 3, rng=np.random.default_rng(0))], name="m"
        )

    def test_corrupt_load_raises_format_error(self, tmp_path):
        path = str(tmp_path / "m.kml")
        save_model(self._model(), path)
        plane = FaultPlane(seed=5).inject(
            "model_io.load", FaultKind.CORRUPT, corrupt="bitflip"
        )
        model_io.set_fault_hook(plane.model_io_hook())
        with pytest.raises(ModelFormatError):
            load_model(path)
        assert plane.injection_counts() == {("model_io.load", "corrupt"): 1}
        model_io.set_fault_hook(None)
        load_model(path)  # clean again once the hook is gone

    def test_truncating_load_raises_format_error(self, tmp_path):
        path = str(tmp_path / "m.kml")
        save_model(self._model(), path)
        plane = FaultPlane(seed=6).inject(
            "model_io.load", FaultKind.CORRUPT, corrupt="truncate"
        )
        model_io.set_fault_hook(plane.model_io_hook())
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestMiniKVRetries:
    def _db_with_sstable_data(self):
        """A store whose keys live in SSTables with a cold cache."""
        stack = make_stack("nvme")
        db = MiniKV(stack, DBOptions(memtable_bytes=512))
        for i in range(40):
            db.put(b"key-%02d" % i, b"v" * 64)
        db.flush()
        stack.drop_caches()
        return stack, db

    def test_transient_errors_absorbed_by_retry(self):
        stack, db = self._db_with_sstable_data()
        plane = FaultPlane().inject(
            "device.submit", FaultKind.ERROR, transient=True,
            every=1, max_injections=2,
        )
        stack.device.attach_faults(plane)
        before = stack.clock.now
        assert db.get(b"key-07") == b"v" * 64
        assert db.stats.io_retries == 2
        assert db.stats.io_giveups == 0
        # Backoff is charged to the simulated clock, not hidden.
        assert stack.clock.now > before

    def test_retry_budget_exhaustion_propagates(self):
        stack, db = self._db_with_sstable_data()
        plane = FaultPlane().inject(
            "device.submit", FaultKind.ERROR, transient=True
        )
        stack.device.attach_faults(plane)
        with pytest.raises(InjectedIOError):
            db.get(b"key-07")
        assert db.stats.io_giveups == 1
        assert db.stats.io_retries == db.options.io_retries

    def test_non_transient_error_not_retried(self):
        stack, db = self._db_with_sstable_data()
        plane = FaultPlane().inject(
            "device.submit", FaultKind.ERROR, transient=False
        )
        stack.device.attach_faults(plane)
        with pytest.raises(InjectedIOError):
            db.get(b"key-07")
        assert db.stats.io_retries == 0
        assert db.stats.io_giveups == 0


class TestRecoveryHousekeeping:
    def test_orphan_sstables_removed_on_reopen(self):
        stack = make_stack("nvme")
        db = MiniKV(stack, DBOptions())
        db.put(b"k", b"v")
        db.close()
        # Fabricate leftovers of a crashed flush: an unreferenced table
        # and a stale manifest temp file.
        orphan = stack.fs.open("db/sst-999999", create=True)
        stack.fs.write(orphan, 0, b"garbage")
        tmp = stack.fs.open("db/MANIFEST.tmp", create=True)
        stack.fs.write(tmp, 0, b"stale")
        db2 = MiniKV(stack, DBOptions())
        assert db2.stats.orphans_removed == 1
        assert not stack.fs.exists("db/sst-999999")
        assert not stack.fs.exists("db/MANIFEST.tmp")
        assert db2.get(b"k") == b"v"

    def test_wal_replay_counter(self):
        stack = make_stack("nvme")
        db = MiniKV(stack, DBOptions())
        for i in range(7):
            db.put(b"k%d" % i, b"v")
        # No flush: reopening replays all seven records from the WAL.
        db2 = MiniKV(stack, DBOptions())
        assert db2.stats.wal_records_replayed == 7
        assert db2.get(b"k3") == b"v"
