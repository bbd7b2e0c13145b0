"""Tests wiring the registry into the runtime / os_sim / kml hot paths.

Every latency-sampling instrumentation here runs with ``sample_mask=0``
(time every call) so counts are deterministic.
"""

import numpy as np
import pytest

from repro.hooks import detach
from repro.kml import matrix, network
from repro.kml.matrix import Matrix
from repro.minikv import DBOptions, MiniKV
from repro.obs import MetricsRegistry
from repro.obs.instrument import (
    instrument_buffer,
    instrument_device,
    instrument_faults,
    instrument_matrix_ops,
    instrument_memory,
    instrument_minikv,
    instrument_network,
    instrument_stack,
    instrument_supervisor,
    instrument_tracepoints,
    instrument_trainer,
)
from repro.os_sim import make_stack
from repro.readahead.model import build_network
from repro.runtime import AsyncTrainer, CircularBuffer, MemoryAccountant


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestBuffer:
    def test_counters_and_sampled_latency(self, registry):
        buf = CircularBuffer(4)
        m = instrument_buffer(buf, registry, sample_mask=0)
        for i in range(6):  # 2 dropped (capacity 4)
            buf.push(i)
        buf.pop()
        assert m["pushed"].value == 4
        assert m["dropped"].value == 2
        assert m["popped"].value == 1
        assert m["occupancy"].value == 3
        assert m["capacity"].value == 4
        # mask 0 -> every *accepted* push timed (drops return early)
        assert m["push_latency"].count == 4
        assert m["push_latency"].sum > 0.0

    def test_default_mask_samples_one_in_64(self, registry):
        buf = CircularBuffer(256)
        m = instrument_buffer(buf, registry)  # default mask 63
        for i in range(128):
            buf.push(i)
        assert m["pushed"].value == 128  # counting is never sampled
        assert m["push_latency"].count == 2


class TestTrainer:
    def test_batch_latency_and_progress(self, registry):
        buf = CircularBuffer(64)
        trainer = AsyncTrainer(
            buf, train_fn=lambda batch: None,
            poll_interval=0.0005, batch_size=4,
        )
        m = instrument_trainer(trainer, registry)
        with trainer:
            for i in range(8):
                buf.push(i)
        assert m["samples"].value == 8
        assert m["batches"].value >= 1
        assert m["batch_latency"].count == m["batches"].value
        assert m["running"].value == 0.0  # stopped after the with-block


class TestMemory:
    def test_reads_accountant(self, registry):
        memory = MemoryAccountant(reservation=1024)
        m = instrument_memory(memory, registry)
        memory.allocate(100)
        assert m["in_use"].value == 100
        assert m["peak"].value == 100
        assert m["reservation"].value == 1024
        assert m["failed_allocations"].value == 0

    def test_partial_duck_typed_stub_reads_zero(self, registry):
        class Stub:
            def stats(self):
                return {"in_use": 5}  # no peak / failed_allocations

        m = instrument_memory(Stub(), registry)
        assert m["in_use"].value == 5
        assert m["peak"].value == 0
        assert m["failed_allocations"].value == 0
        assert m["reservation"].value == 0


class TestTracepoints:
    def test_hits_synced_at_collect(self, registry):
        stack = make_stack("nvme")
        m = instrument_tracepoints(stack.tracepoints, registry)
        stack.tracepoints.emit("readahead", 0.0, ino=1)
        stack.tracepoints.emit("readahead", 0.0, ino=2)
        registry.collect()  # sync hook copies hit_counts in
        assert m["hits"].labels(name="readahead").value == 2

    def test_subscriber_errors_are_callback_backed(self, registry):
        stack = make_stack("nvme")
        m = instrument_tracepoints(stack.tracepoints, registry)

        def bad(event):
            raise RuntimeError

        stack.tracepoints.subscribe("readahead", bad)
        stack.tracepoints.emit("readahead", 0.0)
        # no collect() needed: the counter reads the component directly
        assert m["errors"].value == 1

    def test_dispatch_latency_observed(self, registry):
        stack = make_stack("nvme")
        m = instrument_tracepoints(stack.tracepoints, registry)
        stack.tracepoints.subscribe("readahead", lambda event: None)
        stack.tracepoints.emit("readahead", 0.0)
        assert m["hook_latency"].count == 1
        # no subscribers -> no dispatch loop, nothing to time
        stack.tracepoints.emit("mark_page_accessed", 0.0)
        assert m["hook_latency"].count == 1


class TestDevice:
    def test_request_counters_and_service_time(self, registry):
        stack = make_stack("nvme")
        m = instrument_device(stack.device, registry)
        stack.device.submit(stack.clock, 4, is_write=False)
        stack.device.submit(stack.clock, 2, is_write=True)
        name = stack.device.name
        assert m["requests"].labels(device=name, op="read").value == 1
        assert m["requests"].labels(device=name, op="write").value == 1
        assert m["pages"].labels(device=name, op="read").value == 4
        read_hist = m["service"].labels(device=name, op="read")
        assert read_hist.count == 1
        assert read_hist.sum > 0.0  # simulated seconds

    def test_instrument_stack_covers_device_and_tracepoints(self, registry):
        stack = make_stack("nvme")
        m = instrument_stack(stack, registry)
        assert "requests" in m and "hits" in m


class TestMiniKV:
    def test_op_counters_and_latency(self, registry):
        db = MiniKV(make_stack("nvme"), DBOptions())
        m = instrument_minikv(db, registry, sample_mask=0)
        db.put(b"k1", b"v1")
        db.put(b"k2", b"v2")
        assert db.get(b"k1") == b"v1"
        assert db.get(b"missing") is None
        registry.collect()  # sync DBStats into the labeled counters
        assert m["ops"].labels(op="put").value == 2
        assert m["ops"].labels(op="get").value == 2
        assert m["get_hits"].value == 1
        assert m["put_latency"].count == 2
        assert m["get_latency"].count == 2


class TestMatrixOps:
    def test_counts_every_op_times_sampled(self, registry):
        rng = np.random.default_rng(0)
        a = Matrix(rng.normal(size=(4, 3)), dtype="float32")
        b = Matrix(rng.normal(size=(3, 2)), dtype="float32")
        m = instrument_matrix_ops(registry, sample_mask=0)
        try:
            for _ in range(5):
                a @ b
        finally:
            detach(matrix)
        assert m["ops"].labels(op="matmul").value == 5
        assert m["op_seconds"].labels(op="matmul").value > 0.0
        a @ b  # after detach: not counted
        assert m["ops"].labels(op="matmul").value == 5

    def test_detach_restores_the_bare_kernel(self, registry):
        instrument_matrix_ops(registry, sample_mask=0)
        detach(matrix)
        k = matrix.kernels("float32")
        assert k.matmul is k.bare_matmul
        rng = np.random.default_rng(0)
        a = Matrix(rng.normal(size=(2, 2)), dtype="float32")
        a @ a
        ops = registry.counter("kml_matrix_ops_total", labels=("op",))
        assert ops.labels(op="matmul").value == 0


class TestNetwork:
    def test_forward_backward_passes_counted(self, registry):
        net = build_network()
        rng = np.random.default_rng(0)
        x = Matrix(rng.normal(size=(4, 5)), dtype="float32")
        m = instrument_network(registry)
        try:
            out = net.forward(x)
            net.backward(Matrix(np.ones(out.shape), dtype="float32"))
        finally:
            detach(network)
        assert m["passes"].labels(phase="forward").value == 1
        assert m["passes"].labels(phase="backward").value == 1
        assert m["pass_seconds"].labels(phase="forward").value > 0.0

    def test_infer_counted_and_timed_as_forward_pass(self, registry):
        net = build_network()
        x = Matrix(np.random.default_rng(0).normal(size=(1, 5)), dtype="float32")
        m = instrument_network(registry)
        try:
            net.infer(x)
            net.infer(x)
        finally:
            detach(network)
        passes, seconds = m["passes"], m["pass_seconds"]
        assert passes.labels(phase="forward").value == 2
        assert passes.labels(phase="backward").value == 0
        assert seconds.labels(phase="forward").value > 0.0
        assert seconds.labels(phase="backward").value == 0.0


class TestFaults:
    def test_injection_counts_exported(self, registry):
        from repro.faults import FaultKind, FaultPlane, InjectedIOError

        plane = FaultPlane().inject("vfs.fsync", FaultKind.ERROR, nth=1)
        metrics = instrument_faults(plane, registry)
        assert metrics["rules"].value == 1.0
        with pytest.raises(InjectedIOError):
            plane.hook("vfs.fsync").fire()
        registry.collect()  # sync hook pulls plane counts
        injected = metrics["injected"]
        assert injected.labels(site="vfs.fsync", kind="error").value == 1.0

    def test_supervisor_state_exported(self, registry):
        from repro.faults import TrainerSupervisor

        trainer = AsyncTrainer(CircularBuffer(4), train_fn=lambda b: None)
        supervisor = TrainerSupervisor(trainer)
        metrics = instrument_supervisor(supervisor, registry)
        assert metrics["crashes"].value == 0.0
        assert metrics["degraded"].value == 0.0
        supervisor.crashes = 2
        supervisor._degraded = True
        assert metrics["crashes"].value == 2.0
        assert metrics["degraded"].value == 1.0

    def test_minikv_retry_counters_exported(self, registry):
        stack = make_stack("nvme")
        db = MiniKV(stack, DBOptions())
        metrics = instrument_minikv(db, registry)
        db.stats.io_retries = 3
        db.stats.io_giveups = 1
        db.stats.wal_records_replayed = 7
        db.stats.orphans_removed = 2
        registry.collect()
        assert metrics["io_retries"].value == 3.0
        assert metrics["io_giveups"].value == 1.0
        assert metrics["wal_records_replayed"].value == 7.0
        assert metrics["orphans_removed"].value == 2.0
