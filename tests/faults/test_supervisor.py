"""Tests for the trainer supervisor: restarts, backoff, degradation."""

import time

import pytest

from repro.faults import FaultKind, FaultPlane, TrainerSupervisor, build_scenario
from repro.runtime.circular_buffer import CircularBuffer
from repro.runtime.training_thread import AsyncTrainer, Mode


def wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


def make_trainer(buf, plane=None):
    trained = []
    trainer = AsyncTrainer(
        buf, train_fn=trained.extend, poll_interval=0.001, batch_size=8
    )
    if plane is not None:
        plane.attach(trainer)
    return trainer, trained


class TestTransientCrashes:
    def test_supervisor_restarts_through_transient_faults(self):
        buf = CircularBuffer(256)
        plane = build_scenario("trainer-flaky")  # 2 crashes, then healthy
        trainer, trained = make_trainer(buf, plane)
        supervisor = TrainerSupervisor(
            trainer, max_restarts=5, backoff_s=0.001, min_healthy_s=60.0
        )
        with supervisor:
            deadline = time.time() + 5.0
            while time.time() < deadline and len(trained) < 40:
                buf.push(len(trained) + time.time())
                time.sleep(0.001)
            assert len(trained) >= 40  # training resumed after both crashes
            assert wait_until(lambda: supervisor.restarts == 2)
        assert supervisor.crashes == 2
        assert not supervisor.degraded
        assert trainer.mode is Mode.TRAINING

    def test_min_healthy_resets_consecutive_failures(self):
        buf = CircularBuffer(64)
        plane = FaultPlane().inject(
            "trainer.batch", FaultKind.ERROR, every=1, max_injections=2
        )
        trainer, _ = make_trainer(buf, plane)
        # min_healthy_s=0: any uptime counts as recovery, so two crashes
        # never accumulate and max_restarts=1 still survives both.
        supervisor = TrainerSupervisor(
            trainer, max_restarts=1, backoff_s=0.001, min_healthy_s=0.0
        )
        with supervisor:
            for _ in range(2):
                buf.push(1.0)
                assert wait_until(lambda: supervisor.restarts >= 1)
                buf.push(2.0)
            assert wait_until(lambda: supervisor.restarts == 2)
        assert not supervisor.degraded


class TestDegradation:
    def test_persistent_crashes_degrade(self):
        buf = CircularBuffer(64)
        plane = build_scenario("trainer-crash")  # every batch fails
        trainer, _ = make_trainer(buf, plane)
        supervisor = TrainerSupervisor(
            trainer,
            max_restarts=2,
            backoff_s=0.001,
            min_healthy_s=60.0,
        )
        supervisor.start()
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline and not supervisor.degraded:
                buf.push(time.time())
                time.sleep(0.001)
            assert supervisor.degraded
            assert trainer.mode is Mode.DEGRADED
            assert not supervisor.healthy()
            # First crash + max_restarts failed restarts.
            assert supervisor.crashes == 3
            assert supervisor.restarts == 2
            assert supervisor.last_error is not None
        finally:
            supervisor.stop()

    def test_error_callback_chained(self):
        buf = CircularBuffer(64)
        plane = build_scenario("trainer-crash")
        caught = []

        def prior_callback(exc):
            caught.append(exc)

        trainer, _ = make_trainer(buf, plane)
        trainer.on_error = prior_callback
        supervisor = TrainerSupervisor(
            trainer, max_restarts=0, backoff_s=0.001, min_healthy_s=60.0
        )
        with supervisor:
            buf.push(1.0)
            assert wait_until(lambda: supervisor.degraded)
        assert caught  # the pre-existing callback still fired
        assert trainer.on_error is prior_callback  # restored on stop


class TestLifecycle:
    def test_clean_stop_while_healthy(self):
        buf = CircularBuffer(64)
        trainer, trained = make_trainer(buf)
        supervisor = TrainerSupervisor(trainer, backoff_s=0.001)
        with supervisor:
            buf.push(1.0)
            assert wait_until(lambda: trained == [1.0])
        assert not supervisor.degraded
        assert supervisor.crashes == 0
        assert not trainer.running

    def test_double_start_rejected(self):
        trainer, _ = make_trainer(CircularBuffer(4))
        supervisor = TrainerSupervisor(trainer, backoff_s=0.001)
        with supervisor:
            with pytest.raises(RuntimeError):
                supervisor.start()

    def test_validation(self):
        trainer, _ = make_trainer(CircularBuffer(4))
        with pytest.raises(ValueError):
            TrainerSupervisor(trainer, max_restarts=-1)
        with pytest.raises(ValueError):
            TrainerSupervisor(trainer, backoff_s=-0.1)
