"""Tests for the asynchronous training thread."""

import time

import pytest

from repro.runtime.circular_buffer import CircularBuffer
from repro.runtime.training_thread import AsyncTrainer, Mode


def wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestLifecycle:
    def test_consumes_pushed_samples(self):
        buf = CircularBuffer(128)
        seen = []
        trainer = AsyncTrainer(buf, train_fn=seen.extend)
        with trainer:
            for i in range(50):
                buf.push(i)
            assert wait_until(lambda: len(seen) == 50)
        assert sorted(seen) == list(range(50))

    def test_final_drain_on_stop(self):
        buf = CircularBuffer(128)
        seen = []
        trainer = AsyncTrainer(buf, train_fn=seen.extend, poll_interval=0.05)
        trainer.start()
        for i in range(20):
            buf.push(i)
        trainer.stop()  # must drain what is left before joining
        assert len(seen) == 20

    def test_double_start_rejected(self):
        trainer = AsyncTrainer(CircularBuffer(4), train_fn=lambda b: None)
        with trainer:
            with pytest.raises(RuntimeError):
                trainer.start()

    def test_stop_without_start_is_noop(self):
        AsyncTrainer(CircularBuffer(4), train_fn=lambda b: None).stop()

    def test_validation(self):
        buf = CircularBuffer(4)
        with pytest.raises(ValueError):
            AsyncTrainer(buf, train_fn=lambda b: None, poll_interval=0)
        with pytest.raises(ValueError):
            AsyncTrainer(buf, train_fn=lambda b: None, batch_size=0)


class TestModes:
    def test_inference_mode_skips_training(self):
        buf = CircularBuffer(64)
        trained = []
        trainer = AsyncTrainer(buf, train_fn=trained.extend)
        trainer.set_mode(Mode.INFERENCE)
        with trainer:
            for i in range(10):
                buf.push(i)
            assert wait_until(lambda: trainer.samples_seen == 10)
        assert trained == []  # the batches were consumed, not trained on
        assert trainer.samples_seen == 10

    def test_mode_switch_at_runtime(self):
        buf = CircularBuffer(64)
        trained = []
        trainer = AsyncTrainer(buf, train_fn=trained.extend)
        with trainer:
            buf.push("a")
            assert wait_until(lambda: "a" in trained)
            trainer.set_mode(Mode.INFERENCE)
            buf.push("b")
            assert wait_until(lambda: trainer.samples_seen == 2)
        assert "b" not in trained


class TestFailure:
    def test_train_fn_exception_surfaces_on_stop(self):
        buf = CircularBuffer(8)

        def explode(batch):
            raise RuntimeError("bad batch")

        trainer = AsyncTrainer(buf, train_fn=explode)
        trainer.start()
        buf.push(1)
        assert wait_until(lambda: not trainer.running or trainer._error is not None)
        with pytest.raises(RuntimeError, match="bad batch"):
            trainer.stop()

    def test_failure_visible_immediately_not_only_at_stop(self):
        """Regression: a dead trainer must be observable the moment it
        dies -- ``failed``/``error`` flip and ``on_error`` fires from
        the dying thread -- not only when ``stop()`` re-raises."""
        buf = CircularBuffer(8)
        caught = []

        def explode(batch):
            raise RuntimeError("prompt surfacing")

        trainer = AsyncTrainer(buf, train_fn=explode)
        trainer.on_error = caught.append
        trainer.start()
        assert not trainer.failed
        buf.push(1)
        assert wait_until(lambda: trainer.failed)
        assert isinstance(trainer.error, RuntimeError)
        assert len(caught) == 1 and caught[0] is trainer.error
        with pytest.raises(RuntimeError, match="prompt surfacing"):
            trainer.stop()
        assert trainer.error is None  # consumed by stop()

    def test_stop_reraise_false_swallows_consumed_error(self):
        buf = CircularBuffer(8)

        def explode(batch):
            raise RuntimeError("already handled")

        trainer = AsyncTrainer(buf, train_fn=explode)
        trainer.start()
        buf.push(1)
        assert wait_until(lambda: trainer.failed)
        trainer.stop(reraise=False)  # supervisor path: no re-raise
        assert trainer.error is None

    def test_broken_on_error_callback_does_not_mask_crash(self):
        buf = CircularBuffer(8)

        def explode(batch):
            raise RuntimeError("real failure")

        def broken_callback(exc):
            raise ValueError("callback bug")

        trainer = AsyncTrainer(buf, train_fn=explode)
        trainer.on_error = broken_callback
        trainer.start()
        buf.push(1)
        assert wait_until(lambda: trainer.failed)
        with pytest.raises(RuntimeError, match="real failure"):
            trainer.stop()

    def test_batch_counter(self):
        buf = CircularBuffer(64)
        trainer = AsyncTrainer(buf, train_fn=lambda b: None, batch_size=4)
        with trainer:
            for i in range(8):
                buf.push(i)
            assert wait_until(lambda: trainer.samples_seen == 8)
        assert trainer.batches_trained >= 2
