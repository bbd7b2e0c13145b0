"""Tests for the lock-free SPSC circular buffer."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.circular_buffer import CircularBuffer


class TestBasics:
    def test_fifo_order(self):
        buf = CircularBuffer(8)
        for i in range(5):
            assert buf.push(i)
        assert [buf.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_empty_pop_returns_none(self):
        assert CircularBuffer(4).pop() is None

    def test_capacity_respected_and_drops_counted(self):
        buf = CircularBuffer(3)
        results = [buf.push(i) for i in range(5)]
        assert results == [True, True, True, False, False]
        assert buf.dropped == 2
        assert len(buf) == 3

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            CircularBuffer(2).push(None)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CircularBuffer(0)

    def test_wraparound(self):
        buf = CircularBuffer(2)
        for round_ in range(10):
            assert buf.push(round_)
            assert buf.pop() == round_
        assert len(buf) == 0
        assert buf.dropped == 0

    def test_is_full_and_empty(self):
        buf = CircularBuffer(1)
        assert len(buf) == 0
        assert buf.push("x")
        assert len(buf) == 1 and not buf.push("y")

    def test_drain(self):
        buf = CircularBuffer(8)
        for i in range(6):
            buf.push(i)
        assert buf.drain(4) == [0, 1, 2, 3]
        assert buf.drain() == [4, 5]
        assert buf.drain() == []

    def test_counters(self):
        buf = CircularBuffer(4)
        for i in range(3):
            buf.push(i)
        buf.pop()
        assert buf.pushed == 3
        assert buf.popped == 1

    @given(st.lists(st.integers(), min_size=1, max_size=50), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_property_no_loss_below_capacity_and_order(self, items, capacity):
        buf = CircularBuffer(capacity)
        accepted = [item for item in items if buf.push(item)]
        assert len(accepted) == min(len(items), capacity)
        assert buf.drain(len(items)) == accepted
        assert buf.dropped == len(items) - len(accepted)


class TestConcurrency:
    def test_spsc_threads_transfer_everything(self):
        buf = CircularBuffer(64)
        n = 20_000
        received = []
        done = threading.Event()

        def producer():
            sent = 0
            while sent < n:
                if buf.push(sent):
                    sent += 1
            done.set()

        def consumer():
            while not (done.is_set() and len(buf) == 0):
                item = buf.pop()
                if item is not None:
                    received.append(item)

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert received == list(range(n))
        # `dropped` counts failed push attempts; with a retrying
        # producer nothing is lost even though attempts failed.
        assert buf.pushed == n

    def test_drop_mode_under_slow_consumer(self):
        buf = CircularBuffer(16)
        n = 5_000
        received = []

        def producer():
            for i in range(n):
                buf.push(i)  # never retries: drops when full

        t = threading.Thread(target=producer)
        t.start()
        while t.is_alive() or len(buf) != 0:
            item = buf.pop()
            if item is not None:
                received.append(item)
        t.join()
        # Whatever made it through must still be in order.
        assert received == sorted(received)
        assert len(received) + buf.dropped == n
