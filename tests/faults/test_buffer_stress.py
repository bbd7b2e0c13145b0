"""Concurrency stress for the circular buffer: push storms.

One producer thread pushes while one consumer thread drains, the SPSC
contract of the ring.  The invariants under that race:

- no sample is lost: every accepted (push -> True) sample is either
  still queued or was drained, exactly once;
- no sample is duplicated;
- accounting closes: attempts == pushed + dropped, and the same numbers
  are visible through the ``repro.obs`` registry counters.
"""

import threading

import pytest

from repro.faults import FaultKind, FaultPlane
from repro.obs import MetricsRegistry
from repro.obs.instrument import instrument_buffer
from repro.runtime.circular_buffer import CircularBuffer


def run_storm(buf, attempts, drain=True):
    """Push ``attempts`` items from one producer thread into ``buf``
    while one consumer thread drains it."""
    accepted = []
    done = threading.Event()
    consumed = []

    def produce():
        for item in range(attempts):
            if buf.push(item):
                accepted.append(item)

    def consume():
        while not done.is_set() or len(buf) != 0:
            item = buf.pop()
            if item is not None:
                consumed.append(item)

    consumer = threading.Thread(target=consume)
    producer = threading.Thread(target=produce)
    if drain:
        consumer.start()
    producer.start()
    producer.join()
    done.set()
    if drain:
        consumer.join()
    return accepted, consumed


def check_invariants(buf, accepted, consumed, attempts):
    assert len(consumed) == len(set(consumed)), "duplicated samples"
    assert set(consumed) == set(accepted), "lost or fabricated samples"
    assert buf.pushed == len(accepted)
    assert buf.popped == len(consumed)
    assert buf.pushed + buf.dropped == attempts
    assert len(buf) == 0


class TestStorm:
    def test_storm_loses_and_duplicates_nothing(self):
        buf = CircularBuffer(64)
        accepted, consumed = run_storm(buf, attempts=8000)
        check_invariants(buf, accepted, consumed, attempts=8000)

    def test_overflow_accounting_matches_obs_counters(self):
        buf = CircularBuffer(16)
        registry = MetricsRegistry()
        metrics = instrument_buffer(buf, registry)
        accepted, consumed = run_storm(buf, attempts=4000)
        check_invariants(buf, accepted, consumed, attempts=4000)
        assert metrics["pushed"].value == float(buf.pushed)
        assert metrics["dropped"].value == float(buf.dropped)
        assert metrics["popped"].value == float(buf.popped)
        assert metrics["occupancy"].value == 0.0

    def test_injected_drops_count_with_natural_overflow(self):
        buf = CircularBuffer(8)
        plane = FaultPlane(seed=2).inject(
            "buffer.push", FaultKind.DROP, probability=0.25
        )
        plane.attach(buf)
        accepted, consumed = run_storm(buf, attempts=2000)
        check_invariants(buf, accepted, consumed, attempts=2000)
        forced = plane.injection_counts().get(("buffer.push", "drop"), 0)
        assert forced > 0
        assert buf.dropped >= forced  # natural overflow adds to it

    def test_no_consumer_fills_then_drops(self):
        buf = CircularBuffer(32)
        accepted, _ = run_storm(buf, attempts=400, drain=False)
        assert len(accepted) == 32
        assert buf.dropped == 400 - 32
        assert len(buf.drain(max_items=32)) == 32


@pytest.mark.stress
class TestBigStorm:
    def test_sustained_contention(self):
        buf = CircularBuffer(128)
        registry = MetricsRegistry()
        metrics = instrument_buffer(buf, registry)
        accepted, consumed = run_storm(buf, attempts=160_000)
        check_invariants(buf, accepted, consumed, attempts=160_000)
        assert metrics["pushed"].value == float(buf.pushed)
        assert metrics["dropped"].value == float(buf.dropped)
