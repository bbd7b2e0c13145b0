"""Concurrency stress for the circular buffer: multi-producer push storms.

The invariants under contention:

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


def run_storm(buf, producers, items_per_producer, drain=True):
    """Hammer ``buf`` from N producer threads + one draining consumer."""
    accepted = [[] for _ in range(producers)]
    done = threading.Event()
    consumed = []

    def produce(worker):
        for i in range(items_per_producer):
            item = (worker, i)
            if buf.push(item):
                accepted[worker].append(item)

    def consume():
        while not done.is_set() or len(buf) != 0:
            item = buf.pop()
            if item is not None:
                consumed.append(item)

    consumer = threading.Thread(target=consume)
    threads = [
        threading.Thread(target=produce, args=(w,)) for w in range(producers)
    ]
    if drain:
        consumer.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done.set()
    if drain:
        consumer.join()
    return [item for worker in accepted for item in worker], consumed


def check_invariants(buf, accepted, consumed, attempts):
    assert len(consumed) == len(set(consumed)), "duplicated samples"
    assert set(consumed) == set(accepted), "lost or fabricated samples"
    assert buf.pushed == len(accepted)
    assert buf.popped == len(consumed)
    assert buf.pushed + buf.dropped == attempts
    assert len(buf) == 0


class TestMultiProducer:
    def test_storm_loses_and_duplicates_nothing(self):
        buf = CircularBuffer(64, producers="multi")
        accepted, consumed = run_storm(buf, producers=4, items_per_producer=2000)
        check_invariants(buf, accepted, consumed, attempts=4 * 2000)

    def test_overflow_accounting_matches_obs_counters(self):
        buf = CircularBuffer(16, producers="multi")
        registry = MetricsRegistry()
        metrics = instrument_buffer(buf, registry)
        accepted, consumed = run_storm(buf, producers=4, items_per_producer=1000)
        check_invariants(buf, accepted, consumed, attempts=4 * 1000)
        assert metrics["pushed"].value == float(buf.pushed)
        assert metrics["dropped"].value == float(buf.dropped)
        assert metrics["popped"].value == float(buf.popped)
        assert metrics["occupancy"].value == 0.0

    def test_injected_drops_count_with_natural_overflow(self):
        buf = CircularBuffer(8, producers="multi")
        plane = FaultPlane(seed=2).inject(
            "buffer.push", FaultKind.DROP, probability=0.25
        )
        buf.attach_faults(plane)
        accepted, consumed = run_storm(buf, producers=2, items_per_producer=1000)
        check_invariants(buf, accepted, consumed, attempts=2 * 1000)
        forced = plane.injection_counts().get(("buffer.push", "drop"), 0)
        assert forced > 0
        assert buf.dropped >= forced  # natural overflow adds to it

    def test_single_producer_mode_rejects_nothing_new(self):
        # The SPSC contract is unchanged: no lock, same semantics.
        buf = CircularBuffer(8)
        assert buf._push_lock is None
        assert CircularBuffer(8, producers="multi")._push_lock is not None
        with pytest.raises(ValueError):
            CircularBuffer(8, producers="both")

    def test_no_consumer_fills_then_drops(self):
        buf = CircularBuffer(32, producers="multi")
        accepted, _ = run_storm(
            buf, producers=4, items_per_producer=100, drain=False
        )
        assert len(accepted) == 32
        assert buf.dropped == 4 * 100 - 32
        assert len(buf.drain(max_items=32)) == 32


@pytest.mark.stress
class TestBigStorm:
    def test_sustained_contention(self):
        buf = CircularBuffer(128, producers="multi")
        registry = MetricsRegistry()
        metrics = instrument_buffer(buf, registry)
        accepted, consumed = run_storm(
            buf, producers=8, items_per_producer=20_000
        )
        check_invariants(buf, accepted, consumed, attempts=8 * 20_000)
        assert metrics["pushed"].value == float(buf.pushed)
        assert metrics["dropped"].value == float(buf.dropped)
