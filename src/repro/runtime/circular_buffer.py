"""Lock-free SPSC circular buffer between the I/O path and the trainer.

KML decouples data collection (on latency-sensitive I/O paths) from
normalization and training (an async thread) with "a lock-free circular
buffer to process and asynchronously train on input data"; its size is
configurable to cap memory, and samples arriving while the buffer is
full are *dropped and counted* -- losing data degrades accuracy, so the
user must size the buffer against the sampling rate (section 3.1).

This is the classic single-producer/single-consumer ring: the producer
only advances ``_head``, the consumer only advances ``_tail``, and each
index is written with release semantics after the slot is populated, so
no lock is needed.  (Under CPython the GIL provides the fences; the
algorithm is nonetheless the kernel one, and the tests hammer it with
real producer/consumer threads.)
"""

from __future__ import annotations

import threading
import time
from typing import Any, List, Optional

from .atomics import AtomicInt

__all__ = ["CircularBuffer"]


class CircularBuffer:
    """Bounded FIFO with drop-on-full semantics (SPSC by default).

    ``capacity`` is the number of usable slots.  ``push`` never blocks:
    if the consumer has fallen behind, the sample is dropped and
    ``dropped`` increments, exactly the failure mode the paper warns
    about when the training thread is not scheduled often enough.

    ``producers="multi"`` serializes the producer side with a lock (the
    stand-in for the kernel's per-CPU serialization) so several I/O
    paths can share one ring; the consumer side stays lock-free either
    way.  The default ``"single"`` keeps the classic lock-free SPSC
    contract.
    """

    def __init__(self, capacity: int, producers: str = "single"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if producers not in ("single", "multi"):
            raise ValueError("producers must be 'single' or 'multi'")
        # One slot is sacrificed to distinguish full from empty.
        self._slots: List[Optional[Any]] = [None] * (capacity + 1)
        self._capacity = capacity
        self._head = AtomicInt(0)  # next write position (producer-owned)
        self._tail = AtomicInt(0)  # next read position (consumer-owned)
        self._dropped = AtomicInt(0)
        self._pushed = AtomicInt(0)
        self._popped = AtomicInt(0)
        self._push_lock = (
            threading.Lock() if producers == "multi" else None
        )
        # Optional push-latency probe (duck-typed; see repro.obs).  The
        # producer owns its call counter, so plain ints are safe.
        self._obs = None
        # Optional fault-injection site handle (duck-typed; see
        # repro.faults): forces drops to simulate overflow pressure.
        self._fault_push = None

    def attach_obs(self, probe) -> None:
        """Install the push-latency probe (``repro.obs.instrument.Probe``)."""
        self._obs = probe

    def attach_faults(self, plane) -> None:
        """Resolve the ``buffer.push`` injection site from a plane."""
        self._fault_push = plane.site("buffer.push")

    def detach_faults(self) -> None:
        self._fault_push = None

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        """Approximate occupancy (exact when called from either endpoint)."""
        size = self._head.load() - self._tail.load()
        if size < 0:
            size += len(self._slots)
        return size

    @property
    def dropped(self) -> int:
        """Samples rejected because the buffer was full."""
        return self._dropped.load()

    @property
    def pushed(self) -> int:
        return self._pushed.load()

    @property
    def popped(self) -> int:
        return self._popped.load()

    def _next(self, index: int) -> int:
        index += 1
        return 0 if index == len(self._slots) else index

    # ------------------------------------------------------------------

    def push(self, item: Any) -> bool:
        """Producer side: enqueue or drop.  Returns False on drop."""
        lock = self._push_lock
        if lock is None:
            return self._push(item)
        with lock:
            return self._push(item)

    def _push(self, item: Any) -> bool:
        if item is None:
            raise ValueError("None cannot be enqueued (it marks emptiness)")
        fault = self._fault_push
        if fault is not None and fault.fire() is not None:
            # Injected overflow pressure: the sample is rejected exactly
            # as if the ring were full, and accounted the same way.
            self._dropped.fetch_add(1)
            return False
        probe = self._obs
        t0 = 0.0
        if probe is not None:
            probe.calls = n = probe.calls + 1
            if not n & probe.mask:
                t0 = time.perf_counter()
        head = self._head.load()
        nxt = self._next(head)
        if nxt == self._tail.load():
            self._dropped.fetch_add(1)
            return False
        self._slots[head] = item
        self._head.store(nxt)  # publish after the slot is written
        self._pushed.fetch_add(1)
        if t0:
            probe.hist.observe(time.perf_counter() - t0)
        return True

    def pop(self) -> Optional[Any]:
        """Consumer side: dequeue or return None when empty."""
        tail = self._tail.load()
        if tail == self._head.load():
            return None
        item = self._slots[tail]
        self._slots[tail] = None  # let the payload be collected
        self._tail.store(self._next(tail))
        self._popped.fetch_add(1)
        return item

    def drain(self, max_items: Optional[int] = None) -> List[Any]:
        """Consumer side: pop everything currently visible (bounded)."""
        items: List[Any] = []
        limit = max_items if max_items is not None else self._capacity
        for _ in range(limit):
            item = self.pop()
            if item is None:
                break
            items.append(item)
        return items
