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
a real producer thread and a real consumer thread.)  One ring has one
producer: the data-collection hook of one I/O path.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional

from .atomics import AtomicInt

__all__ = ["CircularBuffer"]


class CircularBuffer:
    """Bounded SPSC FIFO with drop-on-full semantics.

    ``capacity`` is the number of usable slots.  ``push`` never blocks:
    if the consumer has fallen behind, the sample is dropped and
    ``dropped`` increments, exactly the failure mode the paper warns
    about when the training thread is not scheduled often enough.
    """

    HOOK_SLOTS = {"buffer.push": "_push_hook"}

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        # One slot is sacrificed to distinguish full from empty.
        self._slots: List[Optional[Any]] = [None] * (capacity + 1)
        self._capacity = capacity
        self._head = AtomicInt(0)  # next write position (producer-owned)
        self._tail = AtomicInt(0)  # next read position (consumer-owned)
        self._dropped = AtomicInt(0)
        self._pushed = AtomicInt(0)
        self._popped = AtomicInt(0)
        # The buffer.push hook (see repro.hooks): times pushes and/or
        # forces drops to simulate overflow pressure.
        self._push_hook = None

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
        if item is None:
            raise ValueError("None cannot be enqueued (it marks emptiness)")
        hook = self._push_hook
        t0 = 0.0
        if hook is not None:
            if hook.rules and hook.fire() is not None:
                # Injected overflow pressure: the sample is rejected
                # exactly as if the ring were full, and counted the same.
                self._dropped.fetch_add(1)
                return False
            hook.calls = n = hook.calls + 1
            if not n & hook.mask:
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
            hook.hist.observe(time.perf_counter() - t0)
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
