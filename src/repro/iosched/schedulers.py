"""I/O schedulers: noop, deadline, and elevator (C-SCAN).

Simplified but faithful versions of the Linux single-queue schedulers:

- **noop** -- FIFO; right answer when seeking is free (NVMe).
- **deadline** -- requests carry expiry times (reads much tighter than
  writes); dispatch in sector order but jump to the earliest-deadline
  request once it expires.  Protects read latency under write bursts.
- **elevator (C-SCAN)** -- serve in ascending position order, wrapping
  at the top; minimizes head travel on devices with positional cost.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque
from typing import List, Optional

from .requests import IORequest

__all__ = ["Scheduler", "NoopScheduler", "DeadlineScheduler", "ElevatorScheduler",
           "SCHEDULER_NAMES", "make_scheduler"]


class Scheduler:
    """Queue of pending requests with a dispatch policy."""

    name = "scheduler"

    def add(self, request: IORequest) -> None:
        raise NotImplementedError

    def dispatch(self, now: float, head: int) -> Optional[IORequest]:
        """Pick the next request to serve (None if queue empty)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class NoopScheduler(Scheduler):
    """FIFO dispatch."""

    name = "noop"

    def __init__(self):
        self._queue = deque()

    def add(self, request: IORequest) -> None:
        self._queue.append(request)

    def dispatch(self, now: float, head: int) -> Optional[IORequest]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class DeadlineScheduler(Scheduler):
    """Sector-sorted dispatch with read/write deadlines.

    Reads expire after ``read_deadline`` (default 50 ms), writes after
    ``write_deadline`` (default 1 s), mirroring Linux mq-deadline's
    500 ms / 5 s intent at our simulation's faster timescale.
    """

    name = "deadline"

    def __init__(self, read_deadline: float = 0.050, write_deadline: float = 1.0):
        if read_deadline <= 0 or write_deadline <= 0:
            raise ValueError("deadlines must be positive")
        self.read_deadline = read_deadline
        self.write_deadline = write_deadline
        self._by_sector: List[tuple] = []      # (sector, id, request)
        self._by_deadline: List[tuple] = []    # (expiry, id, request)
        self._done = set()

    def add(self, request: IORequest) -> None:
        expiry = request.arrival + (
            self.read_deadline if request.is_read else self.write_deadline
        )
        insort(self._by_sector, (request.sector, request.request_id, request))
        heapq.heappush(
            self._by_deadline, (expiry, request.request_id, request)
        )

    def _pop_expired(self, now: float) -> Optional[IORequest]:
        while self._by_deadline:
            expiry, rid, request = self._by_deadline[0]
            if rid in self._done:
                heapq.heappop(self._by_deadline)
                continue
            if expiry <= now:
                heapq.heappop(self._by_deadline)
                return request
            return None
        return None

    def dispatch(self, now: float, head: int) -> Optional[IORequest]:
        if not len(self):
            return None
        request = self._pop_expired(now)
        if request is None:
            # No expiry pressure: serve in ascending sector order from
            # the head position (one-way scan with wrap).
            request = self._by_sector[_scan_from(self._by_sector, head)][2]
        self._done.add(request.request_id)
        key = (request.sector, request.request_id)
        del self._by_sector[bisect_left(self._by_sector, key)]
        return request

    def __len__(self) -> int:
        return len(self._by_sector)


class ElevatorScheduler(Scheduler):
    """C-SCAN: ascending sector order, wrap at the end."""

    name = "elevator"

    def __init__(self):
        self._by_sector: List[tuple] = []

    def add(self, request: IORequest) -> None:
        insort(self._by_sector, (request.sector, request.request_id, request))

    def dispatch(self, now: float, head: int) -> Optional[IORequest]:
        if not self._by_sector:
            return None
        return self._by_sector.pop(_scan_from(self._by_sector, head))[2]

    def __len__(self) -> int:
        return len(self._by_sector)


def _scan_from(by_sector: List[tuple], head: int) -> int:
    """Index of the first ``(sector, id, request)`` at or past ``head``,
    wrapping to 0 past the last (a one-way scan)."""
    index = bisect_left(by_sector, (head,))
    return index if index < len(by_sector) else 0


_SCHEDULERS = {
    s.name: s for s in (NoopScheduler, DeadlineScheduler, ElevatorScheduler)
}
SCHEDULER_NAMES = tuple(_SCHEDULERS)


def make_scheduler(name: str) -> Scheduler:
    try:
        return _SCHEDULERS[name]()
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}") from None
