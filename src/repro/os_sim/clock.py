"""Simulated time base for the storage stack.

The reproduction replaces real hardware with a discrete-event model, so
time is a number we advance, not something we wait for.  All latencies
in :mod:`repro.os_sim` are expressed in simulated seconds on this
clock; throughput numbers (ops/sec) in the benchmarks are computed from
it, which is what lets a laptop reproduce the *shape* of NVMe-vs-SSD
results.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """Monotonic simulated clock with explicit advancement."""

    __slots__ = ("_now",)

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds (never backward)."""
        if dt < 0:
            raise ValueError(f"cannot advance by negative dt {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance to an absolute time; no-op if ``t`` is in the past."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.9f})"
