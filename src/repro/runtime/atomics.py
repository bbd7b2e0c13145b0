"""Atomic primitives used by the lock-free data structures.

Kernel KML uses CPU atomics; in CPython the GIL already makes single
bytecode reads/writes atomic, but we wrap them behind the same API the
kernel code would use so the algorithms read identically and so the
semantics (sequentially consistent read-modify-write) are explicit and
testable under real threads.
"""

from __future__ import annotations

import threading

__all__ = ["AtomicInt"]


class AtomicInt:
    """A 64-bit-style atomic integer: load/store/add/CAS."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: int = 0):
        self._value = int(value)
        self._lock = threading.Lock()

    def load(self) -> int:
        return self._value

    def store(self, value: int) -> None:
        with self._lock:
            self._value = int(value)

    def fetch_add(self, delta: int = 1) -> int:
        """Atomically add; returns the *previous* value."""
        with self._lock:
            old = self._value
            self._value = old + delta
            return old

    def add_fetch(self, delta: int = 1) -> int:
        """Atomically add; returns the *new* value."""
        return self.fetch_add(delta) + delta

    def compare_exchange(self, expected: int, desired: int) -> bool:
        """CAS: set to ``desired`` iff currently ``expected``."""
        with self._lock:
            if self._value == expected:
                self._value = int(desired)
                return True
            return False

    def __repr__(self) -> str:
        return f"AtomicInt({self._value})"
