"""Leveled logging behind the portability layer.

Kernel KML logs through ``printk``; user-space KML through stdio.  The
development API hides that difference.  Here every record goes to a
bounded in-memory ring, like the kernel's log buffer (printing from a
simulated kernel would be noise).
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Deque, Tuple

__all__ = ["LogLevel", "KmlLogger"]

#: Records the ring keeps; the oldest are discarded first.
LOG_CAPACITY = 10_000


class LogLevel(enum.IntEnum):
    DEBUG = 0
    INFO = 1
    WARN = 2
    ERR = 3


class KmlLogger:
    """Thread-safe logger with a minimum level and a bounded ring."""

    def __init__(self, level: LogLevel = LogLevel.INFO):
        self.level = level
        # deque(maxlen=...) evicts the oldest record in O(1); a plain
        # list's pop(0) is O(n) per log once at capacity.
        self._records: Deque[Tuple[float, LogLevel, str]] = deque(
            maxlen=LOG_CAPACITY
        )
        self._lock = threading.Lock()

    def log(self, level: LogLevel, message: str) -> None:
        if level < self.level:
            return
        with self._lock:
            # Oldest records are discarded first (ring semantics).
            self._records.append((time.time(), level, message))

    def debug(self, message: str) -> None:
        self.log(LogLevel.DEBUG, message)

    def info(self, message: str) -> None:
        self.log(LogLevel.INFO, message)

    def warn(self, message: str) -> None:
        self.log(LogLevel.WARN, message)

    def err(self, message: str) -> None:
        self.log(LogLevel.ERR, message)

    def records(self):
        """Snapshot of buffered ``(time, level, message)`` records."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
