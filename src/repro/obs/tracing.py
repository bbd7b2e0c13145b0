"""Span tracing on the monotonic clock.

:class:`Tracer` produces nested :class:`Span` records: per-thread span
stacks give parent/child causality, ``time.perf_counter`` gives
monotonic timing, and finished spans land in a bounded ring (old spans
are evicted, never the hot path blocked).  ``repro run`` records each
agent tick of the closed loop as one span.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region: identity, causality, tags, and duration."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "tags",
                 "start", "end")

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        tags: Dict[str, Any],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.tags = tags
        self.start = 0.0
        self.end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Seconds on the monotonic clock; ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        dur = f"{self.duration * 1e6:.1f}us" if self.end is not None else "open"
        return f"Span({self.name!r}, trace={self.trace_id}, {dur})"


class Tracer:
    """Nested span context managers over a bounded finished-span ring."""

    def __init__(self, max_spans: int = 1024):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self._finished: deque = deque(maxlen=max_spans)
        self._local = threading.local()
        self._ids = itertools.count(1)  # C-level, GIL-atomic
        self._lock = threading.Lock()
        self.spans_started = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **tags: Any):
        """Open a span; nests under this thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        sp = Span(
            name,
            trace_id=parent.trace_id if parent else span_id,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            tags=tags,
        )
        with self._lock:
            self.spans_started += 1
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._finished.append(sp)

    def active(self) -> Optional[Span]:
        """This thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished(self) -> List[Span]:
        """Snapshot of the finished-span ring, oldest first."""
        with self._lock:
            return list(self._finished)

    def trace(self, trace_id: int) -> List[Span]:
        """Finished spans belonging to one trace, oldest first."""
        return [s for s in self.finished() if s.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

