"""Spans around layer boundaries, kept in memory, and self-time arithmetic.

The traced pass patches public functions of each layer from outside
(class attributes; nothing under ``src/`` changes).  Each wrapped call
records one span: its name, its start and end (``perf_counter_ns``) and
the span that was open when it started.  A span without a parent opens
a new op, and its descendants share that op id.

A span's *self time* is its duration minus the time its direct child
spans cover.  The self times of an op's spans sum to the duration of its
root span by construction.  They are self times only if the spans nest
as calls on one thread do -- each child inside its parent, siblings one
after another -- which :func:`nesting_errors` checks.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "self_times", "nesting_errors", "op_ids"]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    own = duration.copy()
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    np.subtract.at(own, parent[child], duration[child])
    return own


def nesting_errors(start, end, parent) -> int:
    """Spans, stored in start order, that do not nest as calls on one
    thread: a span that ends before it starts, lies outside its parent,
    or starts before the previous span with the same parent has ended.
    With none, every self time is >= 0."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    bad = end < start
    child = parent >= 0
    outer = parent[child]
    bad[child] |= (start[child] < start[outer]) | (end[child] > end[outer])
    siblings = np.argsort(parent, kind="stable")  # by parent, in start order
    same = parent[siblings[1:]] == parent[siblings[:-1]]
    overlap = start[siblings[1:]] < end[siblings[:-1]]
    bad[siblings[1:][same & overlap]] = True
    return int(bad.sum())


def op_ids(parent) -> np.ndarray:
    """Op id of each span, for spans stored in start order.

    Roots number the ops; every other span starts after its root and
    before the next root, so it takes the id of the last root so far.
    """
    return np.cumsum(np.asarray(parent) < 0) - 1


class Tracer:
    """An in-memory span store and the class patches that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._open: List[int] = []
        self._patches: List[Tuple[type, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        open_spans = self._open
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return spanned

    def replace(self, owner: type, attr: str, fn: Callable) -> None:
        """Set ``owner.attr`` to ``fn`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, fn)

    def patch(
        self, owner: type, attr: str, name: str, fn: Optional[Callable] = None
    ) -> None:
        """Record every call of ``owner.attr`` as a span called ``name``.

        ``fn`` stands in for the wrapped function (default: the
        attribute itself), for boundaries that also count a result.
        """
        self.replace(owner, attr, self.wrap(name, fn or owner.__dict__[attr]))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as arrays: name id, start, end, parent index, op id."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans are still open")
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": parent,
            "op": op_ids(parent),
        }

    def save(self, path: str) -> None:
        """Write the spans and the name table to ``path`` (``.npz``)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
