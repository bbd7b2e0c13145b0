"""Tracepoint trace files: record online, train offline.

The paper's deployed model was trained *offline*: "We collected
training data from the Linux kernel using LTTng tracepoints ... We then
investigated the collected traces" (section 4), and only afterwards was
the model saved and loaded into the kernel.  This module is that
pipeline stage: a compact binary trace format (`.ktrace`) capturing the
tracepoint stream, and offline feature extraction that turns saved
traces into labeled datasets identical to what online collection
produces.

Record layout (little-endian), after a header with a name table:

    u8 name_id | f64 timestamp | u64 a | u64 b | u64 c

Field mapping per tracepoint:

    add_to_page_cache / mark_page_accessed / writeback_dirty_page:
        a=ino, b=page, c=0
    readahead:  a=ino, b=start, c=(count << 1) | is_async
    block_ra_set: a=0, b=value, c=0
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..os_sim.stack import StorageStack, make_stack
from ..os_sim.tracepoints import STANDARD_TRACEPOINTS, TraceEvent
from .dataset import Dataset
from .features import FeatureCollector

__all__ = ["TraceWriter", "read_trace", "dataset_from_traces"]

MAGIC = b"KTRC"
VERSION = 1
_RECORD = struct.Struct("<BdQQQ")


def _encode_fields(name: str, fields: dict) -> Tuple[int, int, int]:
    if name in ("add_to_page_cache", "mark_page_accessed", "writeback_dirty_page"):
        return fields["ino"], fields["page"], 0
    if name == "readahead":
        packed = (fields["count"] << 1) | int(bool(fields["is_async"]))
        return fields["ino"], fields["start"], packed
    if name == "block_ra_set":
        return 0, fields["value"], 0
    raise ValueError(f"cannot encode tracepoint {name!r}")


def _decode_fields(name: str, a: int, b: int, c: int) -> dict:
    if name in ("add_to_page_cache", "mark_page_accessed", "writeback_dirty_page"):
        return {"ino": a, "page": b}
    if name == "readahead":
        return {"ino": a, "start": b, "count": c >> 1, "is_async": bool(c & 1)}
    if name == "block_ra_set":
        return {"value": b}
    raise ValueError(f"cannot decode tracepoint {name!r}")


class TraceWriter:
    """Subscribes to every standard tracepoint and streams records.

    Usage::

        with TraceWriter(stack, "run.ktrace"):
            ... run the workload ...
    """

    def __init__(self, stack: StorageStack, path: str):
        self.stack = stack
        self.path = path
        self._file = open(path, "wb")
        self._names: List[str] = list(STANDARD_TRACEPOINTS)
        self._name_ids = {name: i for i, name in enumerate(self._names)}
        header = [MAGIC, struct.pack("<BB", VERSION, len(self._names))]
        for name in self._names:
            raw = name.encode("ascii")
            header.append(struct.pack("<B", len(raw)))
            header.append(raw)
        self._file.write(b"".join(header))
        self.records_written = 0
        self._attached = False
        self.attach()

    def attach(self) -> None:
        if self._attached:
            return
        for name in self._names:
            self.stack.tracepoints.subscribe(name, self._on_event)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        for name in self._names:
            self.stack.tracepoints.unsubscribe(name, self._on_event)
        self._attached = False

    def _on_event(self, event: TraceEvent) -> None:
        a, b, c = _encode_fields(event.name, event.fields)
        self._file.write(
            _RECORD.pack(self._name_ids[event.name], event.timestamp, a, b, c)
        )
        self.records_written += 1

    def close(self) -> None:
        self.detach()
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str) -> Iterator[TraceEvent]:
    """Stream TraceEvents back out of a ``.ktrace`` file."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a KTRC trace (magic {magic!r})")

        def header(size: int) -> bytes:
            raw = f.read(size)
            if len(raw) != size:
                raise ValueError(f"{path}: truncated header")
            return raw

        version, n_names = header(2)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported trace version {version}")
        names = []
        for _ in range(n_names):
            (length,) = header(1)
            names.append(header(length).decode("ascii"))
        while True:
            raw = f.read(_RECORD.size)
            if not raw:
                break
            if len(raw) != _RECORD.size:
                raise ValueError(f"{path}: truncated record at EOF")
            name_id, timestamp, a, b, c = _RECORD.unpack(raw)
            if name_id >= len(names):
                raise ValueError(f"{path}: unknown tracepoint id {name_id}")
            name = names[name_id]
            yield TraceEvent(name, timestamp, _decode_fields(name, a, b, c))


def dataset_from_traces(
    labeled_traces: Sequence[Tuple[str, int]],
    window_s: float = 0.1,
    skip_first_windows: int = 1,
) -> Dataset:
    """Offline feature extraction: trace files -> labeled dataset.

    Replays each trace through a fresh :class:`FeatureCollector` on a
    throwaway stack, cutting a feature window whenever the recorded
    timestamps cross a ``window_s`` boundary -- the same feature
    definitions online collection uses, which is the property that
    makes offline training deployable (section 3.3).
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    xs: List[np.ndarray] = []
    ys: List[int] = []
    for path, label in labeled_traces:
        stack = make_stack("nvme")  # dummy: only carries registry + knob
        collector = FeatureCollector(stack)
        samples: List[np.ndarray] = []
        next_cut: Optional[float] = None
        for event in read_trace(path):
            if next_cut is None:
                next_cut = event.timestamp + window_s
            while event.timestamp >= next_cut:
                samples.append(collector.snapshot())
                next_cut += window_s
            if event.name == "block_ra_set":
                stack.block.ioctl_blkraset(event.fields["value"])
            else:
                stack.tracepoints.emit(
                    event.name, event.timestamp, **event.fields
                )
        collector.detach()
        kept = samples[skip_first_windows:]
        xs.extend(kept)
        ys.extend([label] * len(kept))
    if not xs:
        raise RuntimeError("traces produced no complete windows")
    return Dataset(np.vstack(xs), np.asarray(ys, dtype=np.int64))
