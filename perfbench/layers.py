"""The traced boundaries -- which public function of which layer each span
wraps -- and the per-layer report built from the spans.

The layers are this repository's modules: ``workloads`` (the driver's
op: ``run_workload`` and the workload's ``step``), ``minikv``,
``os_sim`` (vfs, page cache, device, tracepoints), ``readahead`` (the
collector and the agent), ``kml`` and ``runtime``.  The ``obs``,
``faults`` and ``serve`` planes stay detached, as in a default run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.kml.layers import Linear, Sigmoid
from repro.kml.network import Sequential
from repro.minikv.bloom import BloomFilter
from repro.minikv.db import MiniKV
from repro.minikv.sstable import SSTableReader
from repro.minikv.wal import WriteAheadLog
from repro.os_sim.device import DeviceModel
from repro.os_sim.page_cache import PageCache
from repro.os_sim.tracepoints import TracepointRegistry
from repro.os_sim.vfs import SimFS
from repro.readahead.agent import ReadaheadAgent
from repro.readahead.features import FeatureCollector
from repro.runtime.circular_buffer import CircularBuffer

from .spans import Tracer, nesting_errors, self_times

#: (span name, owner class, method) of the boundaries wrapped as they are.
#: The collector's two tracepoint subscribers are its hook functions.
BOUNDARIES = (
    ("minikv.get", MiniKV, "get"),
    ("minikv.put", MiniKV, "put"),
    ("minikv.sstable_get", SSTableReader, "get"),
    ("minikv.wal_append", WriteAheadLog, "append"),
    ("os_sim.vfs_read", SimFS, "read"),
    ("os_sim.vfs_write", SimFS, "write"),
    ("os_sim.read_page", PageCache, "read_page"),
    ("os_sim.write_page", PageCache, "write_page"),
    ("os_sim.device_submit", DeviceModel, "submit"),
    ("os_sim.emit", TracepointRegistry, "emit"),
    ("readahead.collector_hook", FeatureCollector, "_on_offset_event"),
    ("readahead.collector_hook", FeatureCollector, "_on_count_event"),
    ("readahead.snapshot", FeatureCollector, "snapshot"),
    ("readahead.agent_tick", ReadaheadAgent, "on_tick"),
    ("kml.predict", Sequential, "predict"),
    ("kml.infer.Linear", Linear, "infer"),
    ("kml.infer.Sigmoid", Sigmoid, "infer"),
    ("kml.train_step", Sequential, "train_step"),
    ("kml.fit", Sequential, "fit"),
    ("runtime.buffer_push", CircularBuffer, "push"),
    ("runtime.buffer_pop", CircularBuffer, "pop"),
)

#: Every span name of the per-layer report, in report order.
SPAN_NAMES = (
    "workloads.step",
    "minikv.get",
    "minikv.put",
    "minikv.scan_next",
    "minikv.sstable_get",
    "minikv.bloom_probe",
    "minikv.wal_append",
    "os_sim.vfs_read",
    "os_sim.vfs_write",
    "os_sim.read_page",
    "os_sim.write_page",
    "os_sim.device_submit",
    "os_sim.emit",
    "readahead.collector_hook",
    "readahead.snapshot",
    "readahead.agent_tick",
    "kml.predict",
    "kml.infer.Linear",
    "kml.infer.Sigmoid",
    "kml.train_step",
    "kml.fit",
    "runtime.buffer_push",
    "runtime.buffer_pop",
)


class _SpannedScan:
    """A minikv scan iterator whose every ``next`` is a span."""

    __slots__ = ("_next",)

    def __init__(self, next_fn):
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class Instrumented:
    """Context manager: every boundary is wrapped while inside.

    ``step_owner`` is the class whose ``step`` is the driver's op.  The
    bloom probe also counts the keys it rejects.  A FeatureCollector
    subscribes bound hook methods when it attaches, so detach it before
    entering and attach it again inside to route its hooks through the
    spans (and detach it again before leaving).
    """

    def __init__(self, tracer: Tracer, step_owner: type):
        self.tracer = tracer
        self.step_owner = step_owner
        self.bloom_rejects = 0

    def __enter__(self) -> "Instrumented":
        tracer = self.tracer
        for name, owner, attr in BOUNDARIES:
            tracer.patch(owner, attr, name)
        tracer.patch(self.step_owner, "step", "workloads.step")
        probe = BloomFilter.__dict__["may_contain"]

        def may_contain(bloom, key):
            present = probe(bloom, key)
            if not present:
                self.bloom_rejects += 1
            return present

        tracer.patch(BloomFilter, "may_contain", "minikv.bloom_probe", may_contain)
        scan = MiniKV.__dict__["scan"]

        def spanned_scan(db, start_key=None):
            records = scan(db, start_key)
            return _SpannedScan(tracer.wrap("minikv.scan_next", records.__next__))

        tracer.replace(MiniKV, "scan", spanned_scan)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.restore()


@dataclass
class SpanReport:
    """Calls and self time per span name, the split of the time spent
    inside ``workloads.step`` across layers, and the spans that do not
    nest (see :func:`nesting_errors`)."""

    calls: Dict[str, int]
    self_s: Dict[str, float]
    step_total_ns: int
    step_layer_ns: Dict[str, int]
    nesting_errors: int

    def metrics(self) -> Dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every span name."""
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        return out

    def lines(self) -> List[str]:
        total = self.step_total_ns
        out = [f"  self time inside workloads.step, by layer (total {total / 1e9:.4f} s):"]
        for layer, ns in sorted(self.step_layer_ns.items(), key=lambda item: -item[1]):
            share = ns / total if total else 0.0
            out.append(f"    {layer:<10} {ns / 1e9:10.4f} s {share:7.1%}")
        return out


def span_report(tracer: Tracer) -> SpanReport:
    spans = tracer.arrays()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    names = tracer.names
    ids = spans["name"]
    calls = np.bincount(ids, minlength=len(names))
    own_total = np.bincount(ids, weights=own, minlength=len(names))
    root = spans["parent"] < 0
    root_ids = ids[root][spans["op"]]  # name of each span's root
    step = names.index("workloads.step") if "workloads.step" in names else -1
    in_step = root_ids == step
    duration = spans["end"] - spans["start"]
    layer_ns: Dict[str, int] = {}
    for index, name in enumerate(names):
        layer = name.split(".")[0]
        ns = int(own[in_step & (ids == index)].sum())
        layer_ns[layer] = layer_ns.get(layer, 0) + ns
    return SpanReport(
        calls={name: int(calls[i]) for i, name in enumerate(names)},
        self_s={name: float(own_total[i]) / 1e9 for i, name in enumerate(names)},
        step_total_ns=int(duration[root & (ids == step)].sum()),
        step_layer_ns=layer_ns,
        nesting_errors=nesting_errors(spans["start"], spans["end"], spans["parent"]),
    )
