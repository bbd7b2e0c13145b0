"""Golden test: the simulator's observable behaviour, pinned bit for bit.

The simulator runs in simulated time, so a run is a pure function of its
inputs.  This test pins what a performance refactor of the storage stack
must not move:

- every Table-2 workload on both devices, at smoke scale with a
  FeatureCollector attached: simulated throughput, ``CacheStats``,
  ``DeviceStats``, tracepoint hit counts and subscriber errors, and the
  SHA-256 of the per-window feature vectors (all eight candidates, as
  float64 bytes);
- one readrandom run with a TraceWriter attached: the SHA-256 of the
  ``.ktrace`` bytes, and of the feature windows.  The TraceWriter has
  no page-batch form, so the collector here folds every page one
  event at a time;
- tiny-cache page-cache scenarios (a window larger than the cache, dirty
  pages evicted in the middle of a window, async windows issued on a
  hit): the full tracepoint event stream, the order of device requests
  and ``CacheStats``.

Regenerate the fixture only for a change that is meant to move the
simulator, and say so in the change description:

    PYTHONPATH=src python tests/integration/test_sim_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.minikv import DBOptions, MiniKV
from repro.obs import MetricsRegistry
from repro.obs.instrument import instrument_tracepoints
from repro.os_sim import make_stack
from repro.os_sim.readahead import ReadaheadState
from repro.os_sim.tracepoints import STANDARD_TRACEPOINTS
from repro.readahead import FeatureCollector
from repro.readahead.trace import TraceWriter
from repro.workloads import populate_db, run_workload, workload_by_name

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sim_golden.json")

WORKLOADS = (
    "readseq",
    "readrandom",
    "readreverse",
    "readrandomwriterandom",
    "updaterandom",
    "mixgraph",
)
DEVICES = ("nvme", "ssd")

NUM_KEYS = 2000
VALUE_SIZE = 200
CACHE_PAGES = 96
MEMTABLE_BYTES = 64 << 10  # small, so the write workloads flush and compact
N_OPS = 1500
WINDOW_S = 0.001
RA_CYCLE = (128, 16, 64)  # readahead set at each window boundary, in turn

INO = 1
FILE_PAGES = 100_000

#: Tiny-cache scenarios: capacity, dirty threshold, and steps: ("r",
#: page, readahead) reads a page, ("w", page) writes one.
EDGE_SCENARIOS = {
    # Sequential windows ramp past the 4-page capacity; random misses
    # at readahead 128 then insert 16-page windows into it.
    "window_larger_than_cache": dict(
        capacity=4,
        dirty_threshold=0.10,
        steps=[("r", p, 32) for p in range(12)]
        + [("r", p, 128) for p in (500, 900, 300)],
    ),
    # Dirty pages sit at the LRU head, so each page a window inserts
    # evicts one of them: writebacks interleave with the window's adds.
    "dirty_evicted_mid_window": dict(
        capacity=8,
        dirty_threshold=1.0,
        steps=[("w", p) for p in range(100, 106)]
        + [("r", 0, 64), ("w", 200), ("w", 201), ("r", 1, 64), ("r", 50, 64)]
        + [("w", p) for p in range(300, 304)]
        + [("r", p, 16) for p in range(51, 71)],
    ),
    # A sequential stream: windows past the first are issued
    # asynchronously on hits, and evict dirty pages as they go.
    "async_window_on_hit": dict(
        capacity=16,
        dirty_threshold=1.0,
        steps=[("w", p) for p in range(900, 910)] + [("r", p, 16) for p in range(41)],
    ),
}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _build(device: str):
    stack = make_stack(device, cache_pages=CACHE_PAGES, ra_pages=RA_CYCLE[0])
    db = MiniKV(stack, DBOptions(memtable_bytes=MEMTABLE_BYTES))
    populate_db(db, NUM_KEYS, VALUE_SIZE, np.random.default_rng(7))
    stack.drop_caches()
    return stack, db


def _run(stack, db, workload: str, on_tick):
    return run_workload(
        stack,
        db,
        workload_by_name(workload, NUM_KEYS, VALUE_SIZE),
        n_ops=N_OPS,
        rng=np.random.default_rng(11),
        tick_interval=WINDOW_S,
        on_tick=on_tick,
    )


def run_workload_golden(workload: str, device: str) -> dict:
    stack, db = _build(device)
    collector = FeatureCollector(stack)
    collector.reset()
    windows = []

    def on_tick(t: float, rate: float) -> None:
        windows.append(collector.snapshot_all())
        stack.set_readahead(RA_CYCLE[len(windows) % len(RA_CYCLE)])

    result = _run(stack, db, workload, on_tick)
    windows.append(collector.snapshot_all())
    features = np.asarray(windows, dtype=np.float64)
    return {
        "ops": result.ops,
        "throughput": result.throughput,
        "cache": dataclasses.asdict(stack.cache.stats),
        "device": dataclasses.asdict(stack.device.stats),
        "hit_counts": dict(stack.tracepoints.hit_counts),
        "subscriber_errors": stack.tracepoints.subscriber_errors,
        "windows": len(windows),
        "features_sha256": _sha256(features.tobytes()),
    }


def run_ktrace_golden(path: str) -> dict:
    stack, db = _build("nvme")
    collector = FeatureCollector(stack)
    collector.reset()
    windows = []
    with TraceWriter(stack, path) as writer:
        result = _run(
            stack, db, "readrandom", lambda t, rate: windows.append(collector.snapshot_all())
        )
    windows.append(collector.snapshot_all())
    with open(path, "rb") as f:
        raw = f.read()
    return {
        "ops": result.ops,
        "records": writer.records_written,
        "ktrace_sha256": _sha256(raw),
        "features_sha256": _sha256(np.asarray(windows, dtype=np.float64).tobytes()),
    }


class EventRecorder:
    """Every standard tracepoint as ``[name, timestamp, fields]``.

    With ``batches`` it also registers a page-batch form, so that page
    batches reach it whole and it expands them itself.
    """

    def __init__(self, tracepoints, batches: bool = False):
        self.events = []
        self.batch_calls = 0
        pages = self._on_pages if batches else None
        for name in STANDARD_TRACEPOINTS:
            tracepoints.subscribe(name, self._on_event, pages=pages)

    def _on_event(self, event) -> None:
        self.events.append([event.name, event.timestamp, dict(event.fields)])

    def _on_pages(self, name, timestamp, ino, pages) -> None:
        self.batch_calls += 1
        for page in pages:
            self.events.append([name, timestamp, {"ino": ino, "page": page}])


def run_edge_scenario(name: str, observe=None):
    """Run one tiny-cache scenario on a page cache with no DB above it.

    ``observe(stack)`` attaches the subscribers and returns the object
    the caller inspects; the default records the event stream.  Returns
    the pinned record and that object.
    """
    spec = EDGE_SCENARIOS[name]
    stack = make_stack("nvme", cache_pages=spec["capacity"])
    cache = stack.cache
    cache.dirty_threshold = spec["dirty_threshold"]
    submits = []
    submit = stack.device.submit

    def logged_submit(clock, n_pages, is_write=False):
        done = submit(clock, n_pages, is_write=is_write)
        submits.append([n_pages, is_write, done])
        return done

    stack.device.submit = logged_submit
    observer = (observe or (lambda s: EventRecorder(s.tracepoints)))(stack)
    state = ReadaheadState()
    for op, page, *ra in spec["steps"]:
        if op == "w":
            cache.write_page(INO, page)
        else:
            cache.read_page(INO, page, state, ra[0], FILE_PAGES)
    out = {
        "cache": dataclasses.asdict(cache.stats),
        "device_submits": submits,
        "hit_counts": dict(stack.tracepoints.hit_counts),
    }
    if isinstance(observer, EventRecorder):
        out["events"] = observer.events
    return out, observer


def to_json(value, depth: int = 0) -> str:
    """JSON with one line per event, device request or flat record."""
    pad = "\n" + " " * (depth + 1)
    end = "\n" + " " * depth
    if isinstance(value, dict) and any(isinstance(v, (dict, list)) for v in value.values()):
        items = [f"{json.dumps(k)}: {to_json(value[k], depth + 1)}" for k in sorted(value)]
        return "{" + pad + ("," + pad).join(items) + end + "}"
    if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        return "[" + pad + ("," + pad).join(json.dumps(v) for v in value) + end + "]"
    return json.dumps(value, sort_keys=True)


def generate() -> dict:
    import tempfile

    workloads = {
        f"{workload}/{device}": run_workload_golden(workload, device)
        for workload in WORKLOADS
        for device in DEVICES
    }
    with tempfile.TemporaryDirectory() as tmp:
        ktrace = run_ktrace_golden(os.path.join(tmp, "run.ktrace"))
    edges = {name: run_edge_scenario(name)[0] for name in EDGE_SCENARIOS}
    return {"workloads": workloads, "ktrace": ktrace, "page_cache": edges}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_golden(golden, workload, device):
    assert run_workload_golden(workload, device) == golden["workloads"][f"{workload}/{device}"]


def test_ktrace_bytes_match_golden(golden, tmp_path):
    assert run_ktrace_golden(str(tmp_path / "run.ktrace")) == golden["ktrace"]


@pytest.mark.parametrize("scenario", sorted(EDGE_SCENARIOS))
def test_page_cache_event_stream_matches_golden(golden, scenario):
    out, _ = run_edge_scenario(scenario)
    assert out == golden["page_cache"][scenario]


@pytest.mark.parametrize("scenario", sorted(EDGE_SCENARIOS))
def test_page_batches_expand_to_golden_stream(golden, scenario):
    """A batch subscriber sees the per-event stream, in the same order."""
    out, recorder = run_edge_scenario(
        scenario, lambda stack: EventRecorder(stack.tracepoints, batches=True)
    )
    assert out == golden["page_cache"][scenario]
    adds = out["hit_counts"]["add_to_page_cache"]
    assert 0 < recorder.batch_calls < adds


@pytest.mark.parametrize("scenario", sorted(EDGE_SCENARIOS))
def test_instrumented_collector_observes_every_event(golden, scenario):
    """With obs attached, each dispatched event is one latency sample."""
    expected = golden["page_cache"][scenario]
    metrics = {}

    def observe(stack):
        metrics.update(instrument_tracepoints(stack.tracepoints, MetricsRegistry()))
        return FeatureCollector(stack)

    out, collector = run_edge_scenario(scenario, observe)
    watched = ("add_to_page_cache", "mark_page_accessed", "writeback_dirty_page")
    dispatched = sum(1 for event in expected["events"] if event[0] in watched)
    assert dispatched > 0
    assert metrics["hook_latency"].count == dispatched
    assert collector.events_seen == dispatched
    assert out["cache"] == expected["cache"]
    assert out["device_submits"] == expected["device_submits"]
    assert out["hit_counts"] == expected["hit_counts"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with open(FIXTURE, "w") as f:
        f.write(to_json(generate()) + "\n")
    print(f"wrote {FIXTURE}")
