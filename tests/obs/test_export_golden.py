"""Golden test: every family the ``instrument_*`` functions export.

One registry instruments every component kind (buffer, trainer, memory,
storage stack, minikv, matrix ops, network, faults, supervisor), all with ``sample_mask=0``, and a fixed script drives them.
The Prometheus export must then match ``export_golden.prom`` line by
line.  Only wall-clock values are masked: the ``_bucket`` and ``_sum``
lines of the wall-latency histograms and the two ``*_seconds_total``
estimate counters.  Every ``_count`` and every simulated-time value is
compared exactly.

Regenerate the fixture only for a change that is meant to alter the
export, and say so in the change description:

    PYTHONPATH=src python tests/obs/test_export_golden.py --write
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np

from repro.faults import FaultKind, FaultPlane, InjectedIOError, TrainerSupervisor
from repro.hooks import detach
from repro.kml import matrix, network
from repro.kml.matrix import Matrix
from repro.minikv import DBOptions, MiniKV
from repro.obs import MetricsRegistry, jsonl_lines, prometheus_text
from repro.obs.instrument import (
    instrument_buffer,
    instrument_faults,
    instrument_matrix_ops,
    instrument_memory,
    instrument_minikv,
    instrument_network,
    instrument_stack,
    instrument_supervisor,
    instrument_trainer,
)
from repro.os_sim import make_stack
from repro.readahead.model import build_network
from repro.runtime import AsyncTrainer, CircularBuffer, KmlMemoryError, MemoryAccountant

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "export_golden.prom")

WALL = "<wall>"

#: Histograms whose observations are wall-clock seconds.
WALL_HISTOGRAMS = (
    "kml_buffer_push_latency_seconds",
    "kml_trainer_batch_latency_seconds",
    "kml_tracepoint_hook_latency_seconds",
    "kml_minikv_get_latency_seconds",
    "kml_minikv_put_latency_seconds",
    "kml_minikv_compaction_seconds",
)

#: Counters holding wall-clock seconds estimated from timed calls.
WALL_COUNTERS = ("kml_matrix_op_seconds_total", "kml_network_pass_seconds_total")

_WALL_LINE = re.compile(
    "^(?:(?:%s)_(?:bucket|sum)|(?:%s))[{ ]"
    % ("|".join(WALL_HISTOGRAMS), "|".join(WALL_COUNTERS))
)


def drive() -> MetricsRegistry:
    """Instrument one of each component into a registry and run the script."""
    metrics = MetricsRegistry()
    buf = CircularBuffer(4)
    instrument_buffer(buf, metrics, sample_mask=0)
    trainer = AsyncTrainer(buf, train_fn=lambda batch: None)
    instrument_trainer(trainer, metrics)
    memory = MemoryAccountant(reservation=4096)
    instrument_memory(memory, metrics)
    stack = make_stack("nvme")
    instrument_stack(stack, metrics)
    db = MiniKV(stack, DBOptions(memtable_bytes=512, l0_compaction_trigger=2))
    instrument_minikv(db, metrics, sample_mask=0)
    plane = FaultPlane(seed=0).inject("vfs.fsync", FaultKind.ERROR, nth=1)
    instrument_faults(plane, metrics)
    supervisor = TrainerSupervisor(trainer)
    instrument_supervisor(supervisor, metrics)

    for i in range(6):  # capacity 4: two drops
        buf.push(i)
    buf.pop()

    memory.allocate(100)
    memory.allocate(300).free()
    try:
        memory.allocate(8192)  # over the reservation
    except KmlMemoryError:
        pass

    for i in range(40):  # enough to flush several times and compact
        db.put(b"key-%03d" % i, b"v" * 60)
    for i in range(0, 50, 5):  # hits and misses
        db.get(b"key-%03d" % i)

    stack.tracepoints.subscribe("block_ra_set", lambda event: None)
    stack.tracepoints.emit("block_ra_set", 0.0, ra_pages=64)

    rng = np.random.default_rng(0)
    a = Matrix(rng.normal(size=(4, 3)), dtype="float32")
    b = Matrix(rng.normal(size=(3, 2)), dtype="float32")
    instrument_matrix_ops(metrics, sample_mask=0)
    try:
        for _ in range(5):
            a @ b
    finally:
        detach(matrix)

    net = build_network()
    x = Matrix(rng.normal(size=(4, 5)), dtype="float32")
    instrument_network(metrics)
    try:
        out = net.forward(x)
        net.backward(Matrix(np.ones(out.shape), dtype="float32"))
    finally:
        detach(network)

    try:
        plane.hook("vfs.fsync").fire()
    except InjectedIOError:
        pass

    supervisor.crashes = 2
    supervisor.restarts = 1
    supervisor.consecutive_failures = 1
    return metrics


def masked(text: str) -> list:
    """Export lines with every wall-clock value replaced by ``WALL``."""
    return [
        line.rsplit(" ", 1)[0] + " " + WALL if _WALL_LINE.match(line) else line
        for line in text.splitlines()
    ]


def series(lines: list) -> set:
    """The ``(kind, name, labels)`` of each sample in an export."""
    kinds = {}
    out = set()
    for line in lines:
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            kinds[name] = kind
        elif not line.startswith("#"):
            sample = line.rsplit(" ", 1)[0]
            name, _, labels = sample.partition("{")
            pairs = tuple(sorted(
                pair for pair in re.findall(r'(\w+)="([^"]*)"', labels)
                if pair[0] != "le"
            ))
            if name not in kinds:
                name = re.sub(r"_(bucket|sum|count)$", "", name)
            out.add((kinds[name], name, pairs))
    return out


def test_prometheus_export_matches_golden():
    with open(FIXTURE) as f:
        expected = f.read().splitlines()
    assert masked(prometheus_text(drive())) == expected


def test_jsonl_covers_the_same_series():
    with open(FIXTURE) as f:
        expected = series(f.read().splitlines())
    records = [json.loads(line) for line in jsonl_lines(drive())]
    got = {
        (r["kind"], r["name"], tuple(sorted(r["labels"].items()))) for r in records
    }
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    lines = masked(prometheus_text(drive()))
    with open(FIXTURE, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE}")
