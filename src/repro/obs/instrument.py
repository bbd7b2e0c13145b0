"""Wire the metrics registry into the KML hot paths.

Layering contract: the hot-path modules (``repro.runtime``,
``repro.os_sim``, ``repro.minikv``, ``repro.kml``) never import this
package.  Each declares one hook slot per named site (``repro.hooks``)
and checks it with one ``is not None`` guard.

Each ``instrument_*`` function is a table of ``(key, kind, name, help,
read)`` rows bound by :func:`_bind`: callback metrics read the counters
a component already keeps (zero hot-path cost), and histogram rows are
fed by hooks.  :func:`_time` points a site's hook at its histogram on
the plane the component is attached to (a fault plane, say), or on a
new one, so obs and faults on one component share one hook.  The
returned dict maps each ``key`` to its metric.

Latency timing on the very hottest paths (buffer push, KV get/put,
matmul) is *sampled*: every call is counted, but only one in
``sample_mask + 1`` is timed, keeping the overhead under the 10% budget
enforced by ``benchmarks/bench_hook_overhead.py``.  Pass
``sample_mask=0`` to time every call (tests do).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

from ..hooks import Hook, plane_of
from .metrics import Histogram, MetricsRegistry

__all__ = [
    "instrument_buffer",
    "instrument_trainer",
    "instrument_tracepoints",
    "instrument_memory",
    "instrument_matrix_ops",
    "instrument_network",
    "instrument_minikv",
    "instrument_device",
    "instrument_stack",
]

#: Default sampling mask for per-call latency timing on the hottest
#: paths: time one call in 64.  Must be ``2**k - 1`` (or 0 = always).
DEFAULT_SAMPLE_MASK = 63

#: Matmuls are slower than buffer pushes, so a finer sampling mask
#: still costs well under the budget.
MATRIX_SAMPLE_MASK = 15


def _time(component, site: str, hist, mask: int = 0) -> Hook:
    """Time ``site`` of ``component`` into ``hist``, one call in ``mask + 1``."""
    plane = plane_of(component)
    hook = plane.hook(site)
    hook.hist, hook.mask = hist, mask
    plane.attach(component)
    return hook


class _Labeled(NamedTuple):
    """``read`` of a labeled family.

    ``children`` is either a fixed child set -- ``(label values, read)``
    rows, each bound as a callback and created in this (export) order --
    or, for label sets that change at run time, a function of the
    component returning ``{label values: count}``, copied in by a
    collect hook.
    """

    labels: Tuple[str, ...]
    children: object


def _reader(component, read) -> Callable[[], float]:
    if isinstance(read, str):
        return lambda: float(getattr(component, read, 0))
    return lambda: float(read(component))


def _bind(registry: MetricsRegistry, component, rows) -> Dict[str, object]:
    """Create each row's family and bind it to ``component``.

    ``read`` is an attribute name (read with ``getattr(component, name,
    0)``, so partial duck-typed stubs read zero), a function of the
    component, ``None`` (a histogram fed by a hook) or :class:`_Labeled`.
    """
    out: Dict[str, object] = {}
    for key, kind, name, help, read in rows:
        labels = read.labels if isinstance(read, _Labeled) else ()
        family = out[key] = getattr(registry, kind)(name, help, labels=labels)
        if not labels:
            if read is not None:
                family.set_function(_reader(component, read))
        elif callable(read.children):
            _sync_children(registry, family, component, read.children)
        else:
            for values, child_read in read.children:
                child = family.labels(**dict(zip(labels, values)))
                if child_read is not None:
                    child.set_function(_reader(component, child_read))
    return out


def _sync_children(registry, family, component, counts) -> None:
    labels = family.label_names

    def sync() -> None:
        for values, n in counts(component).items():
            family.labels(**dict(zip(labels, values))).sync(float(n))

    registry.register_collect_hook(f"{family.name}-{id(component)}", sync)


def _stat(field: str) -> Callable[[object], float]:
    """Read ``component.stats.<field>``; zero when either is missing."""
    return lambda c: getattr(getattr(c, "stats", None), field, 0)


_BUFFER = (
    ("pushed", "counter", "kml_buffer_pushed_total",
     "Samples accepted into the ring", "pushed"),
    ("dropped", "counter", "kml_buffer_dropped_total",
     "Samples rejected because the ring was full", "dropped"),
    ("popped", "counter", "kml_buffer_popped_total",
     "Samples drained by the consumer", "popped"),
    ("occupancy", "gauge", "kml_buffer_occupancy",
     "Samples currently queued in the ring", len),
    ("capacity", "gauge", "kml_buffer_capacity",
     "Configured ring capacity", "capacity"),
    ("push_latency", "histogram", "kml_buffer_push_latency_seconds",
     "Wall-clock latency of one sampled push", None),
)


def instrument_buffer(
    buffer,
    registry: MetricsRegistry,
    sample_mask: int = DEFAULT_SAMPLE_MASK,
) -> Dict[str, object]:
    """Buffer occupancy/drop/throughput metrics + sampled push latency."""
    out = _bind(registry, buffer, _BUFFER)
    _time(buffer, "buffer.push", out["push_latency"], sample_mask)
    return out


_TRAINER = (
    ("samples", "counter", "kml_trainer_samples_total",
     "Samples seen by the training thread", "samples_seen"),
    ("batches", "counter", "kml_trainer_batches_total",
     "Batches run through train_fn", "batches_trained"),
    ("running", "gauge", "kml_trainer_running",
     "1 while the trainer thread is alive", "running"),
    ("backlog", "gauge", "kml_trainer_backlog",
     "Samples waiting in the ring (is the trainer falling behind?)",
     lambda trainer: len(getattr(trainer, "buffer", None) or ())),
    ("batch_latency", "histogram", "kml_trainer_batch_latency_seconds",
     "Wall-clock latency of one normalize+train batch", None),
)


def instrument_trainer(trainer, registry: MetricsRegistry) -> Dict[str, object]:
    """Trainer progress counters, backlog gauge, batch latency."""
    out = _bind(registry, trainer, _TRAINER)
    _time(trainer, "trainer.batch", out["batch_latency"])
    return out


def _memory_stat(key: str) -> Callable[[object], float]:
    return lambda m: (getattr(m, "stats", None) or dict)().get(key, 0)


_MEMORY = (
    ("in_use", "gauge", "kml_memory_in_use_bytes",
     "Accounted bytes currently allocated", _memory_stat("in_use")),
    ("peak", "gauge", "kml_memory_peak_bytes",
     "High-water mark of accounted bytes", _memory_stat("peak")),
    ("failed_allocations", "counter", "kml_memory_failed_allocations_total",
     "Allocations rejected by the reservation budget",
     _memory_stat("failed_allocations")),
    ("reservation", "gauge", "kml_memory_reservation_bytes",
     "Reserved budget in bytes (0 = unlimited)",
     lambda memory: getattr(memory, "reservation", None) or 0),
)


def instrument_memory(memory, registry: MetricsRegistry) -> Dict[str, object]:
    """Memory accountant gauges, tolerant of partial duck-typed stubs."""
    return _bind(registry, memory, _MEMORY)


_TRACEPOINTS = (
    ("hits", "counter", "kml_tracepoint_hits_total", "Tracepoint firings",
     _Labeled(("name",), lambda tracepoints: {
         (name,): n
         for name, n in getattr(tracepoints, "hit_counts", {}).items()
     })),
    ("errors", "counter", "kml_tracepoint_subscriber_errors_total",
     "Exceptions raised (and suppressed) by tracing hooks",
     "subscriber_errors"),
    ("hook_latency", "histogram", "kml_tracepoint_hook_latency_seconds",
     "Wall-clock latency of dispatching one event to all subscribers", None),
)


def instrument_tracepoints(
    tracepoints, registry: MetricsRegistry
) -> Dict[str, object]:
    """Per-name hit counters, subscriber errors, hook dispatch latency."""
    out = _bind(registry, tracepoints, _TRACEPOINTS)
    _time(tracepoints, "tracepoints.dispatch", out["hook_latency"])
    return out


def instrument_device(device, registry: MetricsRegistry) -> Dict[str, object]:
    """Block-layer request counters and per-request service time.

    The service-time histogram records *simulated* seconds (the
    discrete-event model's request latency), labeled by device and
    direction, reproducing a per-request blktrace-style breakdown.
    """
    name = getattr(device, "name", "dev")
    by_op = ("device", "op")
    out = _bind(registry, device, (
        ("requests", "counter", "kml_block_requests_total",
         "Block requests submitted", _Labeled(by_op, (
             ((name, "read"), _stat("read_requests")),
             ((name, "write"), _stat("write_requests")),
         ))),
        ("pages", "counter", "kml_block_pages_total",
         "Pages transferred", _Labeled(by_op, (
             ((name, "read"), _stat("pages_read")),
             ((name, "write"), _stat("pages_written")),
         ))),
        ("busy", "gauge", "kml_block_busy_seconds",
         "Cumulative simulated busy time",
         _Labeled(("device",), (((name,), _stat("busy_time")),))),
        ("service", "histogram", "kml_block_request_service_seconds",
         "Simulated service time of one block request", _Labeled(by_op, (
             ((name, "read"), None), ((name, "write"), None),
         ))),
    ))
    del out["busy"]
    _time(device, "device.submit", (
        out["service"].labels(device=name, op="read"),
        out["service"].labels(device=name, op="write"),
    ))
    return out


def instrument_stack(stack, registry: MetricsRegistry) -> Dict[str, object]:
    """Instrument a whole simulated storage stack (device + tracepoints)."""
    out = instrument_device(stack.device, registry)
    out.update(instrument_tracepoints(stack.tracepoints, registry))
    return out



def instrument_matrix_ops(
    registry: MetricsRegistry,
    sample_mask: int = MATRIX_SAMPLE_MASK,
) -> Dict[str, object]:
    """Count matrix ops and estimate their wall time from sampled timings.

    The FLOP-equivalent cost accounting the paper's overhead section
    keys on.  The ``matrix.matmul`` site is module-global, so detach it
    when done (``repro.hooks.detach(repro.kml.matrix)``).  Pass
    ``sample_mask=0`` to time every op (tests do; the seconds total is
    then exact).
    """
    from ..kml import matrix as matrix_mod

    hook = _time(matrix_mod, "matrix.matmul", Histogram(), sample_mask)
    return _bind(registry, hook, (
        ("ops", "counter", "kml_matrix_ops_total",
         "Matrix operations executed",
         _Labeled(("op",), ((("matmul",), "calls"),))),
        ("op_seconds", "counter", "kml_matrix_op_seconds_total",
         "Wall-clock seconds spent in matrix operations (sampled estimate)",
         _Labeled(("op",), ((("matmul",), Hook.estimated_seconds),))),
    ))


def instrument_network(registry: MetricsRegistry) -> Dict[str, object]:
    """Count and time network forward/backward passes.

    Module-global sites, like ``instrument_matrix_ops``: detach
    ``repro.kml.network`` when done.
    """
    from ..kml import network as network_mod

    hooks = (_time(network_mod, "network.forward", Histogram()),
             _time(network_mod, "network.backward", Histogram()))
    return _bind(registry, hooks, (
        ("passes", "counter", "kml_network_passes_total",
         "Model graph traversals", _Labeled(("phase",), (
             (("forward",), lambda h: h[0].calls),
             (("backward",), lambda h: h[1].calls),
         ))),
        ("pass_seconds", "counter", "kml_network_pass_seconds_total",
         "Wall-clock seconds spent traversing the model graph",
         _Labeled(("phase",), (
             (("forward",), lambda h: h[0].estimated_seconds()),
             (("backward",), lambda h: h[1].estimated_seconds()),
         ))),
    ))


_MINIKV = (
    ("ops", "counter", "kml_minikv_ops_total", "Logical KV operations",
     _Labeled(("op",), (
         (("get",), _stat("gets")),
         (("put",), _stat("puts")),
         (("delete",), _stat("deletes")),
         (("seek",), _stat("seeks")),
     ))),
    ("get_hits", "counter", "kml_minikv_get_hits_total",
     "Gets that found a live value", _stat("get_hits")),
    ("flushes", "counter", "kml_minikv_flushes_total",
     "Memtable flushes to L0", _stat("flushes")),
    ("compactions", "counter", "kml_minikv_compactions_total",
     "L0->L1 compactions", _stat("compactions")),
    ("io_retries", "counter", "kml_minikv_io_retries_total",
     "Transient I/O errors absorbed by retry-with-backoff",
     _stat("io_retries")),
    ("io_giveups", "counter", "kml_minikv_io_giveups_total",
     "Reads whose retry budget was exhausted (error propagated)",
     _stat("io_giveups")),
    ("wal_records_replayed", "counter",
     "kml_minikv_wal_records_replayed_total",
     "WAL records replayed during recovery", _stat("wal_records_replayed")),
    ("orphans_removed", "counter", "kml_minikv_orphans_removed_total",
     "Unreferenced SSTable files garbage-collected at open",
     _stat("orphans_removed")),
    ("tables", "gauge", "kml_minikv_tables", "Live SSTables per level",
     _Labeled(("level",), (
         (("0",), "num_l0_tables"), (("1",), "num_l1_tables"),
     ))),
    ("get_latency", "histogram", "kml_minikv_get_latency_seconds",
     "Wall-clock latency of one sampled get", None),
    ("put_latency", "histogram", "kml_minikv_put_latency_seconds",
     "Wall-clock latency of one sampled put", None),
    ("compaction_seconds", "histogram", "kml_minikv_compaction_seconds",
     "Wall-clock duration of one compaction", None),
)


def instrument_minikv(
    db,
    registry: MetricsRegistry,
    sample_mask: int = DEFAULT_SAMPLE_MASK,
) -> Dict[str, object]:
    """KV op counters (from ``DBStats``) plus sampled op latencies.

    Every compaction is timed; ``sample_mask=-1`` times nothing.
    """
    out = _bind(registry, db, _MINIKV)
    del out["tables"]
    _time(db, "minikv.get", out["get_latency"], sample_mask)
    _time(db, "minikv.put", out["put_latency"], sample_mask)
    _time(db, "minikv.compaction", out["compaction_seconds"],
          min(sample_mask, 0))
    return out


_FAULTS = (
    ("injected", "counter", "kml_faults_injected_total",
     "Faults injected by the plane", _Labeled(
         ("site", "kind"),
         lambda plane: (getattr(plane, "injection_counts", None) or dict)(),
     )),
    ("rules", "gauge", "kml_faults_rules",
     "Rules currently armed on the plane", "num_rules"),
)


def instrument_faults(plane, registry: MetricsRegistry) -> Dict[str, object]:
    """Injection counters per (site, kind), synced from a fault plane."""
    return _bind(registry, plane, _FAULTS)


_SUPERVISOR = (
    ("crashes", "counter", "kml_trainer_crashes_total",
     "Training-thread crashes observed", "crashes"),
    ("restarts", "counter", "kml_trainer_restarts_total",
     "Supervisor-initiated trainer restarts", "restarts"),
    ("degraded", "gauge", "kml_trainer_degraded",
     "1 when the supervisor gave up and the engine is DEGRADED", "degraded"),
    ("consecutive_failures", "gauge", "kml_trainer_consecutive_failures",
     "Crashes since the last healthy stretch", "consecutive_failures"),
)


def instrument_supervisor(
    supervisor, registry: MetricsRegistry
) -> Dict[str, object]:
    """Trainer-supervision metrics: crashes, restarts, degraded state."""
    return _bind(registry, supervisor, _SUPERVISOR)
