"""Wire the metrics registry into the KML hot paths.

Layering contract: the hot-path modules (``repro.runtime``,
``repro.os_sim``, ``repro.minikv``, ``repro.kml``) never import this
package.  Each exposes either a duck-typed ``attach_obs(hooks)`` slot
checked with one ``is not None`` guard, or a module-level observer
setter (``set_op_observer``).  The functions here create the metric
families, bind callback metrics to the counters a component already
keeps (zero hot-path cost), and install the small hook objects that
feed the latency histograms.

Latency timing on the very hottest paths (buffer push, matmul) is
*sampled*: every call is counted, but only one in ``sample_mask + 1``
is timed, keeping the overhead under the 10% budget enforced by
``benchmarks/bench_obs_overhead.py``.  Pass ``sample_mask=0`` to time
every call (tests do).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

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
    "instrument_serve",
]

#: Default sampling mask for per-call latency timing on the hottest
#: paths: time one call in 64.  Must be ``2**k - 1`` (or 0 = always).
DEFAULT_SAMPLE_MASK = 63


class BufferObs:
    """Hook object the circular buffer checks on every push."""

    __slots__ = ("push_latency", "sample_mask", "push_calls")

    def __init__(self, push_latency: Histogram, sample_mask: int):
        self.push_latency = push_latency
        self.sample_mask = sample_mask
        self.push_calls = 0


class TrainerObs:
    """Hook object the async trainer checks per processed batch."""

    __slots__ = ("batch_latency",)

    def __init__(self, batch_latency: Histogram):
        self.batch_latency = batch_latency


class TracepointObs:
    """Hook object timing subscriber dispatch per emit."""

    __slots__ = ("hook_latency",)

    def __init__(self, hook_latency: Histogram):
        self.hook_latency = hook_latency


class MiniKVObs:
    """Hook object for the KV store's read/write/compaction paths."""

    __slots__ = ("get_latency", "put_latency", "compaction_seconds",
                 "sample_mask", "get_calls", "put_calls")

    def __init__(
        self,
        get_latency: Histogram,
        put_latency: Histogram,
        compaction_seconds: Histogram,
        sample_mask: int,
    ):
        self.get_latency = get_latency
        self.put_latency = put_latency
        self.compaction_seconds = compaction_seconds
        self.sample_mask = sample_mask
        self.get_calls = 0
        self.put_calls = 0


def _attach(component, hooks) -> None:
    attach = getattr(component, "attach_obs", None)
    if attach is not None:
        attach(hooks)


# ----------------------------------------------------------------------
# Runtime: circular buffer + async trainer
# ----------------------------------------------------------------------


def instrument_buffer(
    buffer,
    registry: MetricsRegistry,
    sample_mask: int = DEFAULT_SAMPLE_MASK,
) -> Dict[str, object]:
    """Buffer occupancy/drop/throughput metrics + sampled push latency."""
    pushed = registry.counter(
        "kml_buffer_pushed_total", "Samples accepted into the ring"
    )
    pushed.set_function(lambda: float(getattr(buffer, "pushed", 0)))
    dropped = registry.counter(
        "kml_buffer_dropped_total", "Samples rejected because the ring was full"
    )
    dropped.set_function(lambda: float(getattr(buffer, "dropped", 0)))
    popped = registry.counter(
        "kml_buffer_popped_total", "Samples drained by the consumer"
    )
    popped.set_function(lambda: float(getattr(buffer, "popped", 0)))
    occupancy = registry.gauge(
        "kml_buffer_occupancy", "Samples currently queued in the ring"
    )
    occupancy.set_function(lambda: float(len(buffer)))
    capacity = registry.gauge(
        "kml_buffer_capacity", "Configured ring capacity"
    )
    capacity.set_function(lambda: float(getattr(buffer, "capacity", 0)))
    push_latency = registry.histogram(
        "kml_buffer_push_latency_seconds",
        "Wall-clock latency of one sampled push",
    )
    _attach(buffer, BufferObs(push_latency, sample_mask))
    return {
        "pushed": pushed,
        "dropped": dropped,
        "popped": popped,
        "occupancy": occupancy,
        "capacity": capacity,
        "push_latency": push_latency,
    }


def instrument_trainer(trainer, registry: MetricsRegistry) -> Dict[str, object]:
    """Trainer progress counters, backlog gauge, batch latency."""
    samples = registry.counter(
        "kml_trainer_samples_total", "Samples seen by the training thread"
    )
    samples.set_function(lambda: float(getattr(trainer, "samples_seen", 0)))
    batches = registry.counter(
        "kml_trainer_batches_total", "Batches run through train_fn"
    )
    batches.set_function(lambda: float(getattr(trainer, "batches_trained", 0)))
    running = registry.gauge(
        "kml_trainer_running", "1 while the trainer thread is alive"
    )
    running.set_function(lambda: 1.0 if getattr(trainer, "running", False) else 0.0)
    backlog = registry.gauge(
        "kml_trainer_backlog",
        "Samples waiting in the ring (is the trainer falling behind?)",
    )
    buf = getattr(trainer, "buffer", None)
    backlog.set_function(lambda: float(len(buf)) if buf is not None else 0.0)
    batch_latency = registry.histogram(
        "kml_trainer_batch_latency_seconds",
        "Wall-clock latency of one normalize+train batch",
    )
    _attach(trainer, TrainerObs(batch_latency))
    return {
        "samples": samples,
        "batches": batches,
        "running": running,
        "backlog": backlog,
        "batch_latency": batch_latency,
    }


def instrument_memory(memory, registry: MetricsRegistry) -> Dict[str, object]:
    """Memory accountant gauges, tolerant of partial duck-typed stubs."""

    def from_stats(key: str):
        def read() -> float:
            stats = getattr(memory, "stats", None)
            if stats is None:
                return 0.0
            return float(stats().get(key, 0))

        return read

    in_use = registry.gauge(
        "kml_memory_in_use_bytes", "Accounted bytes currently allocated"
    )
    in_use.set_function(from_stats("in_use"))
    peak = registry.gauge(
        "kml_memory_peak_bytes", "High-water mark of accounted bytes"
    )
    peak.set_function(from_stats("peak"))
    failed = registry.counter(
        "kml_memory_failed_allocations_total",
        "Allocations rejected by the reservation budget",
    )
    failed.set_function(from_stats("failed_allocations"))
    reservation = registry.gauge(
        "kml_memory_reservation_bytes",
        "Reserved budget in bytes (0 = unlimited)",
    )
    reservation.set_function(
        lambda: float(getattr(memory, "reservation", None) or 0)
    )
    return {
        "in_use": in_use,
        "peak": peak,
        "failed_allocations": failed,
        "reservation": reservation,
    }


# ----------------------------------------------------------------------
# os_sim: tracepoints + block device
# ----------------------------------------------------------------------


def instrument_tracepoints(
    tracepoints, registry: MetricsRegistry
) -> Dict[str, object]:
    """Per-name hit counters, subscriber errors, hook dispatch latency."""
    hits = registry.counter(
        "kml_tracepoint_hits_total", "Tracepoint firings", labels=("name",)
    )
    errors = registry.counter(
        "kml_tracepoint_subscriber_errors_total",
        "Exceptions raised (and suppressed) by tracing hooks",
    )
    errors.set_function(
        lambda: float(getattr(tracepoints, "subscriber_errors", 0))
    )

    def sync() -> None:
        for name, count in getattr(tracepoints, "hit_counts", {}).items():
            hits.labels(name=name).sync(float(count))

    registry.register_collect_hook(f"tracepoints-{id(tracepoints)}", sync)
    hook_latency = registry.histogram(
        "kml_tracepoint_hook_latency_seconds",
        "Wall-clock latency of dispatching one event to all subscribers",
    )
    _attach(tracepoints, TracepointObs(hook_latency))
    return {"hits": hits, "errors": errors, "hook_latency": hook_latency}


def instrument_device(device, registry: MetricsRegistry) -> Dict[str, object]:
    """Block-layer request counters and per-request service time.

    The service-time histogram records *simulated* seconds (the
    discrete-event model's request latency), labeled by device and
    direction, reproducing a per-request blktrace-style breakdown.
    """
    name = getattr(device, "name", "dev")
    requests = registry.counter(
        "kml_block_requests_total",
        "Block requests submitted",
        labels=("device", "op"),
    )
    pages = registry.counter(
        "kml_block_pages_total",
        "Pages transferred",
        labels=("device", "op"),
    )
    stats = getattr(device, "stats", None)
    if stats is not None:
        requests.labels(device=name, op="read").set_function(
            lambda: float(device.stats.read_requests)
        )
        requests.labels(device=name, op="write").set_function(
            lambda: float(device.stats.write_requests)
        )
        pages.labels(device=name, op="read").set_function(
            lambda: float(device.stats.pages_read)
        )
        pages.labels(device=name, op="write").set_function(
            lambda: float(device.stats.pages_written)
        )
    busy = registry.gauge(
        "kml_block_busy_seconds", "Cumulative simulated busy time",
        labels=("device",),
    ).labels(device=name)
    busy.set_function(lambda: float(device.stats.busy_time) if stats is not None else 0.0)
    service = registry.histogram(
        "kml_block_request_service_seconds",
        "Simulated service time of one block request",
        labels=("device", "op"),
    )
    read_hist = service.labels(device=name, op="read")
    write_hist = service.labels(device=name, op="write")

    def observe(duration: float, n_pages: int, is_write: bool) -> None:
        (write_hist if is_write else read_hist).observe(duration)

    device.service_observer = observe
    return {"requests": requests, "pages": pages, "service": service}


def instrument_stack(stack, registry: MetricsRegistry) -> Dict[str, object]:
    """Instrument a whole simulated storage stack (device + tracepoints)."""
    out: Dict[str, object] = {}
    out.update(instrument_device(stack.device, registry))
    out.update(instrument_tracepoints(stack.tracepoints, registry))
    return out


# ----------------------------------------------------------------------
# kml: matrix ops + network passes
# ----------------------------------------------------------------------


class MatrixOpObs:
    """Duck-typed hook installed into ``repro.kml.matrix``.

    A single matmul on batch-sized inputs is only a few microseconds,
    so per-op locked counter updates would blow the overhead budget.
    Instead the hot path increments ``matmul_calls`` (a plain,
    GIL-atomic attribute add) on every op and times one op in
    ``sample_mask + 1``; collect-time callbacks read the totals back
    and scale the sampled wall time up to the full population.
    """

    __slots__ = ("sample_mask", "matmul_calls", "matmul_sampled",
                 "matmul_sampled_seconds")

    def __init__(self, sample_mask: int):
        self.sample_mask = sample_mask
        self.matmul_calls = 0
        self.matmul_sampled = 0
        self.matmul_sampled_seconds = 0.0

    def observe(self, op: str, seconds: float) -> None:
        self.matmul_sampled += 1
        self.matmul_sampled_seconds += seconds

    def estimated_seconds(self) -> float:
        """Sampled wall time scaled to the full op count (exact when
        ``sample_mask == 0``)."""
        if not self.matmul_sampled:
            return 0.0
        return self.matmul_sampled_seconds * (
            self.matmul_calls / self.matmul_sampled
        )


#: Matmuls are slower than buffer pushes, so a finer sampling mask
#: still costs well under the budget.
MATRIX_SAMPLE_MASK = 15


def instrument_matrix_ops(
    registry: MetricsRegistry,
    sample_mask: int = MATRIX_SAMPLE_MASK,
) -> Callable[[], None]:
    """Install the module-global matrix op observer; returns a detacher.

    Counts matrix ops and estimates their wall time from sampled
    timings, the FLOP-equivalent cost accounting the paper's overhead
    section keys on.  Module-global (matching ``set_alloc_observer``),
    so remember to call the returned detacher -- or use it as a
    context manager.  Pass ``sample_mask=0`` to time every op (tests
    do; the seconds total is then exact).
    """
    from ..kml import matrix as matrix_mod

    ops = registry.counter(
        "kml_matrix_ops_total", "Matrix operations executed", labels=("op",)
    )
    op_seconds = registry.counter(
        "kml_matrix_op_seconds_total",
        "Wall-clock seconds spent in matrix operations (sampled estimate)",
        labels=("op",),
    )
    obs = MatrixOpObs(sample_mask)
    ops.labels(op="matmul").set_function(lambda: float(obs.matmul_calls))
    op_seconds.labels(op="matmul").set_function(obs.estimated_seconds)
    matrix_mod.set_op_observer(obs)
    return _Detacher(lambda: matrix_mod.set_op_observer(None))


def instrument_network(registry: MetricsRegistry) -> Callable[[], None]:
    """Install the network forward/backward pass observer; returns a detacher."""
    from ..kml import network as network_mod

    passes = registry.counter(
        "kml_network_passes_total",
        "Model graph traversals",
        labels=("phase",),
    )
    pass_seconds = registry.counter(
        "kml_network_pass_seconds_total",
        "Wall-clock seconds spent traversing the model graph",
        labels=("phase",),
    )
    forward = (passes.labels(phase="forward"),
               pass_seconds.labels(phase="forward"))
    backward = (passes.labels(phase="backward"),
                pass_seconds.labels(phase="backward"))

    def observe(phase: str, seconds: float) -> None:
        count, total = forward if phase == "forward" else backward
        count.inc()
        total.inc(seconds)

    network_mod.set_pass_observer(observe)
    return _Detacher(lambda: network_mod.set_pass_observer(None))


class _Detacher:
    """Callable + context manager that undoes one instrumentation."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], None]):
        self._fn = fn

    def __call__(self) -> None:
        self._fn()

    def __enter__(self) -> "_Detacher":
        return self

    def __exit__(self, *exc) -> None:
        self._fn()


# ----------------------------------------------------------------------
# minikv
# ----------------------------------------------------------------------


def instrument_minikv(
    db,
    registry: MetricsRegistry,
    sample_mask: int = DEFAULT_SAMPLE_MASK,
) -> Dict[str, object]:
    """KV op counters (from ``DBStats``) plus sampled op latencies."""
    ops = registry.counter(
        "kml_minikv_ops_total", "Logical KV operations", labels=("op",)
    )
    hits = registry.counter(
        "kml_minikv_get_hits_total", "Gets that found a live value"
    )
    flushes = registry.counter(
        "kml_minikv_flushes_total", "Memtable flushes to L0"
    )
    compactions = registry.counter(
        "kml_minikv_compactions_total", "L0->L1 compactions"
    )
    io_retries = registry.counter(
        "kml_minikv_io_retries_total",
        "Transient I/O errors absorbed by retry-with-backoff",
    )
    io_giveups = registry.counter(
        "kml_minikv_io_giveups_total",
        "Reads whose retry budget was exhausted (error propagated)",
    )
    wal_replayed = registry.counter(
        "kml_minikv_wal_records_replayed_total",
        "WAL records replayed during recovery",
    )
    orphans = registry.counter(
        "kml_minikv_orphans_removed_total",
        "Unreferenced SSTable files garbage-collected at open",
    )

    def sync() -> None:
        stats = getattr(db, "stats", None)
        if stats is None:
            return
        ops.labels(op="get").sync(float(stats.gets))
        ops.labels(op="put").sync(float(stats.puts))
        ops.labels(op="delete").sync(float(stats.deletes))
        ops.labels(op="seek").sync(float(stats.seeks))
        hits.sync(float(stats.get_hits))
        flushes.sync(float(stats.flushes))
        compactions.sync(float(stats.compactions))
        io_retries.sync(float(getattr(stats, "io_retries", 0)))
        io_giveups.sync(float(getattr(stats, "io_giveups", 0)))
        wal_replayed.sync(float(getattr(stats, "wal_records_replayed", 0)))
        orphans.sync(float(getattr(stats, "orphans_removed", 0)))

    registry.register_collect_hook(f"minikv-{id(db)}", sync)
    levels = registry.gauge(
        "kml_minikv_tables", "Live SSTables per level", labels=("level",)
    )
    levels.labels(level="0").set_function(
        lambda: float(getattr(db, "num_l0_tables", 0))
    )
    levels.labels(level="1").set_function(
        lambda: float(getattr(db, "num_l1_tables", 0))
    )
    get_latency = registry.histogram(
        "kml_minikv_get_latency_seconds",
        "Wall-clock latency of one sampled get",
    )
    put_latency = registry.histogram(
        "kml_minikv_put_latency_seconds",
        "Wall-clock latency of one sampled put",
    )
    compaction_seconds = registry.histogram(
        "kml_minikv_compaction_seconds",
        "Wall-clock duration of one compaction",
    )
    _attach(db, MiniKVObs(get_latency, put_latency, compaction_seconds,
                          sample_mask))
    return {
        "ops": ops,
        "get_hits": hits,
        "flushes": flushes,
        "compactions": compactions,
        "io_retries": io_retries,
        "io_giveups": io_giveups,
        "wal_records_replayed": wal_replayed,
        "orphans_removed": orphans,
        "get_latency": get_latency,
        "put_latency": put_latency,
        "compaction_seconds": compaction_seconds,
    }


# ----------------------------------------------------------------------
# serve: model registry
# ----------------------------------------------------------------------


def instrument_serve(
    model_registry, registry: MetricsRegistry
) -> Dict[str, object]:
    """Model-registry metrics: the active version and swap lifecycle.

    Every family binds to a plain attribute the
    :class:`~repro.serve.ModelRegistry` already keeps (callback metrics,
    zero cost to inference).
    """
    active_version = registry.gauge(
        "kml_serve_active_version",
        "Active model version (-1 when nothing is activated)",
    )
    active_version.set_function(
        lambda: float(getattr(model_registry, "active_version", -1))
    )
    loads = registry.counter(
        "kml_serve_model_loads_total", "Model image loads from the registry"
    )
    loads.set_function(lambda: float(getattr(model_registry, "loads", 0)))
    load_failures = registry.counter(
        "kml_serve_model_load_failures_total",
        "Loads rejected by integrity checking (corrupt image, I/O error)",
    )
    load_failures.set_function(
        lambda: float(getattr(model_registry, "load_failures", 0))
    )
    activations = registry.counter(
        "kml_serve_activations_total", "Model hot-swaps (activate calls)"
    )
    activations.set_function(
        lambda: float(getattr(model_registry, "activations", 0))
    )
    rollbacks = registry.counter(
        "kml_serve_rollbacks_total", "Registry rollbacks to a prior version"
    )
    rollbacks.set_function(
        lambda: float(getattr(model_registry, "rollbacks", 0))
    )
    return {
        "active_version": active_version,
        "loads": loads,
        "load_failures": load_failures,
        "activations": activations,
        "rollbacks": rollbacks,
    }


# ----------------------------------------------------------------------
# Fault injection: plane accounting + trainer supervision
# ----------------------------------------------------------------------


def instrument_faults(plane, registry: MetricsRegistry) -> Dict[str, object]:
    """Injection counters per (site, kind), synced from a fault plane."""
    injected = registry.counter(
        "kml_faults_injected_total",
        "Faults injected by the plane",
        labels=("site", "kind"),
    )
    rules = registry.gauge(
        "kml_faults_rules", "Rules currently armed on the plane"
    )
    rules.set_function(lambda: float(getattr(plane, "num_rules", 0)))

    def sync() -> None:
        counts = getattr(plane, "injection_counts", None)
        if counts is None:
            return
        for (site, kind), n in counts().items():
            injected.labels(site=site, kind=kind).sync(float(n))

    registry.register_collect_hook(f"faults-{id(plane)}", sync)
    return {"injected": injected, "rules": rules}


def instrument_supervisor(
    supervisor, registry: MetricsRegistry
) -> Dict[str, object]:
    """Trainer-supervision metrics: crashes, restarts, degraded state."""
    crashes = registry.counter(
        "kml_trainer_crashes_total", "Training-thread crashes observed"
    )
    crashes.set_function(lambda: float(getattr(supervisor, "crashes", 0)))
    restarts = registry.counter(
        "kml_trainer_restarts_total", "Supervisor-initiated trainer restarts"
    )
    restarts.set_function(lambda: float(getattr(supervisor, "restarts", 0)))
    degraded = registry.gauge(
        "kml_trainer_degraded",
        "1 when the supervisor gave up and the engine is DEGRADED",
    )
    degraded.set_function(
        lambda: 1.0 if getattr(supervisor, "degraded", False) else 0.0
    )
    consecutive = registry.gauge(
        "kml_trainer_consecutive_failures",
        "Crashes since the last healthy stretch",
    )
    consecutive.set_function(
        lambda: float(getattr(supervisor, "consecutive_failures", 0))
    )
    return {
        "crashes": crashes,
        "restarts": restarts,
        "degraded": degraded,
        "consecutive_failures": consecutive,
    }
