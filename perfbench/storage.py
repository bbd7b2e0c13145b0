"""The storage workloads: readrandom_collect and mixgraph_kml.

Both run the Table-2 stack: minikv with 60k keys x 400 B (about 15k
pages of SSTables) over a 512-page page cache and the NVMe model, with
an 8 MiB memtable so that no flush or compaction lands in the timed
phase.  Populate (60k puts, 4 flushes) is part of set-up.  One client
runs a closed loop through ``run_workload``: it issues the next op when
the previous one returns, then charges 2 us of simulated CPU.  The seed
drives the populate values and the op stream.

- readrandom_collect: uniform point gets with readahead pinned at the
  Linux default of 128 and a FeatureCollector attached, as in
  training-data collection.  Every miss inserts a readahead window, so
  the work is the page-cache window path, tracepoint dispatch, the
  collector hooks and bloom/SSTable point lookups: no inference, no
  write, no scan.
- mixgraph_kml: 83% gets, 14% puts and 3% short scans with Zipf 0.9 key
  popularity, with the ReadaheadAgent (committed model and tuning table,
  smoothing 3) in the loop every 0.1 simulated seconds, as in Figure 2.
  It adds WAL appends and memtable inserts beside reads, scans that
  merge the memtable with the SSTables, and a hotter working set.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
from array import array
from typing import Dict, List, Optional

import numpy as np

from repro.minikv import DBOptions, MiniKV
from repro.os_sim import make_stack
from repro.readahead import FeatureCollector, ReadaheadAgent
from repro.workloads import make_key, populate_db, run_workload, workload_by_name

from . import inputs
from .common import (
    Result,
    delta,
    digest,
    timed_setups,
    ops_for,
    out_path,
    peak_rss_mib,
    slices_for,
    write_json,
    SETUP_REPEATS,
    TRACE_MAX_SECONDS,
)
from .layers import Instrumented, span_report
from .percentiles import fast_mode, sliced_op_wall_us, summarize
from .spans import Tracer

NUM_KEYS = 60_000
VALUE_SIZE = 400
CACHE_PAGES = 512
MEMTABLE_BYTES = 8 << 20
DEVICE = "nvme"
VANILLA_RA = 128  # the Linux default
WINDOW_S = 0.1  # agent tick and collection window, simulated seconds
SMOOTHING = 3  # as benchmarks/common.run_pair sets it
SAMPLE_KEYS = 256  # keys read back against the reference after the timed phase


@dataclasses.dataclass(frozen=True)
class Spec:
    workload: str  # repro workload name
    agent: bool  # ReadaheadAgent in the loop; otherwise a bare collector
    ops_per_second: int  # timed ops per --seconds, sized on a 2-vCPU x86 VM
    max_ops: int  # more would overflow the memtable into a flush


SPECS = {
    "readrandom_collect": Spec("readrandom", False, ops_per_second=8000, max_ops=10**9),
    "mixgraph_kml": Spec("mixgraph", True, ops_per_second=8000, max_ops=100_000),
}


class CheckedDB:
    """The DB handle the workload sees.

    It forwards to MiniKV and checks every result against a reference
    map of the puts it forwarded: a get returns the last value put, and
    a scan returns ascending keys, from its seek key on, with their
    last values.
    """

    def __init__(self, db: MiniKV):
        self.db = db
        self.reference: Dict[bytes, bytes] = {}
        self.mismatches = 0
        self.first_mismatch = ""

    def put(self, key: bytes, value: bytes) -> None:
        self.db.put(key, value)
        self.reference[key] = value

    def get(self, key: bytes) -> Optional[bytes]:
        value = self.db.get(key)
        if value != self.reference.get(key):
            self._mismatch(f"get {key!r} did not return the last value put")
        return value

    def scan(self, start_key: Optional[bytes] = None):
        return self._checked(self.db.scan(start_key), start_key)

    def _checked(self, records, start_key):
        previous = None
        for key, value in records:
            if previous is None:
                ordered = start_key is None or key >= start_key
            else:
                ordered = key > previous
            if not ordered:
                self._mismatch(f"scan from {start_key!r} returned {key!r} out of order")
            elif value != self.reference.get(key):
                self._mismatch(f"scan returned a value of {key!r} other than the last put")
            previous = key
            yield key, value

    def close(self) -> None:
        self.db.close()

    def _mismatch(self, message: str) -> None:
        self.mismatches += 1
        if not self.first_mismatch:
            self.first_mismatch = message


class TimedWorkload:
    """A repro workload whose every ``step`` the driver times."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.op_start_ns = array("q")
        self.op_ns = array("q")

    def bind(self, db, rng) -> None:
        self.inner.bind(db, rng)

    def step(self) -> None:
        start = time.perf_counter_ns()
        self.inner.step()
        self.op_ns.append(time.perf_counter_ns() - start)
        self.op_start_ns.append(start)


class StorageEnv:
    """A populated Table-2 stack with its client, ready for a timed phase."""

    def __init__(self, name: str, seed: int):
        spec = SPECS[name]
        populate_seq, ops_seq, sample_seq = np.random.SeedSequence(seed).spawn(3)
        self.name = name
        self.seed = seed
        self.stack = make_stack(DEVICE, cache_pages=CACHE_PAGES, ra_pages=VANILLA_RA)
        self.db = MiniKV(self.stack, DBOptions(memtable_bytes=MEMTABLE_BYTES))
        self.client = CheckedDB(self.db)
        populate_db(self.client, NUM_KEYS, VALUE_SIZE, np.random.default_rng(populate_seq))
        self.stack.set_readahead(VANILLA_RA)
        self.stack.drop_caches()
        self.agent: Optional[ReadaheadAgent] = None
        if spec.agent:
            model, tuning = inputs.load_agent_inputs()
            self.agent = ReadaheadAgent(
                self.stack, model, tuning, DEVICE, smoothing=SMOOTHING
            )
            self.collector = self.agent.collector
        else:
            self.collector = FeatureCollector(self.stack)
        self.windows: List[np.ndarray] = []
        self.workload = TimedWorkload(workload_by_name(spec.workload, NUM_KEYS, VALUE_SIZE))
        self.rng = np.random.default_rng(ops_seq)
        self.sample_rng = np.random.default_rng(sample_seq)

    def on_tick(self, sim_time: float, rate: float) -> None:
        if self.agent is not None:
            self.agent.on_tick(sim_time, rate)
        else:
            self.windows.append(self.collector.snapshot())

    def counters(self) -> dict:
        """The program's own lifetime counters."""
        stack = self.stack
        return {
            "cache": dataclasses.asdict(stack.cache.stats),
            "device": dataclasses.asdict(stack.device.stats),
            "db": dataclasses.asdict(self.db.stats),
            "tracepoints": dict(stack.tracepoints.hit_counts),
            "subscriber_errors": stack.tracepoints.subscriber_errors,
            "ra_changes": stack.block.ra_changes,
            "decisions": len(self.agent.history) if self.agent else 0,
            "sim_now": stack.clock.now,
        }


@dataclasses.dataclass
class Phase:
    """One timed phase: its size, wall time, counter deltas and the
    record its digest covers."""

    ops: int
    sim_s: float
    end_ns: int
    op_start_ns: array
    op_ns: array
    counters: dict
    record: dict


def timed_phase(env: StorageEnv, n_ops: int) -> Phase:
    before = env.counters()
    gc.collect()
    result = run_workload(
        env.stack,
        env.client,
        env.workload,
        n_ops,
        env.rng,
        tick_interval=WINDOW_S,
        on_tick=env.on_tick,
    )
    end = time.perf_counter_ns()
    after = env.counters()
    history = env.agent.history if env.agent else []
    windows = np.asarray(env.windows, dtype=np.float64)
    record = {
        "workload": env.name,
        "seed": env.seed,
        "ops": result.ops,
        "sim_elapsed": result.elapsed,
        "timeline": result.timeline,
        "counters": after,
        "ra_pages": env.stack.block.ra_pages,
        "decisions": [[d.sim_time, d.predicted_class, d.ra_pages] for d in history],
        "windows_sha256": hashlib.sha256(windows.tobytes()).hexdigest(),
    }
    workload = env.workload
    return Phase(
        result.ops,
        result.elapsed,
        end,
        workload.op_start_ns,
        workload.op_ns,
        delta(before, after),
        record,
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(phase: Phase) -> Dict[str, float]:
    """Per-layer counters of the timed phase; exact for a seed."""
    counters = phase.counters
    cache, device, db = counters["cache"], counters["device"], counters["db"]
    ops = phase.ops
    return {
        "os_sim.hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "os_sim.pages_inserted_per_op": cache["inserted"] / ops,
        "os_sim.prefetch_useful_ratio": _ratio(
            cache["prefetch_used"], cache["prefetch_inserted"]
        ),
        "os_sim.wait_sim_s": cache["wait_time"],
        "os_sim.device_requests_per_op": (
            device["read_requests"] + device["write_requests"]
        ) / ops,
        "os_sim.device_pages_read_per_op": device["pages_read"] / ops,
        "os_sim.device_busy_sim_s": device["busy_time"],
        "os_sim.events_per_op": sum(counters["tracepoints"].values()) / ops,
        "os_sim.subscriber_errors": counters["subscriber_errors"],
        "minikv.flushes": db["flushes"],
        "minikv.compactions": db["compactions"],
        "minikv.io_retries": db["io_retries"],
        "readahead.decisions": counters["decisions"],
        "readahead.ra_changes": counters["ra_changes"],
        "readahead.final_ra": phase.record["ra_pages"],
    }


def check_phase(result: Result, env: StorageEnv, phase: Phase, n_ops: int) -> None:
    result.attempted += phase.ops
    if env.client.mismatches:
        result.fail(
            f"{env.client.mismatches} results differ from the reference map; "
            f"first: {env.client.first_mismatch}",
            env.client.mismatches,
        )
    result.check(phase.ops == n_ops, f"ran {phase.ops} of {n_ops} ops")
    db = phase.counters["db"]
    result.check(db["flushes"] == 0, f"{db['flushes']} memtable flushes in the timed phase")
    result.check(db["compactions"] == 0, f"{db['compactions']} compactions in the timed phase")
    errors = phase.counters["subscriber_errors"]
    result.check(errors == 0, f"tracepoint subscribers raised {errors} times")


def check_sample(result: Result, env: StorageEnv) -> None:
    """Read a seeded sample of keys back against the reference map."""
    for index in env.sample_rng.choice(NUM_KEYS, size=SAMPLE_KEYS, replace=False).tolist():
        key = make_key(index)
        result.check(
            env.db.get(key) == env.client.reference[key],
            f"sampled key {key!r} does not read back its last value",
        )


def traced_phase(name: str, seed: int, n_ops: int):
    """The same run, from a fresh set-up, with every boundary spanned."""
    env = StorageEnv(name, seed)
    tracer = Tracer()
    env.collector.detach()
    with Instrumented(tracer, type(env.workload.inner)) as instrumented:
        env.collector.attach()
        try:
            phase = timed_phase(env, n_ops)
        finally:
            env.collector.detach()
    env.collector.attach()
    return env, phase, tracer, instrumented.bloom_rejects


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    spec = SPECS[name]
    if trace:
        seconds = min(seconds, TRACE_MAX_SECONDS)
    n_ops = min(ops_for(seconds, spec.ops_per_second), spec.max_ops)
    result = Result(name, seed)

    def build():
        return StorageEnv(name, seed)

    env, setups = timed_setups(build, 1 if trace else SETUP_REPEATS)
    phase = timed_phase(env, n_ops)
    check_phase(result, env, phase, n_ops)
    check_sample(result, env)
    env = None  # free the stack before the next set-up
    rss_mib = peak_rss_mib()  # before the set-ups below fragment the heap
    if not trace:
        setups += timed_setups(build, SETUP_REPEATS)[1]
    result.ops = phase.ops
    result.digest = digest(phase.record)
    write_json(f"counters-{name}-seed{seed}.json", phase.record)

    sim_ops_per_s = phase.ops / phase.sim_s
    tail = summarize(phase.op_ns, scale=1e-3)
    result.end_to_end = sliced_op_wall_us(
        phase.op_start_ns, phase.op_ns, phase.end_ns, slices_for(phase.ops)
    )
    result.end_to_end.update({"setup_s": fast_mode(setups), "peak_rss_mib": rss_mib})
    result.extra = [
        (
            "op_wall_us.p99",
            result.end_to_end.pop("op_wall_us.p99"),
            "us",
            "of the fast cluster of slices; printed, not bounded",
        ),
        (
            f"op_wall_us.p{tail['tail']}",
            tail["tail_value"],
            "us",
            f"highest percentile with >= 10 samples beyond, n={tail['n']}",
        ),
        ("sim_ops_per_s", sim_ops_per_s, "ops/s", "simulated throughput, exact for a seed"),
    ]
    if not trace:
        return result

    traced_env, traced, tracer, bloom_rejects = traced_phase(name, seed, n_ops)
    result.check(
        traced_env.client.mismatches == 0,
        f"traced pass: {traced_env.client.first_mismatch}",
    )
    result.check(
        digest(traced.record) == result.digest,
        "the traced pass simulated something other than the untraced pass",
    )
    report = span_report(tracer)
    result.check(
        report.nesting_errors == 0,
        f"{report.nesting_errors} spans do not nest inside their parents",
    )
    tracer.save(out_path(f"spans-{name}-seed{seed}.npz"))
    calls = report.calls
    result.per_layer = report.metrics()
    result.per_layer.update(counter_metrics(traced))
    result.per_layer.update(
        {
            "minikv.tables_probed_per_get": _ratio(
                calls.get("minikv.sstable_get", 0), calls.get("minikv.get", 0)
            ),
            "minikv.bloom_reject_ratio": _ratio(
                bloom_rejects, calls.get("minikv.bloom_probe", 0)
            ),
            "trace.overhead_ratio": sliced_op_wall_us(
                traced.op_start_ns, traced.op_ns, traced.end_ns, slices_for(traced.ops)
            )["wall_us_per_op"]
            / result.end_to_end["wall_us_per_op"],
            "sim_ops_per_s": sim_ops_per_s,
        }
    )
    result.report = report.lines()
    return result
