"""Pieces the workloads share: the result record, run sizing, counter
deltas, the digest and the output directory."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, TypeVar

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Fewest timed ops in a run: op_wall_us.p99 needs ten samples beyond it.
MIN_OPS = 1000

_MAX_MESSAGES = 20

T = TypeVar("T")


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    #: BENCHMARK.json end-to-end metrics, from the untraced pass.
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Further end-to-end figures, printed as (name, value, unit, note).
    extra: List[Tuple[str, float, str, str]] = field(default_factory=list)
    #: BENCHMARK.json per-layer metrics, from the traced pass.
    per_layer: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    report: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted check, and a failure unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < _MAX_MESSAGES:
            self.messages.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: Most slices a timed phase is cut into for its per-op wall figures,
#: and the fewest ops in a slice (ten samples beyond its p99).  Host
#: contention comes in bursts of one to ten seconds, so slices must be
#: short to find the quiet stretches between them.
MAX_SLICES = 120
MIN_SLICE_OPS = 1000

#: Longest timed phase of a traced invocation: every traced op keeps
#: dozens of spans in memory.
TRACE_MAX_SECONDS = 10.0

#: Set-ups before the timed phase and again after it.  Contention on a
#: shared host slows whole stretches of a run, so set-ups some seconds
#: apart are likelier to find it quiet; setup_s is the median of the
#: fast cluster of all of them (see percentiles.fast_mode).  A traced
#: invocation sets up once and reports no setup_s.
SETUP_REPEATS = 3


def ops_for(seconds: float, ops_per_second: int) -> int:
    """Timed ops for a run of about ``seconds`` at the nominal rate."""
    return max(MIN_OPS, int(round(seconds * ops_per_second)))


def slices_for(ops: int) -> int:
    """Slices of at least MIN_SLICE_OPS ops each (one slice for shorter runs)."""
    return max(1, min(MAX_SLICES, ops // MIN_SLICE_OPS))


def timed_setups(build: Callable[[], T], repeats: int) -> Tuple[T, List[float]]:
    """Call ``build`` ``repeats`` times, freeing each build before the
    next; return the last build and the seconds each call took."""
    seconds = []
    built = None
    for _ in range(repeats):
        built = None
        start = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - start)
    return built, seconds


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def delta(before, after):
    """``after - before``, recursively over dicts of numbers."""
    if isinstance(after, dict):
        return {key: delta(before[key], value) for key, value in after.items()}
    return after - before


def digest(record) -> str:
    """SHA-256 of a JSON record; floats serialize exactly (repr)."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def out_path(filename: str) -> str:
    """A path under ``perfbench/out/``, created on first use."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, filename)


def write_json(filename: str, record) -> None:
    with open(out_path(filename), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
