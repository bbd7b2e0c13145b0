"""Observability overhead: instrumented vs. uninstrumented hot paths.

The paper's overhead section claims KML's bookkeeping is cheap enough
to live on the I/O path; our equivalent claim is that the metrics layer
(``repro.obs``) adds < 10% to the two hottest instrumented operations:

- circular-buffer push/pop (counters are collect-time callbacks, push
  latency is sampled 1-in-64), and
- ``Matrix`` matmul (a counted guard per op, timing sampled 1-in-16).

Runs three ways:

- ``python benchmarks/bench_obs_overhead.py`` -- full run, asserts the
  budget, writes ``benchmarks/results/obs_overhead.txt``;
- ``... --smoke`` -- fewer iterations (the ``make check`` path);
- ``pytest benchmarks/bench_obs_overhead.py`` -- same checks as tests
  (skipped under ``--benchmark-only``; wall-clock timing needs no
  fixture).

Timing (``common.min_overhead_pair``) interleaves base and instrumented
runs and keeps the pair with the lowest overhead, so a transient load
spike on the box cannot bias one side and fail the assertion.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from common import (  # noqa: E402
    Overhead,
    buffer_rate,
    gate_iters,
    gate_main,
    min_overhead_pair,
    run_overhead_gate,
)

from repro.kml.matrix import Matrix  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.obs.instrument import (  # noqa: E402
    instrument_buffer,
    instrument_matrix_ops,
)
from repro.runtime.circular_buffer import CircularBuffer  # noqa: E402

#: The overhead budget from the issue's acceptance criteria.
MAX_OVERHEAD = 0.10

#: Interleaved base/instrumented pairs per measurement.
REPEATS = 5


def measure_buffer_overhead(smoke: bool = False) -> Overhead:
    """Returns (base ops/s, instrumented ops/s, fractional overhead)."""
    n = gate_iters(200_000, smoke)
    base_buf = CircularBuffer(1024)
    inst_buf = CircularBuffer(1024)
    instrument_buffer(inst_buf, MetricsRegistry())
    return min_overhead_pair(
        lambda: buffer_rate(base_buf, n),
        lambda: buffer_rate(inst_buf, n),
        REPEATS,
    )


def _matmul_rate(a: Matrix, b: Matrix, iters: int) -> float:
    t0 = time.perf_counter()
    for _ in range(iters):
        a @ b
    return iters / (time.perf_counter() - t0)


def measure_matmul_overhead(smoke: bool = False) -> Overhead:
    """Batch-sized matmul (64x32 @ 32x32), as one training step runs."""
    n = gate_iters(20_000, smoke)
    rng = np.random.default_rng(0)
    a = Matrix(rng.normal(size=(64, 32)), dtype="float32")
    b = Matrix(rng.normal(size=(32, 32)), dtype="float32")

    registry = MetricsRegistry()
    detach = instrument_matrix_ops(registry)

    def run_base() -> float:
        detach()
        return _matmul_rate(a, b, n)

    def run_inst() -> float:
        instrument_matrix_ops(registry)
        try:
            return _matmul_rate(a, b, n)
        finally:
            detach()

    return min_overhead_pair(run_base, run_inst, REPEATS)


CASES = (
    ("buffer push+pop", measure_buffer_overhead, True),
    ("matmul 64x32@32x32", measure_matmul_overhead, True),
)


def run(smoke: bool = False) -> int:
    return run_overhead_gate(
        "Observability overhead (instrumented vs. uninstrumented)",
        "instr",
        CASES,
        MAX_OVERHEAD,
        "(paper-style overhead accounting; see docs/OBSERVABILITY.md)",
        "obs_overhead.txt",
        smoke=smoke,
    )


# -- pytest entry points ------------------------------------------------


def test_buffer_push_overhead_within_budget():
    _, _, overhead = measure_buffer_overhead()
    assert overhead < MAX_OVERHEAD, f"buffer overhead {overhead * 100:.1f}%"


def test_matmul_overhead_within_budget():
    _, _, overhead = measure_matmul_overhead()
    assert overhead < MAX_OVERHEAD, f"matmul overhead {overhead * 100:.1f}%"


if __name__ == "__main__":
    sys.exit(gate_main(__doc__, run))
