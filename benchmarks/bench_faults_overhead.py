"""Fault-plane overhead: armed-but-untargeted vs. no plane at all.

The fault subsystem (``repro.faults``) lives on the same hot paths the
paper keeps lean: VFS writes and circular-buffer pushes.  Its contract
is that a site nobody targets costs one ``is not None`` check, so the
budget here is tighter than the observability one:

- **untargeted** (a plane is attached but no rule names the measured
  site, so the resolved handle is ``None``): < 2% overhead -- this is
  the "faults disabled" acceptance criterion;
- **inert rule** (a ``probability=0.0`` rule on the measured site, so
  every op takes the full ``FaultSite.fire()`` path without ever
  triggering): reported informationally, not asserted -- armed sites
  are a test-only configuration.

Runs three ways, mirroring ``bench_obs_overhead.py``:

- ``python benchmarks/bench_faults_overhead.py`` -- full run, asserts
  the budget, writes ``benchmarks/results/faults_overhead.txt``;
- ``... --smoke`` -- fewer iterations (the ``make check`` path);
- ``pytest benchmarks/bench_faults_overhead.py`` -- budget checks as
  tests.

Timing (``common.min_overhead_pair``) interleaves base and armed runs
and keeps the pair with the lowest overhead, so a transient load spike
cannot bias one side.
"""

from __future__ import annotations

import os
import sys
import time
from functools import partial
from typing import Callable

sys.path.insert(0, os.path.dirname(__file__))

from common import (  # noqa: E402
    Overhead,
    buffer_rate,
    gate_iters,
    gate_main,
    min_overhead_pair,
    run_overhead_gate,
)

from repro.faults import FaultKind, FaultPlane  # noqa: E402
from repro.os_sim import make_stack  # noqa: E402
from repro.runtime.circular_buffer import CircularBuffer  # noqa: E402

#: The acceptance-criteria budget for faults-disabled hot paths.
MAX_OVERHEAD = 0.02

#: Interleaved base/armed pairs per measurement.
REPEATS = 7


def _untargeted_plane(site: str) -> FaultPlane:
    """A plane with a rule, but not on any site measured here."""
    return FaultPlane(seed=0).inject(
        "model_io.load", FaultKind.ERROR, probability=1.0
    )


def _inert_plane(site: str) -> FaultPlane:
    """A rule on the measured site that evaluates but never triggers."""
    return FaultPlane(seed=0).inject(site, FaultKind.ERROR, probability=0.0)


def _vfs_write_rate(stack, handle, iters: int) -> float:
    write, data = stack.fs.write, b"x" * 64
    t0 = time.perf_counter()
    for _ in range(iters):
        write(handle, 0, data)
    return iters / (time.perf_counter() - t0)


def measure_vfs_overhead(
    plane_for: Callable[[str], FaultPlane], smoke: bool = False
) -> Overhead:
    n = gate_iters(50_000, smoke)
    stack = make_stack("nvme")
    handle = stack.fs.open("bench", create=True)

    def run_base() -> float:
        stack.fs.detach_faults()
        return _vfs_write_rate(stack, handle, n)

    def run_armed() -> float:
        stack.fs.attach_faults(plane_for("vfs.write"))
        try:
            return _vfs_write_rate(stack, handle, n)
        finally:
            stack.fs.detach_faults()

    return min_overhead_pair(run_base, run_armed, REPEATS)


def measure_buffer_overhead(
    plane_for: Callable[[str], FaultPlane], smoke: bool = False
) -> Overhead:
    n = gate_iters(200_000, smoke)
    buf = CircularBuffer(1024)

    def run_base() -> float:
        buf.detach_faults()
        return buffer_rate(buf, n)

    def run_armed() -> float:
        buf.attach_faults(plane_for("buffer.push"))
        try:
            return buffer_rate(buf, n)
        finally:
            buf.detach_faults()

    return min_overhead_pair(run_base, run_armed, REPEATS)


CASES = (
    ("vfs write (untargeted)",
     partial(measure_vfs_overhead, _untargeted_plane), True),
    ("buffer push+pop (untargeted)",
     partial(measure_buffer_overhead, _untargeted_plane), True),
    ("vfs write (inert rule)",
     partial(measure_vfs_overhead, _inert_plane), False),
    ("buffer push+pop (inert rule)",
     partial(measure_buffer_overhead, _inert_plane), False),
)


def run(smoke: bool = False) -> int:
    return run_overhead_gate(
        "Fault-plane overhead (armed plane vs. no plane)",
        "armed",
        CASES,
        MAX_OVERHEAD,
        "with no rule on the site "
        "(the faults-disabled criterion; see docs/FAULTS.md)",
        "faults_overhead.txt",
        smoke=smoke,
        info_note="inert-rule rows are informational (test-only config)",
    )


# -- pytest entry points ------------------------------------------------


def test_vfs_write_untargeted_within_budget():
    _, _, overhead = measure_vfs_overhead(_untargeted_plane)
    assert overhead < MAX_OVERHEAD, f"vfs overhead {overhead * 100:.1f}%"


def test_buffer_push_untargeted_within_budget():
    _, _, overhead = measure_buffer_overhead(_untargeted_plane)
    assert overhead < MAX_OVERHEAD, f"buffer overhead {overhead * 100:.1f}%"


if __name__ == "__main__":
    sys.exit(gate_main(__doc__, run))
