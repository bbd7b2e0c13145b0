"""Workload runner: executes ops on simulated time, ticking per second.

Throughput is ops per *simulated* second.  The runner charges a small
per-op CPU cost (application work between I/Os) and invokes an optional
``on_tick`` callback at every simulated-second boundary -- that callback
is where the KML readahead agent runs its once-per-second inference,
closing the paper's Figure-1 loop.

:func:`run_closed_loop` is that loop with its cold-start protocol: every
study, benchmark and CLI run goes through it on a stack that
:func:`load_stack` populated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..minikv.db import DBOptions, MiniKV
from ..os_sim.block_layer import DEFAULT_RA_PAGES
from ..os_sim.stack import StorageStack, make_stack
from .base import Workload
from .generators import populate_db, workload_by_name

__all__ = [
    "RunResult",
    "run_workload",
    "CPU_OP_S",
    "LoadedStack",
    "load_stack",
    "run_closed_loop",
]

#: CPU work per logical DB op (key comparison, protocol, app logic).
CPU_OP_S = 2e-6


@dataclass
class RunResult:
    """Outcome of one workload run."""

    workload: str
    ops: int
    elapsed: float                       # simulated seconds
    timeline: List[Tuple[float, float]] = field(default_factory=list)
    # per-second (timestamp, ops/sec) samples

    @property
    def throughput(self) -> float:
        """Mean ops per simulated second."""
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0


TickCallback = Callable[[float, float], None]  # (sim_time, ops_per_sec)


def run_workload(
    stack: StorageStack,
    db: MiniKV,
    workload: Workload,
    n_ops: int,
    rng: np.random.Generator,
    tick_interval: float = 1.0,
    on_tick: Optional[TickCallback] = None,
    max_sim_seconds: Optional[float] = None,
) -> RunResult:
    """Run ``n_ops`` operations (or until ``max_sim_seconds``).

    ``on_tick`` fires at every ``tick_interval`` of simulated time with
    the throughput of the window just closed; the timeline of those
    samples is returned for Figure-2-style plots.
    """
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    if tick_interval <= 0:
        raise ValueError("tick_interval must be positive")
    if max_sim_seconds is not None and max_sim_seconds <= 0:
        raise ValueError("max_sim_seconds must be positive")
    workload.bind(db, rng)
    clock = stack.clock
    start = clock.now
    next_tick = start + tick_interval
    ops_at_window_start = 0
    timeline: List[Tuple[float, float]] = []
    executed = 0
    for _ in range(n_ops):
        workload.step()
        clock.advance(CPU_OP_S)
        executed += 1
        while clock.now >= next_tick:
            window_ops = executed - ops_at_window_start
            rate = window_ops / tick_interval
            timeline.append((next_tick - start, rate))
            if on_tick is not None:
                on_tick(next_tick - start, rate)
            ops_at_window_start = executed
            next_tick += tick_interval
        if max_sim_seconds is not None and clock.now - start >= max_sim_seconds:
            break
    elapsed = clock.now - start
    return RunResult(
        workload=workload.name, ops=executed, elapsed=elapsed, timeline=timeline
    )


@dataclass
class LoadedStack:
    """A populated DB on its own storage stack; every run starts cold."""

    stack: StorageStack
    db: MiniKV
    num_keys: int
    value_size: int
    seed: int


def load_stack(
    device: str,
    num_keys: int,
    value_size: int,
    cache_pages: int,
    memtable_bytes: int = 8 << 20,
    seed: int = 42,
    ra_pages: int = DEFAULT_RA_PAGES,
) -> LoadedStack:
    """Build a stack and fill its DB with ``populate_db``.

    ``ra_pages`` is the readahead in force while the DB is populated;
    the seed also picks the default workload rng of each run.
    """
    stack = make_stack(device, cache_pages=cache_pages, ra_pages=ra_pages)
    db = MiniKV(stack, DBOptions(memtable_bytes=memtable_bytes))
    populate_db(db, num_keys, value_size, np.random.default_rng(seed))
    return LoadedStack(stack, db, num_keys, value_size, seed)


def run_closed_loop(
    loaded: LoadedStack,
    workload: str,
    policy: Optional[Callable[[StorageStack], Any]] = None,
    ra_pages: Optional[int] = None,
    prepare: Optional[Callable[[StorageStack], None]] = None,
    n_ops: Optional[int] = None,
    sim_seconds: Optional[float] = None,
    window: float = 1.0,
    rng_seed: Optional[int] = None,
) -> Tuple[RunResult, Any]:
    """Run ``workload`` once on ``loaded``, from a cold page cache.

    ``prepare(stack)`` runs first, then the readahead is set to
    ``ra_pages`` (when given) and the page cache is dropped.  Only then
    does ``policy(stack)`` build the per-window policy: an object whose
    ``on_tick(sim_time, ops_per_sec)`` runs every ``window`` simulated
    seconds and whose ``detach()``, if it has one, runs after the run.
    The run stops after ``n_ops`` ops or ``sim_seconds`` simulated
    seconds, whichever comes first; the workload rng is seeded with
    ``rng_seed``, by default the populate seed + 1.  A loaded stack can
    be run again: its DB keeps what earlier runs wrote.

    Returns the run and the policy (``None`` without one).
    """
    if n_ops is None and sim_seconds is None:
        raise ValueError("bound the run with n_ops or sim_seconds")
    stack = loaded.stack
    if prepare is not None:
        prepare(stack)
    if ra_pages is not None:
        stack.set_readahead(ra_pages)
    stack.drop_caches()
    active = policy(stack) if policy is not None else None
    result = run_workload(
        stack,
        loaded.db,
        workload_by_name(workload, loaded.num_keys, loaded.value_size),
        n_ops=10**9 if n_ops is None else n_ops,
        rng=np.random.default_rng(loaded.seed + 1 if rng_seed is None else rng_seed),
        tick_interval=window,
        on_tick=active.on_tick if active is not None else None,
        max_sim_seconds=sim_seconds,
    )
    if hasattr(active, "detach"):
        active.detach()
    return result, active
