"""Writeback policy configurations (the knobs the tuner actuates) and
their study.

Linux exposes the same pair as ``vm.dirty_ratio`` (how much dirty data
may accumulate) and the block layer's request merging (how large
writeback I/Os become); here they are ``dirty_threshold`` and
``writeback_batch`` on the simulated page cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..kml.study import Sweep, sweep
from ..os_sim.stack import StorageStack
from ..workloads import load_stack, run_closed_loop

__all__ = ["WritebackConfig", "DEFAULT_CONFIGS", "sweep_writeback_configs"]


@dataclass(frozen=True)
class WritebackConfig:
    """One (dirty_threshold, writeback_batch) policy point."""

    dirty_threshold: float
    writeback_batch: int

    def __post_init__(self):
        if not 0.0 < self.dirty_threshold <= 1.0:
            raise ValueError("dirty_threshold must be in (0, 1]")
        if self.writeback_batch < 1:
            raise ValueError("writeback_batch must be >= 1")

    def apply(self, stack: StorageStack) -> None:
        """Actuate this policy on a running stack."""
        stack.cache.dirty_threshold = self.dirty_threshold
        stack.cache.writeback_batch = self.writeback_batch

    def __str__(self) -> str:
        return f"thr={self.dirty_threshold:.2f}/batch={self.writeback_batch}"


#: The arm set for sweeps and the bandit tuner: unbatched-and-eager
#: through heavily-batched-and-lazy.
DEFAULT_CONFIGS: Tuple[WritebackConfig, ...] = (
    WritebackConfig(0.05, 1),
    WritebackConfig(0.10, 8),
    WritebackConfig(0.10, 64),
    WritebackConfig(0.40, 64),
    WritebackConfig(0.40, 256),
)


def sweep_writeback_configs(
    device: str,
    workload_name: str,
    num_keys: int = 40_000,
    value_size: int = 400,
    cache_pages: int = 512,
    memtable_bytes: int = 1 << 20,
    ops_per_point: int = 4000,
    seed: int = 42,
) -> Sweep:
    """Measure a write-heavy workload under each of ``DEFAULT_CONFIGS``,
    each on a freshly loaded stack.

    A deliberately small memtable keeps flush/writeback traffic inside
    the measurement window -- the opposite choice from the readahead
    benches, because here the write path *is* the subject.
    """

    def run(config: WritebackConfig):
        loaded = load_stack(
            device, num_keys, value_size, cache_pages,
            memtable_bytes=memtable_bytes, seed=seed,
        )
        return run_closed_loop(
            loaded, workload_name, prepare=config.apply, n_ops=ops_per_point
        )[0]

    return sweep((workload_name,), DEFAULT_CONFIGS, lambda _: run)
