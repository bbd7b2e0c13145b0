"""Empirical study of writeback configurations (mirrors the readahead
"studying the problem" methodology on the new knob)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from ..workloads import load_stack, run_closed_loop
from .configs import DEFAULT_CONFIGS, WritebackConfig

__all__ = ["WritebackSweep", "sweep_writeback_configs"]


@dataclass
class WritebackSweep:
    """Throughput per configuration for one (device, workload)."""

    device: str
    workload: str
    throughput: Dict[WritebackConfig, float] = field(default_factory=dict)

    def best(self) -> WritebackConfig:
        return max(self.throughput, key=lambda c: self.throughput[c])

    def rows(self):
        return sorted(
            ((str(c), t) for c, t in self.throughput.items()),
            key=lambda r: -r[1],
        )


def sweep_writeback_configs(
    device: str,
    workload_name: str,
    configs: Sequence[WritebackConfig] = DEFAULT_CONFIGS,
    num_keys: int = 40_000,
    value_size: int = 400,
    cache_pages: int = 512,
    memtable_bytes: int = 1 << 20,
    ops_per_point: int = 4000,
    seed: int = 42,
) -> WritebackSweep:
    """Measure a write-heavy workload under each writeback policy.

    A deliberately small memtable keeps flush/writeback traffic inside
    the measurement window -- the opposite choice from the readahead
    benches, because here the write path *is* the subject.
    """
    sweep = WritebackSweep(device=device, workload=workload_name)
    for config in configs:
        loaded = load_stack(
            device, num_keys, value_size, cache_pages,
            memtable_bytes=memtable_bytes, seed=seed,
        )
        result, _ = run_closed_loop(
            loaded, workload_name, prepare=config.apply, n_ops=ops_per_point
        )
        sweep.throughput[config] = result.throughput
    return sweep
