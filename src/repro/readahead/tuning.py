"""The workload -> best-readahead mapping (paper section 4, "Studying
the problem").

The paper ran RocksDB under 20 readahead sizes from 8 to 1024 on two
devices and "built a mapping from the workload type to the readahead
value that provided the best throughput"; the deployed KML application
looks predictions up in that mapping.  :func:`sweep_best_readahead`
regenerates the mapping on the simulator; :data:`DEFAULT_TUNING_TABLE`
ships the values such a sweep produces so agents can run without a
multi-minute sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..workloads import load_stack, run_closed_loop

__all__ = [
    "PAPER_RA_VALUES",
    "TuningTable",
    "SweepResult",
    "sweep_best_readahead",
    "DEFAULT_TUNING_TABLE",
]

#: "20 different readahead sizes (ranging from 8 to 1024)" --
#: log-spaced, unique, including both endpoints.
PAPER_RA_VALUES: Tuple[int, ...] = tuple(
    sorted(
        {
            int(round(8 * (1024 / 8) ** (i / 19)))
            for i in range(20)
        }
    )
)


@dataclass
class TuningTable:
    """device -> workload-class -> best readahead (pages)."""

    table: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def best_ra(self, device: str, workload: str) -> int:
        try:
            return self.table[device][workload]
        except KeyError:
            raise KeyError(
                f"no tuning entry for device={device!r} workload={workload!r}"
            ) from None

    def set(self, device: str, workload: str, ra: int) -> None:
        self.table.setdefault(device, {})[workload] = ra

    def to_json(self) -> str:
        return json.dumps(self.table, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "TuningTable":
        table = json.loads(raw)
        if not isinstance(table, dict):
            raise ValueError("tuning table JSON must be an object")
        for device, entries in table.items():
            if not isinstance(entries, dict):
                raise ValueError(
                    f"tuning table: device {device!r} must map to an object"
                )
            for workload, ra in entries.items():
                if type(ra) is not int or ra < 0:
                    raise ValueError(
                        f"tuning table: device={device!r} workload={workload!r}"
                        f" readahead must be a non-negative integer, got {ra!r}"
                    )
        return cls(table=table)

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "TuningTable":
        with open(path) as f:
            return cls.from_json(f.read())


@dataclass
class SweepResult:
    """Raw sweep data: throughput per (workload, ra) for one device."""

    device: str
    throughput: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def best_ra(self, workload: str) -> int:
        curve = self.throughput[workload]
        return max(curve, key=lambda ra: curve[ra])

    def rows(self) -> List[Tuple[str, int, float]]:
        out = []
        for workload in sorted(self.throughput):
            for ra in sorted(self.throughput[workload]):
                out.append((workload, ra, self.throughput[workload][ra]))
        return out


def sweep_best_readahead(
    device: str,
    workloads: Sequence[str],
    ra_values: Sequence[int] = PAPER_RA_VALUES,
    num_keys: int = 60_000,
    value_size: int = 400,
    cache_pages: int = 512,
    ops_per_point: int = 3000,
    memtable_bytes: int = 8 << 20,
    seed: int = 42,
) -> Tuple[TuningTable, SweepResult]:
    """Measure throughput for every (workload, ra) point on one device.

    The DB is populated once per workload; caches are dropped between
    points (the paper clears caches after every run).
    """
    result = SweepResult(device=device)
    tuning = TuningTable()
    for name in workloads:
        loaded = load_stack(
            device, num_keys, value_size, cache_pages,
            memtable_bytes=memtable_bytes, seed=seed, ra_pages=ra_values[0],
        )
        curve: Dict[int, float] = {}
        for ra in ra_values:
            run, _ = run_closed_loop(
                loaded, name, ra_pages=int(ra), n_ops=ops_per_point
            )
            curve[int(ra)] = run.throughput
        result.throughput[name] = curve
        tuning.set(device, name, result.best_ra(name))
    return tuning, result


#: Values a full sweep produces on the shipped simulator parameters
#: (regenerate with benchmarks/bench_sweep.py).  Random-dominated
#: classes want the minimum; scans want mid-range windows.
DEFAULT_TUNING_TABLE = TuningTable(
    table={
        "nvme": {
            "readseq": 32,
            "readrandom": 8,
            "readreverse": 32,
            "readrandomwriterandom": 8,
        },
        "ssd": {
            "readseq": 32,
            "readrandom": 8,
            "readreverse": 32,
            "readrandomwriterandom": 8,
        },
    }
)
