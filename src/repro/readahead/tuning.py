"""The workload -> best-readahead mapping (paper section 4, "Studying
the problem").

The paper ran RocksDB under 20 readahead sizes from 8 to 1024 on two
devices and "built a mapping from the workload type to the readahead
value that provided the best throughput"; the deployed KML application
looks predictions up in that mapping.  :func:`sweep_best_readahead`
regenerates the mapping on the simulator with :func:`repro.kml.sweep`;
:data:`DEFAULT_TUNING_TABLE` ships the values such a sweep produces so
agents can run without a multi-minute sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..kml.study import Sweep, sweep
from ..workloads import load_stack, run_closed_loop

__all__ = [
    "PAPER_RA_VALUES",
    "TuningTable",
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
) -> Tuple[TuningTable, Sweep]:
    """Measure every (workload, ra) point on one device.

    The DB is populated once per workload; caches are dropped between
    points (the paper clears caches after every run).  The sweep holds
    each point's :class:`~repro.workloads.RunResult`.
    """

    def start(name: str):
        loaded = load_stack(
            device, num_keys, value_size, cache_pages,
            memtable_bytes=memtable_bytes, seed=seed, ra_pages=ra_values[0],
        )
        return lambda ra: run_closed_loop(
            loaded, name, ra_pages=ra, n_ops=ops_per_point
        )[0]

    study = sweep(workloads, [int(ra) for ra in ra_values], start)
    tuning = TuningTable()
    for name in study.results:
        tuning.set(device, name, study.best(name))
    return tuning, study


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
