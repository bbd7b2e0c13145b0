"""Benchmark workloads: db_bench equivalents plus mixgraph."""

from .base import Workload, make_key, make_value, KEY_FORMAT
from .generators import (
    FillRandom,
    FillSeq,
    ReadRandom,
    ReadRandomWriteRandom,
    ReadReverse,
    ReadSeq,
    UpdateRandom,
    populate_db,
    workload_by_name,
)
from .mixgraph import MixGraph
from .runner import (
    CPU_OP_S,
    LoadedStack,
    RunResult,
    load_stack,
    run_closed_loop,
    run_workload,
)
from .zipf import ZipfGenerator

__all__ = [
    "Workload",
    "make_key",
    "make_value",
    "KEY_FORMAT",
    "FillRandom",
    "FillSeq",
    "ReadRandom",
    "ReadRandomWriteRandom",
    "ReadReverse",
    "ReadSeq",
    "UpdateRandom",
    "populate_db",
    "MixGraph",
    "CPU_OP_S",
    "RunResult",
    "run_workload",
    "workload_by_name",
    "LoadedStack",
    "load_stack",
    "run_closed_loop",
    "ZipfGenerator",
]
