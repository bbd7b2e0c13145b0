"""Workload abstraction: one logical DB operation at a time.

The runner executes workloads op-by-op so it can observe simulated-
second boundaries between ops -- that is where the KML agent's
once-per-second inference hooks in, exactly as the paper's readahead
model "is designed to be processed and fed to the readahead neural
network for every second".
"""

from __future__ import annotations

import numpy as np

from ..minikv.db import MiniKV

__all__ = ["Workload", "make_key", "make_value", "KEY_FORMAT"]

KEY_FORMAT = b"user%012d"


def make_key(index: int) -> bytes:
    """db_bench-style fixed-width key."""
    return KEY_FORMAT % index


def make_value(rng: np.random.Generator, size: int) -> bytes:
    """Printable pseudo-random payload of ``size`` bytes."""
    return bytes(rng.integers(65, 91, size=size, dtype=np.uint8))


class Workload:
    """Base class: subclasses implement :meth:`step` (one logical op)."""

    #: canonical db_bench-style name, also the classifier label name
    name: str = "workload"

    def __init__(self, num_keys: int, value_size: int = 100):
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if value_size < 1:
            raise ValueError("value_size must be >= 1")
        self.num_keys = num_keys
        self.value_size = value_size

    def bind(self, db: MiniKV, rng: np.random.Generator) -> None:
        """Called once before stepping begins; default stores handles."""
        self.db = db
        self.rng = rng

    def step(self) -> None:
        """Execute one logical operation against the bound DB."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_keys={self.num_keys})"
