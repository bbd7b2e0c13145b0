"""Memory accounting and reservation, mirroring KML's kernel allocator.

KML caps and tracks its kernel memory: model state is a few KB and the
paper reports exact byte counts (3,916 bytes for the readahead model,
676 bytes transiently while inferencing).  It also supports *memory
reservation* so allocation cannot stall or fail under memory pressure
(section 3.1).

:class:`MemoryAccountant` reproduces that bookkeeping: every
``kml_malloc`` (and, optionally, every ``Matrix`` allocation via the
observer hook) is charged against it, high-water marks are recorded,
and an optional reservation budget makes over-allocation fail fast with
:class:`KmlMemoryError` instead of degrading unpredictably.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..kml import matrix as _matrix_mod

__all__ = ["KmlMemoryError", "Allocation", "MemoryAccountant"]


class KmlMemoryError(Exception):
    """Raised when an allocation would exceed the reserved budget."""


class Allocation:
    """Handle for one accounted allocation (free exactly once)."""

    __slots__ = ("size", "_accountant", "_freed", "buffer")

    def __init__(self, size: int, accountant: "MemoryAccountant"):
        self.size = size
        self._accountant = accountant
        self._freed = False
        # The simulated payload; kernel code would get a void*.
        self.buffer = bytearray(size)

    def free(self) -> None:
        if self._freed:
            raise KmlMemoryError("double free of KML allocation")
        self._freed = True
        self._accountant._release(self.size)


class MemoryAccountant:
    """Thread-safe byte accounting with optional reservation budget.

    With ``reservation=None`` the accountant only tracks usage; with a
    byte budget it enforces it, reproducing KML's predictable-memory
    mode.
    """

    def __init__(self, reservation: Optional[int] = None, name: str = "kml"):
        if reservation is not None and reservation < 0:
            raise ValueError("reservation must be non-negative")
        self.name = name
        self.reservation = reservation
        self._lock = threading.Lock()
        self._in_use = 0
        self._peak = 0
        self._total_allocated = 0
        self._allocation_count = 0
        self._failed_allocations = 0

    # ------------------------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Charge ``size`` bytes; raises KmlMemoryError over budget."""
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        self.charge(size)
        return Allocation(size, self)

    def charge(self, size: int) -> None:
        """Account ``size`` bytes with no handle (e.g. Matrix buffers)."""
        with self._lock:
            if (
                self.reservation is not None
                and self._in_use + size > self.reservation
            ):
                self._failed_allocations += 1
                raise KmlMemoryError(
                    f"{self.name}: allocation of {size} B exceeds reservation "
                    f"({self._in_use}/{self.reservation} B in use)"
                )
            self._in_use += size
            self._total_allocated += size
            self._allocation_count += 1
            if self._in_use > self._peak:
                self._peak = self._in_use

    def _release(self, size: int) -> None:
        with self._lock:
            self._in_use -= size

    # ------------------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def peak(self) -> int:
        return self._peak

    @property
    def total_allocated(self) -> int:
        return self._total_allocated

    @property
    def allocation_count(self) -> int:
        return self._allocation_count

    @property
    def failed_allocations(self) -> int:
        return self._failed_allocations

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "in_use": self._in_use,
                "peak": self._peak,
                "total_allocated": self._total_allocated,
                "allocation_count": self._allocation_count,
                "failed_allocations": self._failed_allocations,
            }

    # ------------------------------------------------------------------
    # Matrix-allocation observation
    # ------------------------------------------------------------------

    def observe_matrix_allocations(self) -> "MemoryAccountant":
        """Charge every subsequent ``Matrix`` allocation to this accountant.

        Matrix buffers are garbage-collected by Python, so observed
        bytes are recorded in ``total_allocated``/``peak`` terms via a
        transient charge/release pair -- this measures *allocation
        traffic*, which is what the paper's inference-memory number
        reports.
        """
        _matrix_mod.set_alloc_observer(self._observe)
        return self

    def _observe(self, size: int) -> None:
        self.charge(size)
        self._release(size)

    def stop_observing(self) -> None:
        _matrix_mod.set_alloc_observer(None)

    def __enter__(self) -> "MemoryAccountant":
        return self.observe_matrix_allocations()

    def __exit__(self, *exc) -> None:
        self.stop_observing()
