"""The KML development API: one code base, user space and kernel space.

KML "can be compiled in both user and kernel space with identical
behavior" through a thin portability layer of **27 functions** covering
five areas: (i) system memory allocation, (ii) threading, (iii)
logging, (iv) atomic operations, and (v) file operations (section 3.3).
``kml_malloc`` calls ``malloc`` in user space and ``kmalloc`` in the
kernel; everything above the layer is byte-identical.

:class:`KmlEnvironment` reproduces that layer.  Two profiles exist:

- :func:`user_environment` -- unconstrained, like a userspace process;
- :func:`kernel_environment` -- memory goes through a reservation-
  capable accountant, FPU sections are tracked (``kernel_fpu_begin`` /
  ``kernel_fpu_end`` bracket every float block, and the environment
  counts the context switches they would cost), and file ops go through
  a restricted root, as a kernel module's would.

The same model/agent code runs against either profile; the integration
tests assert identical numerical behaviour across the two, which is the
paper's interoperability claim.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .atomics import AtomicInt
from .kml_logging import KmlLogger
from .memory import Allocation, KmlMemoryError, MemoryAccountant

__all__ = [
    "KmlEnvironment",
    "user_environment",
    "kernel_environment",
    "DEV_API_FUNCTIONS",
]

#: The 27 functions of the development API, by area (section 3.3).
DEV_API_FUNCTIONS: Dict[str, List[str]] = {
    "memory": [
        "kml_malloc",
        "kml_calloc",
        "kml_free",
        "kml_mem_in_use",
        "kml_mem_peak",
        "kml_mem_reserve",
    ],
    "threading": [
        "kml_create_thread",
        "kml_join_thread",
        "kml_sleep_ms",
        "kml_yield",
        "kml_time_ns",
        "kml_fpu_begin",
        "kml_fpu_end",
    ],
    "logging": [
        "kml_log_debug",
        "kml_log_info",
        "kml_log_warn",
        "kml_log_err",
    ],
    "atomics": [
        "kml_atomic_int",
        "kml_atomic_load",
        "kml_atomic_store",
        "kml_atomic_add",
        "kml_atomic_cas",
    ],
    "files": [
        "kml_file_open",
        "kml_file_read",
        "kml_file_write",
        "kml_file_close",
        "kml_file_size",
    ],
}


class _KmlFile:
    """Minimal file handle returned by ``kml_file_open``."""

    def __init__(self, fileobj, path: str):
        self._file = fileobj
        self.path = path
        self.closed = False


class KmlEnvironment:
    """One instantiation of the 27-function development API."""

    def __init__(
        self,
        name: str,
        accountant: MemoryAccountant,
        logger: Optional[KmlLogger] = None,
        file_root: Optional[str] = None,
        kernel_mode: bool = False,
    ):
        self.name = name
        self.memory = accountant
        self.logger = logger or KmlLogger()
        self.file_root = file_root
        self.kernel_mode = kernel_mode
        self._fpu_depth = 0
        self._fpu_lock = threading.Lock()
        self.fpu_sections = 0  # completed begin/end brackets
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # (i) memory
    # ------------------------------------------------------------------

    def kml_malloc(self, size: int) -> Allocation:
        """malloc in user space, kmalloc in the kernel; accounted."""
        return self.memory.allocate(size)

    def kml_calloc(self, count: int, size: int) -> Allocation:
        """Zeroed allocation of ``count * size`` bytes."""
        return self.memory.allocate(count * size)

    def kml_free(self, allocation: Allocation) -> None:
        allocation.free()

    def kml_mem_in_use(self) -> int:
        return self.memory.in_use

    def kml_mem_peak(self) -> int:
        return self.memory.peak

    def kml_mem_reserve(self, nbytes: int) -> None:
        """Install (or raise) the reservation budget."""
        if nbytes < self.memory.in_use:
            raise KmlMemoryError(
                f"cannot reserve {nbytes} B below current use "
                f"({self.memory.in_use} B)"
            )
        self.memory.reservation = nbytes

    # ------------------------------------------------------------------
    # (ii) threading / time / FPU
    # ------------------------------------------------------------------

    def kml_create_thread(
        self, fn: Callable[..., None], *args: Any, name: str = "kml-thread"
    ) -> threading.Thread:
        thread = threading.Thread(target=fn, args=args, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()
        return thread

    def kml_join_thread(self, thread: threading.Thread, timeout: float = 10.0) -> None:
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError(f"thread {thread.name} did not finish")

    def kml_sleep_ms(self, ms: float) -> None:
        time.sleep(ms / 1000.0)

    def kml_yield(self) -> None:
        time.sleep(0)

    def kml_time_ns(self) -> int:
        return time.monotonic_ns()

    def kml_fpu_begin(self) -> None:
        """Enter an FPU-using section (kernel_fpu_begin).

        Nested sections are allowed; only the outermost bracket counts
        as a context-switch-costly transition, which is why KML
        "minimizes the number of code blocks using FPs".
        """
        with self._fpu_lock:
            self._fpu_depth += 1

    def kml_fpu_end(self) -> None:
        with self._fpu_lock:
            if self._fpu_depth == 0:
                raise RuntimeError("kml_fpu_end without kml_fpu_begin")
            self._fpu_depth -= 1
            if self._fpu_depth == 0:
                self.fpu_sections += 1

    @property
    def in_fpu_section(self) -> bool:
        return self._fpu_depth > 0

    # ------------------------------------------------------------------
    # (iii) logging
    # ------------------------------------------------------------------

    def kml_log_debug(self, message: str) -> None:
        self.logger.debug(message)

    def kml_log_info(self, message: str) -> None:
        self.logger.info(message)

    def kml_log_warn(self, message: str) -> None:
        self.logger.warn(message)

    def kml_log_err(self, message: str) -> None:
        self.logger.err(message)

    # ------------------------------------------------------------------
    # (iv) atomics
    # ------------------------------------------------------------------

    def kml_atomic_int(self, value: int = 0) -> AtomicInt:
        return AtomicInt(value)

    def kml_atomic_load(self, atom: AtomicInt) -> int:
        return atom.load()

    def kml_atomic_store(self, atom: AtomicInt, value: int) -> None:
        atom.store(value)

    def kml_atomic_add(self, atom: AtomicInt, delta: int) -> int:
        return atom.add_fetch(delta)

    def kml_atomic_cas(self, atom: AtomicInt, expected: int, desired: int) -> bool:
        return atom.compare_exchange(expected, desired)

    # ------------------------------------------------------------------
    # (v) files
    # ------------------------------------------------------------------

    def _resolve(self, path: str) -> str:
        if self.file_root is None:
            return path
        resolved = os.path.realpath(os.path.join(self.file_root, path))
        root = os.path.realpath(self.file_root)
        if not resolved.startswith(root + os.sep) and resolved != root:
            raise PermissionError(f"{path!r} escapes the environment root")
        return resolved

    def kml_file_open(self, path: str, mode: str = "rb") -> _KmlFile:
        if any(c not in "rwab+" for c in mode):
            raise ValueError(f"unsupported mode {mode!r}")
        resolved = self._resolve(path)
        return _KmlFile(open(resolved, mode), resolved)

    def kml_file_read(self, handle: _KmlFile, size: int = -1) -> bytes:
        if handle.closed:
            raise ValueError("read on closed KML file")
        return handle._file.read(size)

    def kml_file_write(self, handle: _KmlFile, data: bytes) -> int:
        if handle.closed:
            raise ValueError("write on closed KML file")
        return handle._file.write(data)

    def kml_file_close(self, handle: _KmlFile) -> None:
        if not handle.closed:
            handle._file.close()
            handle.closed = True

    def kml_file_size(self, path: str) -> int:
        return os.path.getsize(self._resolve(path))

    # ------------------------------------------------------------------

    def api_functions(self) -> List[str]:
        """Names of all development-API entry points on this object."""
        return [name for names in DEV_API_FUNCTIONS.values() for name in names]


def user_environment(name: str = "user") -> KmlEnvironment:
    """Unconstrained user-space profile (malloc, stdio, no FPU cost)."""
    return KmlEnvironment(name=name, accountant=MemoryAccountant(name=name))


def kernel_environment(
    name: str = "kernel",
    reservation: Optional[int] = 4 * 1024 * 1024,
    file_root: Optional[str] = None,
) -> KmlEnvironment:
    """Kernel profile: reserved memory, tracked FPU sections, jailed files."""
    accountant = MemoryAccountant(reservation=reservation, name=name)
    return KmlEnvironment(
        name=name,
        accountant=accountant,
        file_root=file_root,
        kernel_mode=True,
    )
