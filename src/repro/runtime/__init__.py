"""KML runtime: OS-integration layer (section 3 of the paper).

Lock-free circular buffering, the asynchronous training thread, memory
accounting/reservation, atomic primitives, logging, and the 27-function
portability ("development") API that lets identical KML code run in
user space and kernel space.
"""

from .atomics import AtomicInt, AtomicFlag
from .circular_buffer import CircularBuffer
from .kml_logging import KmlLogger, LogLevel
from .memory import Allocation, KmlMemoryError, MemoryAccountant
from .portability import (
    DEV_API_FUNCTIONS,
    KmlEnvironment,
    kernel_environment,
    user_environment,
)
from .training_thread import AsyncTrainer, Mode

__all__ = [
    "AtomicInt",
    "AtomicFlag",
    "CircularBuffer",
    "KmlLogger",
    "LogLevel",
    "Allocation",
    "KmlMemoryError",
    "MemoryAccountant",
    "DEV_API_FUNCTIONS",
    "KmlEnvironment",
    "kernel_environment",
    "user_environment",
    "AsyncTrainer",
    "Mode",
]
