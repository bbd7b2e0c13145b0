"""Simulated OS storage stack (the paper's kernel-side substrate).

Discrete-event models of the pieces the KML readahead case study
observes and actuates: a clock, block devices (NVMe/SATA SSD), an LRU
page cache with Linux-style on-demand readahead, kernel tracepoints,
the block-layer readahead ioctl, and a small VFS with fadvise.
"""

from .block_layer import BlockLayer, DEFAULT_RA_PAGES
from .clock import SimClock
from .device import (
    PAGE_SIZE,
    DeviceModel,
    DeviceStats,
    hard_disk,
    nvme_ssd,
    sata_ssd,
)
from .page_cache import CacheStats, PageCache
from .readahead import (
    INITIAL_SEQ_WINDOW,
    RANDOM_WINDOW_DIVISOR,
    ReadaheadPlan,
    ReadaheadState,
    plan_hit,
    plan_miss,
)
from .stack import DEFAULT_CACHE_PAGES, StorageStack, make_stack
from .tracepoints import STANDARD_TRACEPOINTS, TraceEvent, TracepointRegistry
from .vfs import Fadvise, File, Inode, MemoryMap, SimFS

__all__ = [
    "BlockLayer",
    "DEFAULT_RA_PAGES",
    "DEFAULT_CACHE_PAGES",
    "SimClock",
    "PAGE_SIZE",
    "DeviceModel",
    "DeviceStats",
    "hard_disk",
    "nvme_ssd",
    "sata_ssd",
    "CacheStats",
    "PageCache",
    "INITIAL_SEQ_WINDOW",
    "RANDOM_WINDOW_DIVISOR",
    "ReadaheadPlan",
    "ReadaheadState",
    "plan_hit",
    "plan_miss",
    "StorageStack",
    "make_stack",
    "STANDARD_TRACEPOINTS",
    "TraceEvent",
    "TracepointRegistry",
    "Fadvise",
    "File",
    "Inode",
    "MemoryMap",
    "SimFS",
]
