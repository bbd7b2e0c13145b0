"""Convenience assembly of one complete simulated storage stack."""

from __future__ import annotations

from .block_layer import BlockLayer, DEFAULT_RA_PAGES
from .clock import SimClock
from .device import DeviceModel, nvme_ssd, sata_ssd
from .page_cache import PageCache
from .tracepoints import TracepointRegistry
from .vfs import SimFS

__all__ = ["StorageStack", "make_stack"]

#: Default cache size: 8k pages = 32 MiB, sized against the benchmark
#: datasets the same way the paper's DRAM was sized against its RocksDB
#: working set (cache smaller than the hot data of random workloads).
DEFAULT_CACHE_PAGES = 8192


class StorageStack:
    """Clock + device + block layer + page cache + filesystem, wired up."""

    def __init__(
        self,
        device: DeviceModel,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        ra_pages: int = DEFAULT_RA_PAGES,
    ):
        self.clock = SimClock()
        self.device = device
        self.tracepoints = TracepointRegistry()
        self.block = BlockLayer(device, ra_pages=ra_pages)
        self.cache = PageCache(
            self.clock, device, self.tracepoints, capacity_pages=cache_pages
        )
        self.fs = SimFS(self.clock, self.block, self.cache, self.tracepoints)

    def set_readahead(self, ra_pages: int) -> None:
        """Device-wide readahead change (what the KML agent actuates).

        Emits ``block_ra_set`` so traces capture the knob's history --
        offline feature extraction needs feature (v), the readahead
        value in force when each window closed.
        """
        self.block.ioctl_blkraset(ra_pages)
        self.tracepoints.emit("block_ra_set", self.clock.now, value=ra_pages)

    def drop_caches(self) -> None:
        self.cache.drop_caches()

    @property
    def now(self) -> float:
        return self.clock.now


def make_stack(
    device_name: str = "nvme",
    cache_pages: int = DEFAULT_CACHE_PAGES,
    ra_pages: int = DEFAULT_RA_PAGES,
) -> StorageStack:
    """Build a stack for ``"nvme"`` or ``"ssd"``.

    A stack over any other :class:`DeviceModel` is ``StorageStack(device)``.
    """
    if device_name == "nvme":
        device = nvme_ssd()
    elif device_name == "ssd":
        device = sata_ssd()
    else:
        raise ValueError(f"unknown device {device_name!r}; use 'nvme' or 'ssd'")
    return StorageStack(device, cache_pages=cache_pages, ra_pages=ra_pages)
