"""Block-device performance models (the simulated NVMe and SATA SSD).

The paper evaluates on two real devices; we model each as a server with
a fixed per-request overhead plus a per-page transfer time, and a
single busy timeline (requests queue behind each other).  The two
presets are parameterised from public datasheet-class numbers:

- NVMe: ~20 us request overhead, ~3 GB/s -> ~1.3 us per 4 KiB page
- SATA SSD: ~90 us request overhead, ~500 MB/s -> ~7.8 us per page

The *ratios* between the presets -- not the absolute values -- carry the
reproduction: readahead waste costs roughly 6x more per page on the
SATA SSD, which is why the paper's Table 2 gains are larger there.

Asynchronous requests (readahead prefetch, writeback) occupy the device
timeline without blocking the caller; a later foreground read of a page
that is still "in flight" waits until its completion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .clock import SimClock

__all__ = ["DeviceModel", "DeviceStats", "nvme_ssd", "sata_ssd"]

PAGE_SIZE = 4096


@dataclass
class DeviceStats:
    """Lifetime counters for one device."""

    read_requests: int = 0
    write_requests: int = 0
    pages_read: int = 0
    pages_written: int = 0
    busy_time: float = 0.0

    @property
    def total_requests(self) -> int:
        return self.read_requests + self.write_requests


@dataclass
class DeviceModel:
    """A single-queue storage device with latency/bandwidth parameters."""

    name: str
    request_latency_s: float
    per_page_s: float
    stats: DeviceStats = field(default_factory=DeviceStats)
    _busy_until: float = 0.0
    #: The device.submit hook (see repro.hooks): injects errors and
    #: latency spikes, and/or observes each request's service time.
    _submit_hook: Optional[object] = field(default=None, repr=False)

    HOOK_SLOTS = {"device.submit": "_submit_hook"}

    def __post_init__(self):
        if self.request_latency_s < 0 or self.per_page_s <= 0:
            raise ValueError("latencies must be positive")

    # ------------------------------------------------------------------

    def service_time(self, n_pages: int) -> float:
        """Time the device is occupied by one request of ``n_pages``."""
        if n_pages < 1:
            raise ValueError("a request must transfer at least one page")
        return self.request_latency_s + n_pages * self.per_page_s

    def submit(self, clock: SimClock, n_pages: int, is_write: bool = False) -> float:
        """Queue a request at the current time; returns completion time.

        Does *not* advance the clock -- the caller decides whether to
        wait (synchronous read) or continue (prefetch, writeback).
        """
        start = max(clock.now, self._busy_until)
        duration = self.service_time(n_pages)
        hook = self._submit_hook
        if hook is not None:
            if hook.rules:
                # Transient errors raise here; latency spikes stretch
                # the request and are charged to the busy timeline like
                # any other service time.
                action = hook.fire()
                if action is not None:
                    duration += action.seconds
            if hook.hist is not None:
                hook.hist[is_write].observe(duration)
        done = start + duration
        self._busy_until = done
        self.stats.busy_time += duration
        if is_write:
            self.stats.write_requests += 1
            self.stats.pages_written += n_pages
        else:
            self.stats.read_requests += 1
            self.stats.pages_read += n_pages
        return done

    @property
    def busy_until(self) -> float:
        return self._busy_until


def nvme_ssd() -> DeviceModel:
    """NVMe-class device: 20 us/request, ~3.2 GB/s."""
    return DeviceModel(name="nvme", request_latency_s=20e-6, per_page_s=1.25e-6)


def sata_ssd() -> DeviceModel:
    """SATA-SSD-class device: 90 us/request, ~520 MB/s."""
    return DeviceModel(name="ssd", request_latency_s=90e-6, per_page_s=7.8e-6)
