"""Discrete-event engine serving request streams through a scheduler.

The device model here is positional: a request costs

    base_latency + seek_factor * (distance / ADDRESS_SPACE) + pages * per_page

so seek-aware schedulers matter on the "disk" profile and not on the
"flash" profile -- the crossover the tuning case study must find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..stats.quantiles import P2Quantile
from .requests import ADDRESS_SPACE, IORequest
from .schedulers import Scheduler

__all__ = ["PositionalDevice", "ScheduleResult", "simulate", "flash_device",
           "disk_device"]


@dataclass
class PositionalDevice:
    """Seek-sensitive device profile."""

    name: str
    base_latency_s: float
    seek_factor_s: float    # full-stroke seek cost
    per_page_s: float

    def service_time(self, head: int, request: IORequest) -> float:
        distance = abs(request.sector - head)
        return (
            self.base_latency_s
            + self.seek_factor_s * (distance / ADDRESS_SPACE)
            + request.n_pages * self.per_page_s
        )


def flash_device() -> PositionalDevice:
    """Flash profile: seeking is free (noop territory)."""
    return PositionalDevice("flash", 20e-6, 0.0, 1.25e-6)


def disk_device() -> PositionalDevice:
    """Disk profile: full-stroke seek ~8 ms (elevator territory)."""
    return PositionalDevice("disk", 0.5e-3, 8e-3, 10e-6)


@dataclass
class ScheduleResult:
    """Latency/throughput outcome of one simulation."""

    device: str
    total_requests: int = 0
    elapsed: float = 0.0
    read_latencies_mean: float = 0.0
    read_p99: float = 0.0
    seek_distance_total: int = 0

    @property
    def throughput(self) -> float:
        return self.total_requests / self.elapsed if self.elapsed else 0.0


def simulate(
    requests: Sequence[IORequest],
    scheduler: Scheduler,
    device: PositionalDevice,
) -> ScheduleResult:
    """Serve ``requests`` (sorted by arrival) through ``scheduler``.

    Single-server queue: the device serves one request at a time; the
    scheduler reorders whatever is pending.
    """
    pending = sorted(requests, key=lambda r: r.arrival)
    result = ScheduleResult(device=device.name)
    if not pending:
        return result
    read_mean_acc = 0.0
    read_count = 0
    p99 = P2Quantile(0.99)
    now = 0.0
    head = 0
    next_arrival = 0
    total = len(pending)
    served = 0
    while served < total:
        # Admit everything that has arrived.
        while next_arrival < total and pending[next_arrival].arrival <= now:
            scheduler.add(pending[next_arrival])
            next_arrival += 1
        if not len(scheduler):
            now = pending[next_arrival].arrival
            continue
        request = scheduler.dispatch(now, head)
        assert request is not None
        service = device.service_time(head, request)
        request.completion = max(now, request.arrival) + service
        now = request.completion
        result.seek_distance_total += abs(request.sector - head)
        head = request.sector + request.n_pages
        served += 1
        latency = request.latency
        if request.is_read:
            read_mean_acc += latency
            read_count += 1
            p99.update(latency)
    result.total_requests = served
    result.elapsed = now
    result.read_latencies_mean = read_mean_acc / read_count if read_count else 0.0
    result.read_p99 = p99.value
    return result
