"""Tests for the simulated clock and device models."""

import pytest

from repro.os_sim.clock import SimClock
from repro.os_sim.device import DeviceModel, nvme_ssd, sata_ssd


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_is_monotonic(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance_to(5.0)  # in the past: no-op
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0


class TestDevice:
    def test_service_time_formula(self):
        dev = DeviceModel("d", request_latency_s=1e-3, per_page_s=1e-4)
        assert dev.service_time(10) == pytest.approx(1e-3 + 10e-4)

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            nvme_ssd().service_time(0)

    def test_sync_read_advances_clock(self):
        clock = SimClock()
        dev = nvme_ssd()
        done = dev.submit(clock, 4)
        clock.advance_to(done)
        assert clock.now == done == pytest.approx(dev.service_time(4))

    def test_requests_queue_behind_each_other(self):
        clock = SimClock()
        dev = nvme_ssd()
        first = dev.submit(clock, 100)         # async: clock not advanced
        second = dev.submit(clock, 1)          # queues behind the first
        assert second == pytest.approx(first + dev.service_time(1))
        assert clock.now == 0.0

    def test_idle_gap_not_counted_busy(self):
        clock = SimClock()
        dev = nvme_ssd()
        clock.advance_to(dev.submit(clock, 1))
        clock.advance(1.0)  # idle
        clock.advance_to(dev.submit(clock, 1))
        assert dev.stats.busy_time == pytest.approx(2 * dev.service_time(1))

    def test_stats_counters(self):
        clock = SimClock()
        dev = sata_ssd()
        dev.submit(clock, 3)
        dev.submit(clock, 2, is_write=True)
        assert dev.stats.read_requests == 1
        assert dev.stats.write_requests == 1
        assert dev.stats.pages_read == 3
        assert dev.stats.pages_written == 2
        assert dev.stats.total_requests == 2

    def test_device_ordering_nvme_fastest(self):
        # Per-page and per-request costs must order nvme < ssd < hdd.
        h = DeviceModel("hdd", request_latency_s=6e-3, per_page_s=25e-6)
        n, s = nvme_ssd(), sata_ssd()
        assert n.service_time(64) < s.service_time(64) < h.service_time(64)

    def test_invalid_latency_rejected(self):
        with pytest.raises(ValueError):
            DeviceModel("bad", request_latency_s=-1.0, per_page_s=1e-6)
