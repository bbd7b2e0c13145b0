"""Tests for the I/O-scheduler case study."""

import hashlib

import numpy as np
import pytest

from repro.iosched import (
    ADDRESS_SPACE,
    DeadlineScheduler,
    ElevatorScheduler,
    NoopScheduler,
    STREAM_KINDS,
    SchedulerSelector,
    best_scheduler,
    disk_device,
    flash_device,
    make_scheduler,
    make_stream,
    simulate,
    stream_features,
    sweep_schedulers,
)
from repro.iosched.requests import IORequest
from repro.kml import load_model, save_model


#: What ``fitted_selector`` learns, pinned bit for bit: the sweep's
#: winners, the held-out accuracy and the SHA-256 of the trained
#: weights (every parameter's raw bytes, in ``parameters()`` order).
SELECTOR_BEST_BY_KIND = {
    "random_read": "elevator",
    "sequential_read": "noop",
    "write_burst": "elevator",
    "mixed": "elevator",
}
SELECTOR_ACCURACY = 1.0
SELECTOR_WEIGHTS_SHA256 = (
    "75941cfd57a394e0a51c3ba2a56ea559d6071b13059dc9722b7aec7e102e548e"
)


@pytest.fixture(scope="module")
def fitted_selector():
    selector = SchedulerSelector(rng=np.random.default_rng(0))
    return selector.fit_from_sweep(
        disk_device(), windows_per_kind=15, window=80, epochs=200
    )


def req(rid, arrival, op, sector, pages=1):
    return IORequest(rid, arrival, op, sector, pages)


class TestStreams:
    def test_kinds_generate_expected_ops(self):
        rng = np.random.default_rng(0)
        reads = make_stream("random_read", 200, rng)
        assert all(r.is_read for r in reads)
        writes = make_stream("write_burst", 200, rng)
        assert all(not r.is_read for r in writes)
        mixed = make_stream("mixed", 500, rng)
        fraction = sum(r.is_read for r in mixed) / len(mixed)
        assert 0.55 < fraction < 0.85

    def test_sequential_stream_ascending(self):
        rng = np.random.default_rng(1)
        stream = make_stream("sequential_read", 100, rng)
        sectors = [r.sector for r in stream]
        deltas = np.diff(sectors)
        assert np.all((deltas == 8) | (deltas < 0))  # steps of 8, rare wrap

    def test_arrivals_sorted_positive(self):
        rng = np.random.default_rng(2)
        stream = make_stream("mixed", 300, rng)
        arrivals = [r.arrival for r in stream]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            make_stream("bogus", 10, rng)
        with pytest.raises(ValueError):
            make_stream("mixed", 0, rng)


class TestSchedulers:
    def test_noop_is_fifo(self):
        scheduler = NoopScheduler()
        for i in range(5):
            scheduler.add(req(i, i * 0.1, "read", 1000 - i))
        order = [scheduler.dispatch(1.0, 0).request_id for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_elevator_serves_in_sector_order_from_head(self):
        scheduler = ElevatorScheduler()
        for rid, sector in enumerate((500, 100, 900)):
            scheduler.add(req(rid, 0.0, "read", sector))
        order = [scheduler.dispatch(0.0, 400).sector for _ in range(3)]
        assert order == [500, 900, 100]  # scan up, then wrap

    def test_deadline_serves_sector_order_when_no_expiry(self):
        scheduler = DeadlineScheduler(read_deadline=100.0)
        for rid, sector in enumerate((800, 200)):
            scheduler.add(req(rid, 0.0, "read", sector))
        assert scheduler.dispatch(0.0, 0).sector == 200

    def test_deadline_jumps_to_expired_read(self):
        scheduler = DeadlineScheduler(read_deadline=0.01)
        scheduler.add(req(0, 0.0, "read", 900_000))   # expires first
        scheduler.add(req(1, 0.5, "read", 100))
        # At t=1.0 request 0 is long expired; sector order would pick 1.
        assert scheduler.dispatch(1.0, 0).request_id == 0

    def test_deadline_write_deadline_longer(self):
        scheduler = DeadlineScheduler(read_deadline=0.01, write_deadline=10.0)
        scheduler.add(req(0, 0.0, "write", 900_000))
        scheduler.add(req(1, 0.0, "read", 800_000))
        # Both present at t=1: the read expired, the write did not.
        assert scheduler.dispatch(1.0, 0).request_id == 1

    def test_lengths(self):
        for name in ("noop", "deadline", "elevator"):
            scheduler = make_scheduler(name)
            assert len(scheduler) == 0
            scheduler.add(req(0, 0.0, "read", 10))
            assert len(scheduler) == 1
            scheduler.dispatch(0.0, 0)
            assert len(scheduler) == 0

    def test_empty_dispatch_none(self):
        for name in ("noop", "deadline", "elevator"):
            assert make_scheduler(name).dispatch(0.0, 0) is None

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError):
            make_scheduler("cfq")

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduler(read_deadline=0.0)


class TestEngine:
    def test_all_requests_served_once(self):
        rng = np.random.default_rng(4)
        stream = make_stream("mixed", 500, rng)
        result = simulate(stream, ElevatorScheduler(), disk_device())
        assert result.total_requests == 500
        assert all(r.completion >= r.arrival for r in stream)

    def test_empty_stream(self):
        result = simulate([], NoopScheduler(), flash_device())
        assert result.total_requests == 0
        assert result.throughput == 0.0

    def test_elevator_reduces_seek_distance_on_disk(self):
        rng = np.random.default_rng(5)
        stream_a = make_stream("random_read", 800, rng)
        rng = np.random.default_rng(5)
        stream_b = make_stream("random_read", 800, rng)
        fifo = simulate(stream_a, NoopScheduler(), disk_device())
        scan = simulate(stream_b, ElevatorScheduler(), disk_device())
        assert scan.seek_distance_total < fifo.seek_distance_total / 2
        assert scan.throughput > 2 * fifo.throughput

    def test_flash_insensitive_to_scheduler(self):
        outcomes = []
        for name in ("noop", "elevator"):
            rng = np.random.default_rng(6)
            stream = make_stream("random_read", 800, rng)
            outcomes.append(
                simulate(stream, make_scheduler(name), flash_device()).throughput
            )
        assert outcomes[0] == pytest.approx(outcomes[1], rel=0.01)

    def test_latency_accounting(self):
        device = flash_device()
        requests = [req(0, 0.0, "read", 100, 4)]
        result = simulate(requests, NoopScheduler(), device)
        expected = device.base_latency_s + 4 * device.per_page_s
        assert requests[0].latency == pytest.approx(expected)
        assert result.read_latencies_mean == pytest.approx(expected)


class TestFeaturesAndSelector:
    def test_feature_vector_shape_and_semantics(self):
        rng = np.random.default_rng(7)
        reads = make_stream("random_read", 200, rng)
        features = stream_features(reads)
        assert features.shape == (5,)
        assert features[0] == 1.0          # all reads
        assert features[3] > 0.1           # random: big sector deltas
        seq = stream_features(make_stream("sequential_read", 200, rng))
        assert seq[3] < 0.01               # sequential: tiny deltas

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            stream_features([])

    def test_sweep_shape_noop_on_flash_elevator_on_disk(self):
        flash = sweep_schedulers(flash_device(), n_requests=1200)
        disk = sweep_schedulers(disk_device(), n_requests=1200)
        # Disk random/mixed want the elevator by a wide margin.
        for kind in ("random_read", "mixed"):
            assert best_scheduler(disk[kind]) == "elevator"
            tputs = {n: r.throughput for n, r in disk[kind].items()}
            assert tputs["elevator"] > 2 * tputs["noop"]
        # On flash the choice is immaterial (all within 2%).
        for kind, per in flash.items():
            tputs = [r.throughput for r in per.values()]
            assert max(tputs) < 1.02 * min(tputs)

    def test_selector_classifies_and_selects(self, fitted_selector):
        selector = fitted_selector
        assert selector.accuracy(windows_per_kind=6, window=80) > 0.85
        rng = np.random.default_rng(123)
        window = make_stream("random_read", 80, rng)
        assert selector.select(window) == "elevator"
        window = make_stream("sequential_read", 80, rng)
        assert selector.classify(window) == "sequential_read"

    def test_selector_training_is_pinned(self, fitted_selector):
        selector = fitted_selector
        assert selector.best_by_kind == SELECTOR_BEST_BY_KIND
        assert selector.accuracy(windows_per_kind=6, window=80) == (
            SELECTOR_ACCURACY
        )
        digest = hashlib.sha256()
        for param in selector.classifier.network.parameters():
            digest.update(param.value.raw.tobytes())
        assert digest.hexdigest() == SELECTOR_WEIGHTS_SHA256

    def test_model_round_trips_through_a_kml_file(
        self, fitted_selector, tmp_path
    ):
        """The deployed model classifies raw windows as the selector does."""
        selector = fitted_selector
        path = str(tmp_path / "iosched.kml")
        save_model(selector.classifier.to_deployable(), path)
        model = load_model(path)
        rng = np.random.default_rng(11)
        windows = [
            make_stream(kind, 80, rng)
            for kind in STREAM_KINDS
            for _ in range(3)
        ]
        raw = np.vstack([stream_features(w) for w in windows])
        classes = model.predict_classes(raw)
        assert [STREAM_KINDS[c] for c in classes] == [
            selector.classify(w) for w in windows
        ]

    def test_unfitted_selector_rejects_select(self):
        selector = SchedulerSelector(rng=np.random.default_rng(1))
        with pytest.raises(RuntimeError):
            selector.select(make_stream("mixed", 50, np.random.default_rng(2)))
