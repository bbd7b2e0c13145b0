"""Tests for the metrics registry: Counter / Gauge / Histogram families."""

import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_raises(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_callback_counter_reads_function(self):
        c = Counter()
        backing = {"n": 7}
        c.set_function(lambda: float(backing["n"]))
        assert c.value == 7.0
        backing["n"] = 9
        assert c.value == 9.0

    def test_sync_overwrites(self):
        c = Counter()
        c.sync(42.0)
        assert c.value == 42.0

    def test_threaded_increments_are_exact(self):
        c = Counter()

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000.0


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(10)
        g.set(12)
        assert g.value == 12.0

    def test_callback_gauge(self):
        g = Gauge()
        g.set_function(lambda: 2.5)
        assert g.value == 2.5


class TestHistogram:
    def test_default_buckets_are_log_spaced(self):
        h = Histogram()
        assert h.bounds == DEFAULT_LATENCY_BUCKETS
        assert h.bounds[0] == pytest.approx(2.0 ** -20)
        assert h.bounds[-1] == 8.0

    def test_bucket_boundaries_use_le_semantics(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 100.0):
            h.observe(v)
        # cumulative: le=1 -> {0.5, 1.0}; le=2 -> +{1.5, 2.0};
        # le=4 -> +{3.0}; +Inf -> +{100.0}
        assert h.bucket_counts() == [
            (1.0, 2), (2.0, 4), (4.0, 5), (float("inf"), 6),
        ]
        assert h.count == 6
        assert h.sum == pytest.approx(108.0)
        assert h.mean == pytest.approx(18.0)

    def test_invalid_buckets_raise(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_quantile_interpolates(self):
        h = Histogram(buckets=(1.0, 2.0))
        for _ in range(10):
            h.observe(0.5)  # all in the first bucket
        assert h.quantile(0.5) == pytest.approx(0.5)  # midway to bound 1.0
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_quantile_empty_and_range(self):
        h = Histogram(buckets=(1.0,))
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestMetricFamily:
    def test_labels_get_or_create_same_child(self):
        fam = MetricFamily("kml_x_total", "counter", label_names=("op",))
        a = fam.labels(op="get")
        b = fam.labels(op="get")
        assert a is b
        assert fam.labels(op="put") is not a

    def test_wrong_label_set_raises(self):
        fam = MetricFamily("kml_x_total", "counter", label_names=("op",))
        with pytest.raises(ValueError):
            fam.labels(device="nvme")
        with pytest.raises(ValueError):
            fam.labels()

    def test_samples_carry_label_dicts(self):
        fam = MetricFamily("kml_x_total", "counter", label_names=("op",))
        fam.labels(op="get").inc()
        samples = list(fam.samples())
        assert samples[0][0] == {"op": "get"}
        assert samples[0][1].value == 1.0

    def test_invalid_names_raise(self):
        with pytest.raises(ValueError):
            MetricFamily("0bad", "counter")
        with pytest.raises(ValueError):
            MetricFamily("kml_ok", "counter", label_names=("bad-label",))
        with pytest.raises(ValueError):
            MetricFamily("kml_ok", "timer")


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("kml_a_total", "help")
        b = reg.counter("kml_a_total")
        assert a is b

    def test_unlabeled_family_collapses_to_child(self):
        reg = MetricsRegistry()
        c = reg.counter("kml_a_total")
        c.inc()  # directly usable, no labels() hop
        assert c.value == 1.0

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("kml_a_total")
        with pytest.raises(ValueError):
            reg.gauge("kml_a_total")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("kml_a_total", labels=("op",))
        with pytest.raises(ValueError):
            reg.counter("kml_a_total", labels=("device",))

    def test_collect_sorted_and_runs_hooks(self):
        reg = MetricsRegistry()
        reg.counter("kml_b_total")
        synced = reg.counter("kml_a_total")
        reg.register_collect_hook("test", lambda: synced.sync(5.0))
        families = reg.collect()
        assert [f.name for f in families] == ["kml_a_total", "kml_b_total"]
        assert synced.value == 5.0

    def test_collect_hook_same_key_replaces(self):
        reg = MetricsRegistry()
        c = reg.counter("kml_a_total")
        reg.register_collect_hook("k", lambda: c.sync(1.0))
        reg.register_collect_hook("k", lambda: c.sync(2.0))
        reg.collect()
        assert c.value == 2.0

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("kml_a_total").inc()
        reg.reset()
        assert reg.collect() == []
        assert reg.counter("kml_a_total").value == 0.0

    def test_histogram_custom_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("kml_h_seconds", buckets=(1.0, 2.0))
        assert h.bounds == (1.0, 2.0)
