"""Golden-output tests for the Prometheus, JSONL, and report exporters."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    PipelineTrace,
    Tracer,
    dump_jsonl,
    format_report,
    jsonl_lines,
    prometheus_text,
)


@pytest.fixture
def registry():
    """Deterministic registry: one of each kind, fixed values."""
    reg = MetricsRegistry()
    reg.counter(
        "kml_buffer_pushed_total", "Samples accepted", labels=("device",)
    ).labels(device="nvme").inc(3)
    reg.gauge("kml_buffer_occupancy", "Queued samples").set(2)
    h = reg.histogram(
        "kml_buffer_push_latency_seconds", "Push latency", buckets=(1.0, 2.0)
    )
    h.observe(0.5)
    h.observe(1.5)
    h.observe(5.0)
    return reg


class TestPrometheusText:
    def test_golden_output(self, registry):
        assert prometheus_text(registry) == (
            "# HELP kml_buffer_occupancy Queued samples\n"
            "# TYPE kml_buffer_occupancy gauge\n"
            "kml_buffer_occupancy 2\n"
            "# HELP kml_buffer_push_latency_seconds Push latency\n"
            "# TYPE kml_buffer_push_latency_seconds histogram\n"
            'kml_buffer_push_latency_seconds_bucket{le="1"} 1\n'
            'kml_buffer_push_latency_seconds_bucket{le="2"} 2\n'
            'kml_buffer_push_latency_seconds_bucket{le="+Inf"} 3\n'
            "kml_buffer_push_latency_seconds_sum 7\n"
            "kml_buffer_push_latency_seconds_count 3\n"
            "# HELP kml_buffer_pushed_total Samples accepted\n"
            "# TYPE kml_buffer_pushed_total counter\n"
            'kml_buffer_pushed_total{device="nvme"} 3\n'
        )

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("kml_x_total", labels=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        assert 'path="a\\"b\\\\c\\nd"' in prometheus_text(reg)

    def test_float_values_are_lossless(self):
        reg = MetricsRegistry()
        reg.gauge("kml_g").set(0.1)
        assert "kml_g 0.1\n" in prometheus_text(reg)

    def test_non_finite_values_use_text_format_spelling(self):
        reg = MetricsRegistry()
        reg.gauge("kml_pos").set(float("inf"))
        reg.gauge("kml_neg").set(float("-inf"))
        reg.gauge("kml_nan").set(float("nan"))
        assert prometheus_text(reg).splitlines() == [
            "# TYPE kml_nan gauge",
            "kml_nan NaN",
            "# TYPE kml_neg gauge",
            "kml_neg -Inf",
            "# TYPE kml_pos gauge",
            "kml_pos +Inf",
        ]
        report = format_report(reg)
        assert "kml_nan: NaN" in report
        assert "kml_neg: -Inf" in report
        assert "kml_pos: +Inf" in report


class TestJsonl:
    def test_records_round_trip(self, registry):
        records = [json.loads(line) for line in jsonl_lines(registry)]
        by_name = {r["name"]: r for r in records}
        assert by_name["kml_buffer_pushed_total"] == {
            "kind": "counter",
            "name": "kml_buffer_pushed_total",
            "labels": {"device": "nvme"},
            "value": 3.0,
        }
        hist = by_name["kml_buffer_push_latency_seconds"]
        assert hist["count"] == 3
        assert hist["sum"] == 7.0
        assert hist["buckets"] == [["1", 1], ["2", 2], ["+Inf", 3]]

    def test_spans_appended(self, registry):
        tracer = Tracer()
        with tracer.span("work", op="test"):
            pass
        records = [
            json.loads(line) for line in jsonl_lines(registry, tracer=tracer)
        ]
        spans = [r for r in records if r["kind"] == "span"]
        assert len(spans) == 1
        assert spans[0]["name"] == "work"
        assert spans[0]["tags"] == {"op": "test"}
        assert spans[0]["duration"] >= 0.0

    def test_dump_writes_file(self, registry, tmp_path):
        path = tmp_path / "metrics.jsonl"
        n = dump_jsonl(registry, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == n == 3
        for line in lines:
            json.loads(line)  # every line is valid JSON


class TestFormatReport:
    def test_groups_by_subsystem(self, registry):
        registry.counter("kml_trainer_batches_total").inc(4)
        report = format_report(registry)
        assert "[buffer]" in report
        assert "[trainer]" in report
        assert "kml_trainer_batches_total: 4" in report
        # histogram line shows count + quantiles, not raw buckets
        assert "count=3" in report

    def test_empty_registry(self):
        assert "no metrics registered" in format_report(MetricsRegistry())

    def test_tracer_and_pipeline_sections(self, registry):
        tracer = Tracer()
        pipeline = PipelineTrace(tracer)
        with tracer.span("x"):
            pass
        report = format_report(registry, tracer=tracer, pipeline=pipeline)
        assert "[tracing] 1 spans started" in report
        assert "pipeline trace:" in report
