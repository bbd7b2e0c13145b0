"""Observability for the KML runtime: metrics, tracing, exporters.

The paper's central claim is that ML can live *inside* the I/O hot path
with "very low CPU and memory overheads" -- a claim that can only be
defended with instrumentation that measures the pipeline itself.  This
package is that measurement substrate, three pillars:

- :mod:`repro.obs.metrics` -- ``Counter`` / ``Gauge`` / ``Histogram``
  families in a :class:`MetricsRegistry`, one instance per caller;
- :mod:`repro.obs.tracing` -- :class:`Tracer` with nested spans on the
  monotonic clock;
- :mod:`repro.obs.exporters` -- Prometheus text exposition, JSONL dump,
  and a human-readable report.

:mod:`repro.obs.instrument` wires the pillars into the hot paths
(circular buffer, trainer, tracepoints, matrix ops, network passes,
minikv, the block layer) through one hook type, ``Probe``, behind one
``is not None`` guard; ``benchmarks/bench_obs_overhead.py`` holds the
instrumented paths to < 10% throughput overhead.

This package deliberately imports nothing from the rest of ``repro`` at
module scope: hot-path modules see only duck-typed probes, so no
layering cycles can form.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .tracing import Span, Tracer
from .exporters import dump_jsonl, format_report, jsonl_lines, prometheus_text
from .instrument import (
    instrument_buffer,
    instrument_device,
    instrument_faults,
    instrument_matrix_ops,
    instrument_memory,
    instrument_minikv,
    instrument_network,
    instrument_serve,
    instrument_stack,
    instrument_supervisor,
    instrument_tracepoints,
    instrument_trainer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "dump_jsonl",
    "format_report",
    "jsonl_lines",
    "prometheus_text",
    "instrument_buffer",
    "instrument_device",
    "instrument_faults",
    "instrument_matrix_ops",
    "instrument_memory",
    "instrument_minikv",
    "instrument_network",
    "instrument_serve",
    "instrument_stack",
    "instrument_supervisor",
    "instrument_tracepoints",
    "instrument_trainer",
]
