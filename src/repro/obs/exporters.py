"""Exporters: Prometheus text exposition, JSONL dump, human report.

Three consumers of one :class:`~repro.obs.metrics.MetricsRegistry`:

- :func:`prometheus_text` -- the text exposition format a Prometheus
  scrape endpoint would serve (``# HELP`` / ``# TYPE`` headers,
  cumulative ``le`` histogram buckets);
- :func:`jsonl_lines` / :func:`dump_jsonl` -- one JSON object per
  sample (plus optional span records) for offline analysis;
- :func:`format_report` -- the at-a-glance operator report, optionally
  with a line on the tracer's spans.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from .metrics import Histogram, MetricsRegistry
from .tracing import Tracer

__all__ = ["prometheus_text", "jsonl_lines", "dump_jsonl", "format_report"]


def _fmt_value(value: float) -> str:
    """Integers without a trailing ``.0``; floats via repr (lossless);
    non-finite values spelled ``+Inf`` / ``-Inf`` / ``NaN`` as the text
    format has them."""
    if not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("+Inf" if value > 0 else "-Inf")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: Dict[str, str], extra: Optional[str] = None) -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, child in family.samples():
            if isinstance(child, Histogram):
                for bound, cumulative in child.bucket_counts():
                    le = _label_str(labels, f'le="{_fmt_value(bound)}"')
                    lines.append(
                        f"{family.name}_bucket{le} {cumulative}"
                    )
                suffix = _label_str(labels)
                lines.append(
                    f"{family.name}_sum{suffix} {_fmt_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{suffix} {child.count}")
            else:
                lines.append(
                    f"{family.name}{_label_str(labels)} "
                    f"{_fmt_value(child.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------


def jsonl_lines(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None
) -> List[str]:
    """One JSON object per metric sample (and per finished span)."""
    lines: List[str] = []
    for family in registry.collect():
        for labels, child in family.samples():
            record: Dict[str, Any] = {
                "kind": family.kind,
                "name": family.name,
                "labels": labels,
            }
            if isinstance(child, Histogram):
                record["count"] = child.count
                record["sum"] = child.sum
                record["buckets"] = [
                    [_fmt_value(bound), cumulative]
                    for bound, cumulative in child.bucket_counts()
                ]
            else:
                record["value"] = child.value
            lines.append(json.dumps(record, sort_keys=True))
    if tracer is not None:
        for span in tracer.finished():
            lines.append(
                json.dumps({"kind": "span", **span.to_dict()}, sort_keys=True)
            )
    return lines


def dump_jsonl(
    registry: MetricsRegistry,
    path: str,
    tracer: Optional[Tracer] = None,
) -> int:
    """Write the JSONL dump to ``path``; returns the line count."""
    lines = jsonl_lines(registry, tracer=tracer)
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")
    return len(lines)


# ----------------------------------------------------------------------


def _format_child(name: str, labels: Dict[str, str], child) -> str:
    label_part = (
        "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}"
        if labels
        else ""
    )
    if isinstance(child, Histogram):
        if child.count == 0:
            return f"  {name}{label_part}: no observations"
        return (
            f"  {name}{label_part}: count={child.count} "
            f"mean={child.mean * 1e6:.1f}us "
            f"p50={child.quantile(0.5) * 1e6:.1f}us "
            f"p99={child.quantile(0.99) * 1e6:.1f}us"
        )
    value = child.value
    shown = _fmt_value(value)
    return f"  {name}{label_part}: {shown}"


def format_report(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
) -> str:
    """Human-readable metrics report, grouped by subsystem prefix."""
    groups: Dict[str, List[str]] = {}
    for family in registry.collect():
        # kml_buffer_pushed_total -> subsystem "buffer"
        parts = family.name.split("_")
        subsystem = parts[1] if len(parts) > 1 and parts[0] == "kml" else parts[0]
        block = groups.setdefault(subsystem, [])
        for labels, child in family.samples():
            block.append(_format_child(family.name, labels, child))
    lines = ["KML observability report:"]
    if not groups:
        lines.append("  (no metrics registered)")
    for subsystem in sorted(groups):
        lines.append(f"[{subsystem}]")
        lines.extend(groups[subsystem])
    if tracer is not None:
        lines.append(
            f"[tracing] {tracer.spans_started} spans started, "
            f"{len(tracer.finished())} in the ring "
            f"(capacity {tracer.max_spans})"
        )
    return "\n".join(lines)
