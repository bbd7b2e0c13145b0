"""Latency summaries under the tail-percentile rule.

A timing is reported as its median and as the highest percentile that
still has at least ten samples beyond it, together with the sample
count: a p99 over 500 samples would rest on five values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

import numpy as np

__all__ = [
    "PERCENTILES",
    "MIN_BEYOND",
    "tail_percentile",
    "percentile",
    "fast_mode",
    "sliced_op_wall_us",
    "summarize",
]

#: Candidate percentiles, as exact decimals.
PERCENTILES = ("50", "90", "99", "99.9", "99.99")

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _beyond(n: int, label: str) -> Fraction:
    """How many of ``n`` samples lie beyond percentile ``label``."""
    return n * (100 - Fraction(label)) / 100


def tail_percentile(n: int) -> Optional[str]:
    """The highest candidate percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it; ``None`` when not even the median has."""
    best = None
    for label in PERCENTILES:
        if _beyond(n, label) >= MIN_BEYOND:
            best = label
    return best


def percentile(samples, label: str) -> float:
    """Percentile ``label`` of ``samples``; raises when the rule forbids it."""
    n = len(samples)
    if _beyond(n, label) < MIN_BEYOND:
        raise ValueError(
            f"p{label} of {n} samples has fewer than {MIN_BEYOND} samples beyond it"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), float(label)))


#: A slice ran uncontended when its figure is within this factor of the
#: fastest slice's.
FAST_TOLERANCE = 1.1


def fast_mode(values) -> float:
    """Median of the values within ``FAST_TOLERANCE`` of the smallest."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values[values <= FAST_TOLERANCE * values.min()]))


def sliced_op_wall_us(op_start_ns, op_ns, end_ns: int, slices: int) -> Dict[str, float]:
    """Per-op wall time of a timed phase cut into ``slices`` equal runs of
    ops: wall time per op, p50 and p99, each the :func:`fast_mode` of its
    per-slice values, in microseconds.

    On a shared host, contention slows whole seconds of a run by about
    1.6x, and how much of a run it covers varies from run to run, so the
    slices fall into a fast and a slow cluster.  The median of the fast
    cluster estimates the uncontended cost; being a median over many
    slices, it moves less from run to run than the single fastest slice.
    ``op_start_ns`` are the ops' start times; a slice's wall time runs
    from its first op's start to the next slice's.
    """
    n = len(op_ns)
    edges = np.append(np.asarray(op_start_ns, dtype=np.int64), end_ns)
    durations = np.asarray(op_ns, dtype=np.float64)
    bounds = np.linspace(0, n, slices + 1).astype(int)
    per_op, p50, p99 = [], [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        per_op.append((edges[hi] - edges[lo]) / (hi - lo))
        p50.append(percentile(durations[lo:hi], "50"))
        p99.append(percentile(durations[lo:hi], "99"))
    return {
        "wall_us_per_op": fast_mode(per_op) / 1e3,
        "op_wall_us.p50": fast_mode(p50) / 1e3,
        "op_wall_us.p99": fast_mode(p99) / 1e3,
    }


def summarize(samples, scale: float = 1.0) -> Dict[str, object]:
    """Sample count, median and the highest reportable tail, times ``scale``."""
    n = len(samples)
    tail = tail_percentile(n)
    if tail is None:
        raise ValueError(f"{n} samples are too few for even a median")
    values = np.asarray(samples, dtype=np.float64) * scale
    return {
        "n": n,
        "p50": percentile(values, "50"),
        "tail": tail,
        "tail_value": percentile(values, tail),
    }
