"""Metrics registry: Counter / Gauge / Histogram families.

The model is Prometheus': a *family* has a name, a help string, a kind,
and a fixed tuple of label names; each distinct label-value combination
is a *child* carrying the actual number.  Families with no labels are
collapsed -- the registry hands back the single child directly, so
``registry.counter("kml_buffer_pushed_total").inc()`` just works.

Two features keep the hot paths cheap:

- **callback metrics** -- a child can be bound to a function
  (:meth:`Counter.set_function` / :meth:`Gauge.set_function`) evaluated
  at collect time, so lifetime counters that a component already keeps
  (``CircularBuffer.pushed``, ``DeviceStats.read_requests``) cost the
  hot path *nothing*;
- **collect hooks** -- callables run at the start of every
  :meth:`MetricsRegistry.collect`, used to sync labeled families from
  component-side dicts (e.g. per-tracepoint hit counts).

Everything is thread-safe: children guard their numbers with a lock and
the registry guards its family table.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]

#: Fixed log-spaced latency buckets: powers of two from ~1 us to 8 s.
#: One shared geometry means every latency histogram in the system can
#: be compared bucket-for-bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(-20, 4)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonically increasing value (or a callback-backed reader)."""

    kind = "counter"
    __slots__ = ("_value", "_fn", "_lock")

    def __init__(self):
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """Bind to a component-side counter, read at collect time."""
        self._fn = fn

    def sync(self, value: float) -> None:
        """Overwrite the stored value (collect-hook use only)."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Gauge:
    """A value that is set, or read from a callback at collect time."""

    kind = "gauge"
    __slots__ = ("_value", "_fn", "_lock")

    def __init__(self):
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative (``le``) exposition.

    ``buckets`` are the upper bounds, strictly increasing; an implicit
    ``+Inf`` bucket is always present.  The default geometry is the
    shared log-spaced latency ladder (:data:`DEFAULT_LATENCY_BUCKETS`).
    """

    kind = "histogram"
    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left gives the first bound >= value, i.e. le semantics.
        idx = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, total)``."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self._bounds, counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating inside a bucket.

        The same estimate Prometheus' ``histogram_quantile`` makes; it
        is exact only at bucket boundaries, which is all a log-spaced
        latency ladder promises.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        running = 0.0
        lower = 0.0
        for bound, n in zip(self._bounds, counts):
            if running + n >= rank and n > 0:
                return lower + (bound - lower) * (rank - running) / n
            running += n
            lower = bound
        return self._bounds[-1]


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named family: fixed label names, one child per label tuple."""

    __slots__ = ("name", "help", "kind", "label_names", "_children",
                 "_lock", "_buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        _check_name(name)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if kind not in _METRIC_TYPES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(buckets=self._buckets)
        return _METRIC_TYPES[self.kind]()

    def labels(self, **label_values: object):
        """The child for this label combination (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[n]) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def samples(self) -> Iterable[Tuple[Dict[str, str], object]]:
        """``(labels_dict, child)`` pairs, insertion-ordered."""
        with self._lock:
            items = list(self._children.items())
        for key, child in items:
            yield dict(zip(self.label_names, key)), child


class MetricsRegistry:
    """Ordered set of metric families plus collect-time sync hooks.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same object, so independent
    instrumentation sites can share families; asking with a different
    kind or label set raises.
    """

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}
        self._hooks: Dict[str, Callable[[], None]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help=help, label_names=labels, buckets=buckets
                )
                self._families[name] = family
            elif family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}"
                )
        if family.label_names:
            return family
        return family.labels()

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        """A counter family (or its sole child when unlabeled)."""
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        return self._get_or_create(name, "histogram", help, labels, buckets)

    def family(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def register_collect_hook(self, key: str, fn: Callable[[], None]) -> None:
        """Run ``fn`` before every collect; same ``key`` replaces."""
        with self._lock:
            self._hooks[key] = fn

    # ------------------------------------------------------------------

    def collect(self) -> List[MetricFamily]:
        """Sync hooks, then snapshot the family list (sorted by name)."""
        with self._lock:
            hooks = list(self._hooks.values())
        for hook in hooks:
            hook()
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family and hook (test isolation)."""
        with self._lock:
            self._families.clear()
            self._hooks.clear()
