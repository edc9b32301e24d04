"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny and allocation-free on the hot path:
``Counter.inc`` is one attribute add, ``Histogram.observe`` one bisect
plus two adds.  Metric names are dotted — the segment before the first
dot is the metric *family* (``tracker.taint_ops`` belongs to family
``tracker``), which groups related instruments in snapshots and lets the
CLI assert whole subsystems reported in.

When telemetry is disabled nothing here runs at all: components hold
``None`` instead of a hub (or instruments) and skip their hooks with a
single ``is not None`` test (see :mod:`repro.telemetry.hub`); the
tracker's hook runs once per call, not per event.  The ``Null*``
classes exist for code that wants an instrument object unconditionally —
every method is a no-op ``pass``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Label sets attach dimensions to an instrument (``{"worker_id": "3"}``).
#: They are part of the registry key — the same name with different labels
#: is a different instrument — and render as standard Prometheus labels.
Labels = Optional[Dict[str, str]]


def labeled_name(name: str, labels: Labels = None) -> str:
    """The canonical registry key: ``name`` or ``name{k=v,...}`` sorted."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"

#: Default histogram buckets: exponential, micro-seconds-to-seconds scale,
#: suitable for wall-time observations recorded in seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for size-like observations (bytes, counts, depths).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 4096, 16384, 65536, 262144, 1048576,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value", "labels")

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Labels = None) -> None:
        self.name = name
        self.help = help
        self.value = 0
        self.labels = dict(labels) if labels else None

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; use a Gauge to decrease")
        self.value += amount

    def as_dict(self) -> dict:
        payload = {"kind": self.kind, "value": self.value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can go up and down; remembers its high-water mark."""

    __slots__ = ("name", "help", "value", "max_value", "labels")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Labels = None) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.max_value = 0.0
        self.labels = dict(labels) if labels else None

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        payload = {"kind": self.kind, "value": self.value, "max": self.max_value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram with cumulative-count percentile estimates.

    Buckets are upper bounds (``le`` semantics, like Prometheus); an
    implicit ``+Inf`` bucket catches the overflow.  ``percentile`` answers
    from the bucket boundaries with linear interpolation inside the
    winning bucket, so its error is bounded by the bucket width.
    """

    __slots__ = ("name", "help", "buckets", "counts", "count", "sum",
                 "min", "max", "labels")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Labels = None,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +Inf last
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.labels = dict(labels) if labels else None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        lower = 0.0
        for i, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                upper = (
                    self.buckets[i]
                    if i < len(self.buckets)
                    else (self.max if self.max is not None else lower)
                )
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            if i < len(self.buckets):
                lower = self.buckets[i]
        return self.max if self.max is not None else 0.0

    def as_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "buckets": self.cumulative_buckets(),
        }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def merge_counts(
        self,
        counts: Sequence[int],
        count: int,
        total: float,
        minimum: Optional[float],
        maximum: Optional[float],
    ) -> None:
        """Fold another histogram's raw per-bucket counts into this one.

        Used by :func:`~repro.telemetry.relay.merge_wire` to merge
        sweep-worker histograms into the parent registry; the caller
        guarantees matching buckets.
        """
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram {self.name}: cannot merge {len(counts)} bucket "
                f"counts into {len(self.counts)}"
            )
        for position, bucket_count in enumerate(counts):
            self.counts[position] += bucket_count
        self.count += count
        self.sum += total
        if minimum is not None and (self.min is None or minimum < self.min):
            self.min = minimum
        if maximum is not None and (self.max is None or maximum > self.max):
            self.max = maximum

    def cumulative_buckets(self) -> Dict[str, int]:
        """Prometheus-style cumulative ``le`` counts, ``+Inf`` last."""
        out: Dict[str, int] = {}
        cumulative = 0
        for le, count in zip(self.buckets, self.counts):
            cumulative += count
            out[str(le)] = cumulative
        out["+Inf"] = cumulative + self.counts[-1]
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


class NullCounter(Counter):
    """Counter whose mutations are no-ops (for always-on call sites)."""

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - no-op
        pass


class NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class MetricsRegistry:
    """Get-or-create home for all instruments, keyed by dotted name.

    A name plus a label set identifies one instrument: the same name with
    different labels is a different time series (the sweep engine uses
    this for per-worker ``sweep.cell.duration_seconds`` histograms).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def counter(
        self, name: str, help: str = "", labels: Labels = None
    ) -> Counter:
        return self._get_or_create(name, Counter, help=help, labels=labels)

    def gauge(self, name: str, help: str = "", labels: Labels = None) -> Gauge:
        return self._get_or_create(name, Gauge, help=help, labels=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Labels = None,
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, help=help, buckets=buckets, labels=labels
        )

    def _get_or_create(self, name: str, klass, labels: Labels = None, **kwargs):
        key = labeled_name(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, klass):
                raise TypeError(
                    f"metric {key!r} already registered as "
                    f"{type(existing).__name__}, requested {klass.__name__}"
                )
            return existing
        metric = klass(name, labels=labels, **kwargs)
        self._metrics[key] = metric
        return metric

    def get(self, name: str, labels: Labels = None):
        return self._metrics.get(labeled_name(name, labels))

    def __iter__(self):
        return iter(
            sorted(
                self._metrics.values(),
                key=lambda m: (m.name, labeled_name(m.name, m.labels)),
            )
        )

    def __len__(self) -> int:
        return len(self._metrics)

    def families(self) -> List[str]:
        """Distinct family prefixes (text before the first dot), sorted."""
        return sorted({m.name.split(".", 1)[0] for m in self._metrics.values()})

    def family(self, prefix: str) -> List[object]:
        """All instruments in one family, sorted by name."""
        return [m for m in self if m.name.split(".", 1)[0] == prefix]

    def as_dict(self) -> dict:
        """Snapshot: ``{family: {metric_key: metric_dict}}``.

        Label-carrying instruments key as ``name{k=v,...}`` so several
        series of one name coexist in the snapshot.
        """
        snapshot: Dict[str, dict] = {}
        for metric in self:
            family = metric.name.split(".", 1)[0]
            key = labeled_name(metric.name, metric.labels)
            snapshot.setdefault(family, {})[key] = metric.as_dict()
        return snapshot


class NullRegistry(MetricsRegistry):
    """Registry that hands out shared no-op instruments and records nothing."""

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = NullCounter("null")
        self._null_gauge = NullGauge("null")
        self._null_histogram = NullHistogram("null")

    def counter(self, name: str, help: str = "", labels: Labels = None) -> Counter:
        return self._null_counter

    def gauge(self, name: str, help: str = "", labels: Labels = None) -> Gauge:
        return self._null_gauge

    def histogram(self, name, help="", buckets=DEFAULT_TIME_BUCKETS,
                  labels=None):
        return self._null_histogram
