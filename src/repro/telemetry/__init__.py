"""``repro.telemetry`` — metrics, spans, and structured event tracing.

The observability layer for the PIFT stack:

* :mod:`repro.telemetry.metrics` — counters, gauges, fixed-bucket
  histograms, and the :class:`MetricsRegistry` that owns them;
* :mod:`repro.telemetry.spans` — nested wall-time spans (context manager
  and :func:`timed` decorator);
* :mod:`repro.telemetry.writer` — the buffered JSONL event sink;
* :mod:`repro.telemetry.exporters` — JSON snapshot and Prometheus text
  format;
* :mod:`repro.telemetry.hub` — the :class:`Telemetry` facade threaded
  through the stack, and the :func:`active` disabled-path contract;
* :mod:`repro.telemetry.relay` — what a sweep worker's hub keeps
  (spans and metric deltas, which ride each result over the dispatcher's
  per-worker pipe) and the function that merges it into the parent hub;
* :mod:`repro.telemetry.tracefmt` — the in-memory flight recorder and
  its Chrome trace-event (Perfetto-loadable) export.

Telemetry is **off by default** everywhere: every instrumented component
takes ``telemetry=None`` and its hot path degenerates to a single
``is not None`` branch.  Turning it on never changes which code runs:
the tracker publishes its counters once per call, so replays keep the
vectorised kernel (the benchmark's ``telemetry.overhead_ratio`` on
``malware_replay`` measures what remains).
"""

from repro.telemetry.exporters import (
    escape_label_value,
    snapshot,
    snapshot_json,
    to_prometheus_text,
)
from repro.telemetry.hub import Telemetry, active
from repro.telemetry.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
    NullRegistry,
    labeled_name,
)
from repro.telemetry.spans import Span, SpanContext, timed
from repro.telemetry.tracefmt import (
    FlightRecorder,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.writer import (
    TeeWriter,
    TelemetryWriter,
    iter_events,
    read_events,
)

__all__ = [
    "Counter",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "Span",
    "SpanContext",
    "TeeWriter",
    "Telemetry",
    "TelemetryWriter",
    "active",
    "escape_label_value",
    "iter_events",
    "labeled_name",
    "read_events",
    "snapshot",
    "snapshot_json",
    "timed",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
]
