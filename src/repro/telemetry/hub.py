"""The ``Telemetry`` hub: one handle bundling metrics, events and spans.

Components across the stack accept an optional hub and normalise it with
:func:`active` — the contract that keeps the disabled path at literally
zero cost:

* **disabled (default)** — constructors receive ``None`` (or a hub with
  ``enabled=False``); ``active`` maps both to ``None``, the component
  stores ``None``, and every hook site is one ``if tel is not None``
  branch on a local.  No instrument lookups, no allocations, no calls.
* **metrics only** — ``Telemetry()`` with no writer: counters, gauges and
  span histograms accumulate in-process; snapshot via :meth:`snapshot`
  or :meth:`prometheus`.
* **full tracing** — attach a :class:`~repro.telemetry.writer
  .TelemetryWriter` and spans, source registrations, sink checks,
  buffer drains, injected faults and sampled CPU batches also land in
  the JSONL event stream.  Taint mutations are counted, not logged.

The hub is intentionally not global: it is threaded through constructors
(``AndroidDevice(telemetry=...)``, ``PIFTTracker(telemetry=...)``) so
concurrent stacks — e.g. the 57 suite devices — can share one hub or use
none, explicitly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.spans import Span, SpanContext
from repro.telemetry.writer import TelemetryWriter


class Telemetry:
    """Aggregates a metrics registry, an optional event writer, and spans.

    Args:
        enabled: master switch; a disabled hub records nothing and hands
            out no-op instruments.
        writer: optional JSONL event sink; ignored when disabled.
        registry: bring-your-own registry (tests share one across hubs).
        cpu_batch_sample: emit every Nth ``cpu_batch`` event to the writer
            (CPU batches are the highest-frequency event source — one per
            emitted mterp routine — so they are sampled; counters stay
            exact).  ``1`` logs every batch.
    """

    def __init__(
        self,
        enabled: bool = True,
        writer: Optional[TelemetryWriter] = None,
        registry: Optional[MetricsRegistry] = None,
        cpu_batch_sample: int = 64,
    ) -> None:
        if cpu_batch_sample < 1:
            raise ValueError("cpu_batch_sample must be >= 1")
        self.enabled = enabled
        if registry is not None:
            self.metrics = registry
        else:
            self.metrics = MetricsRegistry() if enabled else NullRegistry()
        self.writer: Optional[TelemetryWriter] = writer if enabled else None
        self.cpu_batch_sample = cpu_batch_sample
        self._span_stack: List[Span] = []

    # -- events ----------------------------------------------------------

    def event(self, event_type: str, **fields) -> None:
        """Emit one structured event when a writer is attached."""
        if self.writer is not None:
            self.writer.emit(event_type, **fields)

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **attributes) -> SpanContext:
        """Open a nested wall-time span (use as a context manager)."""
        return SpanContext(self, name, attributes)

    @property
    def current_span(self) -> Optional[Span]:
        return self._span_stack[-1] if self._span_stack else None

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        from repro.telemetry.exporters import snapshot

        return snapshot(self.metrics)

    def prometheus(self) -> str:
        from repro.telemetry.exporters import to_prometheus_text

        return to_prometheus_text(self.metrics)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- construction helpers -------------------------------------------

    @classmethod
    def disabled(cls) -> "Telemetry":
        return _DISABLED

    def preregister_standard(self) -> "Telemetry":
        """Create the standard instrument families up front.

        Guarantees that a snapshot taken after any run contains at least
        the ``tracker``, ``buffer``, ``faults``, ``cpu``, ``vm``,
        ``manager`` and ``store`` families, even for workloads that never exercise a
        subsystem (e.g. a pure-replay run never builds a
        ``BufferedPIFT``, and most runs inject no faults).
        """
        m = self.metrics
        m.counter("tracker.events", "memory events observed")
        m.counter("tracker.loads", "load events observed")
        m.counter("tracker.stores", "store events observed")
        m.counter("tracker.tainted_loads", "loads that hit tainted state")
        m.counter("tracker.taint_ops", "in-window store taint operations")
        m.counter("tracker.untaint_ops", "effective untaint operations")
        m.counter("tracker.sources", "source ranges registered")
        m.counter("tracker.checks", "sink-range taint queries")
        m.gauge("tracker.tainted_bytes", "current tainted bytes")
        m.gauge("tracker.range_count", "current taint-state range count")
        m.counter("buffer.events", "events enqueued to the FIFO")
        m.counter("buffer.drains", "drain batches executed")
        m.counter("buffer.events_drained", "events processed by drains")
        m.gauge("buffer.queue_depth", "current FIFO depth")
        m.histogram("buffer.drain_seconds", "drain batch wall time",
                    buckets=DEFAULT_TIME_BUCKETS)
        m.counter("buffer.forced_drops", "events lost to the overflow policy")
        m.counter("buffer.spilled_events", "events spilled to secondary memory")
        m.counter("buffer.backpressure_engagements", "high-watermark crossings")
        m.counter("faults.events_dropped", "events lost in flight")
        m.counter("faults.events_duplicated", "events delivered twice")
        m.counter("faults.events_reordered", "events released out of order")
        m.counter("faults.addresses_corrupted",
                  "events with a flipped address bit")
        m.counter("faults.state_entries_dropped",
                  "taint ranges discarded from storage")
        m.counter("faults.eviction_storms", "bulk LRU evictions injected")
        m.counter("faults.stall_events", "secondary-storage stalls injected")
        m.counter("cpu.instructions", "instructions retired")
        m.counter("cpu.batches", "instruction batches executed")
        m.histogram("cpu.batch_seconds", "instruction batch wall time",
                    buckets=DEFAULT_TIME_BUCKETS)
        m.gauge("cpu.instructions_per_second", "throughput of the last batch")
        m.counter("vm.method_calls", "entry-point method calls")
        m.counter("vm.invokes", "bytecode-level method invocations")
        m.counter("vm.bytecodes", "bytecodes interpreted")
        m.counter("manager.sources_registered", "framework source events")
        m.counter("manager.sink_checks", "framework sink checks")
        m.counter("manager.leaks", "sink checks that found taint")
        m.counter("store.hits", "store entry hits")
        m.counter("store.misses", "store entry misses")
        m.counter("store.writes", "store entries written")
        m.counter("store.corruptions", "corrupt entries quarantined")
        return self


_DISABLED = Telemetry(enabled=False)


def active(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Normalise an optional hub: ``None`` or disabled → ``None``.

    Components call this once in their constructor and keep the result;
    hot paths then need only a ``is not None`` test.
    """
    if telemetry is None or not telemetry.enabled:
        return None
    return telemetry
