"""Sweep-worker telemetry: what a worker's hub keeps, and how the parent
merges it.

``run_sweep`` workers would otherwise be observability-silent: every
span and counter mutated inside a worker process dies with it.  No
channel of its own carries them home; they ride the lease dispatcher's
per-worker pipe (:mod:`repro.sweep.dispatch`):

* **worker side** — :func:`worker_hub` builds each telemetered
  dispatcher worker a private :class:`~repro.telemetry.hub.Telemetry`
  hub whose writer is a :class:`WorkerWriter`.  It keeps the
  whitelisted records (spans and the ``worker_start`` marker; per-event
  types are represented by the metric delta instead), and
  :meth:`WorkerWriter.take` hands them over, with the registry's change
  since the previous take (:func:`registry_wire_delta`), as the payload
  of the worker's next ``result`` message;
* **parent side** — the dispatcher's main loop passes each completed
  cell's payload to :func:`merge_worker_telemetry`, which re-emits the
  records into the parent hub (tagged with the worker's ``pid``) and
  folds the metric delta into the parent registry (:func:`merge_wire`).

The pipe is lossless, so nothing is dropped or counted as dropped; what
a killed worker had not yet shipped dies with it, and its requeued cell
ships afresh from the attempt that completes.  Everything shipped is
observational — results remain bit-identical to a telemetry-off run
(parity-tested in ``tests/unit/test_relay.py``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, FrozenSet, List, Optional

from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import MetricsRegistry, labeled_name

#: Event types a worker's hub keeps for the parent.  Deliberately narrow:
#: spans are per-cell volume; per-event fault and CPU-batch events are
#: represented by the metric delta instead.
SHIPPED_TYPES: FrozenSet[str] = frozenset({"span", "worker_start"})


# -- metric wire format ------------------------------------------------------


def registry_wire_delta(registry: MetricsRegistry, last: Dict[str, dict]) -> dict:
    """The registry's change since ``last`` in wire form.

    ``last`` is the caller's persistent per-metric state and is updated
    in place, so calling once per cell ships per-cell deltas; counters
    and histograms merge additively parent-side, gauges ship their
    current value and high-water mark.  Untouched metrics ship nothing.
    """
    wire: dict = {}
    for metric in registry:
        key = labeled_name(metric.name, metric.labels)
        entry: Optional[dict] = None
        if metric.kind == "counter":
            previous = last.get(key, {}).get("value", 0)
            if metric.value != previous:
                entry = {"inc": metric.value - previous}
            last[key] = {"value": metric.value}
        elif metric.kind == "gauge":
            previous = last.get(key)
            state = {"value": metric.value, "max": metric.max_value}
            if previous != state:
                entry = dict(state)
            last[key] = state
        elif metric.kind == "histogram":
            previous = last.get(
                key, {"counts": [0] * len(metric.counts), "count": 0, "sum": 0.0}
            )
            if metric.count != previous["count"]:
                entry = {
                    "counts": [
                        now - before
                        for now, before in zip(metric.counts, previous["counts"])
                    ],
                    "count": metric.count - previous["count"],
                    "sum": metric.sum - previous["sum"],
                    "min": metric.min,
                    "max": metric.max,
                    "buckets": list(metric.buckets),
                }
            last[key] = {
                "counts": list(metric.counts),
                "count": metric.count,
                "sum": metric.sum,
            }
        if entry is not None:
            entry["kind"] = metric.kind
            entry["name"] = metric.name
            if metric.labels:
                entry["labels"] = dict(metric.labels)
            wire[key] = entry
    return wire


def merge_wire(
    registry: MetricsRegistry, wire: dict, worker_id: Optional[int] = None
) -> None:
    """Fold one worker's metric delta into the parent registry.

    Counters and histograms merge additively into the *unlabelled*
    parent series (totals across workers); gauges are per-worker state,
    so they land as separate ``worker_id``-labelled series.
    """
    for entry in wire.values():
        labels = entry.get("labels")
        if entry["kind"] == "counter":
            registry.counter(entry["name"], labels=labels).inc(entry["inc"])
        elif entry["kind"] == "gauge":
            gauge_labels = dict(labels or {})
            if worker_id is not None:
                gauge_labels.setdefault("worker_id", str(worker_id))
            gauge = registry.gauge(entry["name"], labels=gauge_labels or None)
            gauge.set(entry["max"])  # preserve the worker's high-water mark
            gauge.set(entry["value"])
        elif entry["kind"] == "histogram":
            histogram = registry.histogram(
                entry["name"], buckets=entry["buckets"], labels=labels
            )
            if list(histogram.buckets) == list(entry["buckets"]):
                histogram.merge_counts(
                    entry["counts"],
                    entry["count"],
                    entry["sum"],
                    entry.get("min"),
                    entry.get("max"),
                )


# -- worker side -------------------------------------------------------------


class WorkerWriter:
    """A sweep worker's hub writer: keeps whitelisted records for the parent.

    Everything else (fault injections, CPU batches) returns at once —
    those stay metric-only worker-side, so what a result carries is
    bounded by cells, not events.  Each kept record is stamped with the
    worker id and a ``time.perf_counter`` reading.
    """

    path: Optional[str] = None

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.records: List[dict] = []
        self.event_count = 0
        self.closed = False
        self._metric_state: Dict[str, dict] = {}

    def emit(self, event_type: str, **fields) -> None:
        if event_type not in SHIPPED_TYPES:
            return
        record = {
            "type": event_type,
            "mono": time.perf_counter(),
            "worker_id": self.worker_id,
        }
        record.update(fields)
        self.records.append(record)
        self.event_count += 1

    def take(self, registry: MetricsRegistry) -> dict:
        """The records kept and ``registry``'s delta since the last take."""
        records, self.records = self.records, []
        return {
            "events": records,
            "metrics": registry_wire_delta(registry, self._metric_state),
        }

    def flush(self) -> None:  # noqa: D102 - nothing buffered
        pass

    def close(self) -> None:
        self.closed = True


def worker_hub(worker_id: int) -> Telemetry:
    """A telemetered dispatcher worker's hub (built as the worker starts)."""
    hub = Telemetry(writer=WorkerWriter(worker_id))
    hub.event("worker_start", pid=os.getpid())
    return hub


# -- parent side -------------------------------------------------------------


def merge_worker_telemetry(
    telemetry: Telemetry, worker_id: int, pid: Optional[int], payload: dict
) -> int:
    """Fold one completed cell's worker payload into the parent hub.

    Records re-emit as they were kept, plus the worker's ``pid``; the
    metric delta merges with gauges labelled by ``worker_id``.  Returns
    the number of records merged.
    """
    events = payload["events"]
    for record in events:
        fields = {key: value for key, value in record.items() if key != "type"}
        fields.setdefault("pid", pid)
        telemetry.event(record["type"], **fields)
    merge_wire(telemetry.metrics, payload["metrics"], worker_id=worker_id)
    return len(events)
