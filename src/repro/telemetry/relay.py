"""Cross-process telemetry relay: worker hubs report back to the parent.

``run_sweep`` workers used to be observability-silent: every span and
counter mutated inside a worker process died with it.  This module
is the channel that ships them home:

* **worker side** — :func:`init_worker_telemetry` (called once as each
  dispatcher worker starts) builds a private
  :class:`~repro.telemetry.hub.Telemetry` hub per worker whose writer is
  a :class:`RelayWriter`: selected event types (spans and cell markers;
  per-event types would flood the queue) are batched by a
  :class:`RelayClient` and shipped over a
  ``multiprocessing`` queue with **non-blocking** puts — a full queue
  never stalls a worker, it just drops the batch and counts it.  A
  daemon heartbeat thread reports liveness (and the cell currently being
  evaluated) every ``heartbeat_interval`` seconds, and after each cell
  the worker ships a **metric delta snapshot** of its registry;
* **parent side** — :class:`TelemetryRelay` drains the queue on a
  background thread, re-emits worker events into the parent hub (tagged
  ``worker_id`` / ``cell_index`` / ``pid``), folds metric deltas into
  the parent registry (:func:`merge_wire`), and feeds heartbeats to a
  :class:`StallDetector` that raises ``worker_stall`` telemetry events
  (and the CLI's ``--stall-timeout`` warning callback) when a worker
  goes quiet mid-cell.

The relay only exists when telemetry is enabled; a telemetry-off sweep
constructs none of this and workers run exactly the pre-relay code path.
Everything shipped is observational — results remain bit-identical to a
relay-less run (parity-tested in ``tests/unit/test_relay.py``).
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import MetricsRegistry, labeled_name

#: Event types a worker ships by default.  Deliberately narrow: spans and
#: cell markers are per-cell volume; per-event fault and CPU-batch events
#: are represented by the metric snapshot instead.
DEFAULT_SHIP_TYPES: FrozenSet[str] = frozenset(
    {"span", "cell_start", "cell_end", "worker_start"}
)

#: Parent-side queue capacity, in messages (a message batches many events).
DEFAULT_QUEUE_SIZE = 4096

#: Events buffered worker-side before a queue put.
DEFAULT_MAX_BATCH = 64

#: Seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Cumulative-stat fields a histogram wire entry carries.
_HIST_STATE = ("counts", "count", "sum")

StallCallback = Callable[[int, Optional[int], float], None]


# -- metric wire format ------------------------------------------------------


def registry_wire_delta(registry: MetricsRegistry, last: Dict[str, dict]) -> dict:
    """The registry's change since ``last`` in relay wire form.

    ``last`` is the client's persistent per-metric state and is updated
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


class RelayClient:
    """Worker-side end of the relay: batch, ship, never block, count drops."""

    def __init__(
        self,
        channel,
        worker_id: int,
        pid: Optional[int] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.channel = channel
        self.worker_id = worker_id
        self.pid = pid if pid is not None else os.getpid()
        self.max_batch = max_batch
        #: Cell currently being evaluated (None between cells); stamped
        #: onto heartbeats and relayed records for attribution.
        self.current_cell: Optional[int] = None
        #: Events lost to queue backpressure (cumulative, shipped with
        #: every message so the parent always sees the latest count).
        self.dropped_events = 0
        self.dropped_messages = 0
        self.sent_messages = 0
        self._batch: List[dict] = []
        self._metric_state: Dict[str, dict] = {}

    # -- shipping ---------------------------------------------------------

    def _put(self, message: dict, event_cost: int = 0) -> bool:
        try:
            self.channel.put_nowait(message)
        except queue_module.Full:
            self.dropped_events += event_cost
            self.dropped_messages += 1
            return False
        self.sent_messages += 1
        return True

    def emit_record(self, record: dict) -> None:
        """Buffer one event record; ships when the batch fills."""
        self._batch.append(record)
        if len(self._batch) >= self.max_batch:
            self.flush()

    def flush(self) -> None:
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        self._put(
            {
                "kind": "events",
                "worker_id": self.worker_id,
                "pid": self.pid,
                "events": batch,
                "dropped": self.dropped_events,
            },
            event_cost=len(batch),
        )

    def heartbeat(self) -> None:
        """Non-blocking liveness ping carrying the cell under evaluation."""
        self._put(
            {
                "kind": "heartbeat",
                "worker_id": self.worker_id,
                "pid": self.pid,
                "cell_index": self.current_cell,
                "mono": time.perf_counter(),
                "dropped": self.dropped_events,
            }
        )

    def ship_snapshot(self, registry: MetricsRegistry, cell_index: int) -> None:
        """Ship the registry's delta since the last snapshot (end of cell)."""
        wire = registry_wire_delta(registry, self._metric_state)
        self.flush()
        self._put(
            {
                "kind": "snapshot",
                "worker_id": self.worker_id,
                "pid": self.pid,
                "cell_index": cell_index,
                "metrics": wire,
                "dropped": self.dropped_events,
            }
        )


class RelayWriter:
    """Hub writer that forwards whitelisted events to a :class:`RelayClient`.

    Everything else (fault injections, CPU batches) returns
    immediately — those stay metric-only worker-side, keeping the hot
    path untouched and the queue volume bounded by cells, not events.
    """

    path: Optional[str] = None

    def __init__(
        self,
        client: RelayClient,
        ship_types: FrozenSet[str] = DEFAULT_SHIP_TYPES,
    ) -> None:
        self.client = client
        self.ship_types = frozenset(ship_types)
        self.event_count = 0
        self.closed = False

    def emit(self, event_type: str, **fields) -> None:
        if event_type not in self.ship_types:
            return
        record = {
            "type": event_type,
            "mono": time.perf_counter(),
            "worker_id": self.client.worker_id,
        }
        if self.client.current_cell is not None:
            record["cell_index"] = self.client.current_cell
        record.update(fields)
        self.client.emit_record(record)
        self.event_count += 1

    def flush(self) -> None:
        self.client.flush()

    def close(self) -> None:
        self.client.flush()
        self.closed = True


class _HeartbeatThread(threading.Thread):
    """Daemon timer ticking :meth:`RelayClient.heartbeat` until stopped."""

    def __init__(self, client: RelayClient, interval: float) -> None:
        super().__init__(name=f"relay-heartbeat-{client.worker_id}", daemon=True)
        self.client = client
        self.interval = interval
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            self.client.heartbeat()


def init_worker_telemetry(payload: dict) -> Telemetry:
    """Build this worker's relay-backed hub (called as a worker starts).

    ``payload`` comes from :meth:`TelemetryRelay.worker_payload`: the
    shared queue, the worker-id counter, and the tuning knobs.  The hub
    carries its :class:`RelayClient` as ``hub.relay_client`` so the
    dispatcher's worker loop can mark cell boundaries and ship snapshots.
    """
    counter = payload["counter"]
    with counter.get_lock():
        counter.value += 1
        worker_id = counter.value
    client = RelayClient(
        payload["queue"],
        worker_id,
        max_batch=payload.get("max_batch", DEFAULT_MAX_BATCH),
    )
    hub = Telemetry(
        writer=RelayWriter(
            client, payload.get("ship_types", DEFAULT_SHIP_TYPES)
        )
    )
    hub.relay_client = client
    hub.event("worker_start", pid=client.pid)
    client.heartbeat()
    interval = payload.get("heartbeat_interval", DEFAULT_HEARTBEAT_INTERVAL)
    if interval:
        _HeartbeatThread(client, interval).start()
    return hub


# -- parent side -------------------------------------------------------------


class StallDetector:
    """Pure stall bookkeeping: who was heard from when, working on what.

    A worker counts as stalled when it has an active cell and no message
    has arrived for longer than ``timeout``; it re-arms (and may stall
    again) once a new message arrives.  Time is injected, so tests drive
    it with a fake clock.
    """

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError("stall timeout must be positive")
        self.timeout = timeout
        self._last_seen: Dict[int, float] = {}
        self._cell: Dict[int, Optional[int]] = {}
        self._stalled: Dict[int, bool] = {}

    def note(
        self,
        worker_id: int,
        now: float,
        cell_index: Optional[int] = None,
        keep_cell: bool = False,
    ) -> bool:
        """Record a message from ``worker_id``; True when it recovered."""
        self._last_seen[worker_id] = now
        if not keep_cell:
            self._cell[worker_id] = cell_index
        recovered = self._stalled.get(worker_id, False)
        self._stalled[worker_id] = False
        return recovered

    def check(self, now: float) -> List[Tuple[int, Optional[int], float]]:
        """Workers newly quiet past the timeout: (worker, cell, quiet_s)."""
        stalls = []
        for worker_id, seen in self._last_seen.items():
            quiet = now - seen
            if (
                quiet > self.timeout
                and self._cell.get(worker_id) is not None
                and not self._stalled.get(worker_id)
            ):
                self._stalled[worker_id] = True
                stalls.append((worker_id, self._cell[worker_id], quiet))
        return stalls


class TelemetryRelay:
    """Parent-side relay: drain worker messages, merge, watch for stalls.

    Create one per parallel sweep (when telemetry is enabled), hand
    :meth:`worker_payload` to the dispatcher's workers, :meth:`start` the
    drain thread before workers run, and :meth:`stop` after the workers
    have stopped — stop drains whatever is left, folds per-worker drop
    counts into ``sweep.relay.*`` metrics, and emits a ``relay_summary``
    event.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        context,
        stall_timeout: Optional[float] = None,
        on_stall: Optional[StallCallback] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        max_batch: int = DEFAULT_MAX_BATCH,
        ship_types: FrozenSet[str] = DEFAULT_SHIP_TYPES,
        on_heartbeat: Optional[Callable[[Optional[int]], None]] = None,
    ) -> None:
        self.telemetry = telemetry
        self.queue = context.Queue(queue_size)
        self._counter = context.Value("i", 0)
        self.heartbeat_interval = heartbeat_interval
        self.max_batch = max_batch
        self.ship_types = frozenset(ship_types)
        self.on_stall = on_stall
        #: Called with the worker's pid on every heartbeat (from the
        #: drain thread) — the sweep dispatcher hooks this to renew leases.
        self.on_heartbeat = on_heartbeat
        self.detector = (
            StallDetector(stall_timeout) if stall_timeout else None
        )
        self.events_merged = 0
        self.heartbeats = 0
        self.snapshots = 0
        self.stalls: List[Tuple[int, Optional[int], float]] = []
        self.dropped: Dict[int, int] = {}
        self.worker_pids: Dict[int, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- wiring -----------------------------------------------------------

    def worker_payload(self) -> dict:
        """What each dispatcher worker needs to build its hub."""
        return {
            "queue": self.queue,
            "counter": self._counter,
            "heartbeat_interval": self.heartbeat_interval,
            "max_batch": self.max_batch,
            "ship_types": self.ship_types,
        }

    def start(self) -> None:
        self._thread = threading.Thread(
            name="telemetry-relay", target=self._drain_loop, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Drain the tail, join the thread, publish relay accounting."""
        self._stop.set()
        try:
            # Wake the drain thread immediately instead of letting it
            # sleep out its poll timeout; all real worker messages were
            # queued before stop() (results are consumed first), so they
            # sit ahead of this sentinel and still drain FIFO.
            self.queue.put_nowait({"kind": "wake"})
        except (queue_module.Full, ValueError, OSError):
            pass  # full queue wakes the getter by itself; closed is done
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        try:
            # A worker SIGKILLed mid-put can die holding the queue's
            # shared write lock; without this, interpreter exit joins
            # the feeder thread, which blocks on that lock forever.
            self.queue.cancel_join_thread()
            self.queue.close()
        except (OSError, ValueError):
            pass
        dropped_total = sum(self.dropped.values())
        metrics = self.telemetry.metrics
        metrics.counter(
            "sweep.relay.events_merged", "worker events merged by the relay"
        ).inc(self.events_merged)
        metrics.counter(
            "sweep.relay.heartbeats", "worker heartbeats received"
        ).inc(self.heartbeats)
        if dropped_total:
            metrics.counter(
                "sweep.relay.dropped_events",
                "worker events lost to relay backpressure",
            ).inc(dropped_total)
        self.telemetry.event(
            "relay_summary",
            workers=len(self.worker_pids),
            events_merged=self.events_merged,
            heartbeats=self.heartbeats,
            snapshots=self.snapshots,
            dropped_events=dropped_total,
            stalls=len(self.stalls),
        )

    # -- drain loop -------------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            stopping = self._stop.is_set()
            try:
                if stopping:  # non-blocking tail drain after stop()
                    message = self.queue.get_nowait()
                else:
                    message = self.queue.get(timeout=0.05)
            except queue_module.Empty:
                if stopping:
                    return
                message = None
            except (EOFError, OSError):  # queue torn down under us
                return
            except Exception:
                # A worker SIGKILLed mid-put can leave a half-pickled
                # message in the pipe; drop it instead of letting an
                # unpickling error kill the drain thread.
                message = None
            if message is not None and message.get("kind") != "wake":
                self._handle(message)
            self._check_stalls()

    def _handle(self, message: dict) -> None:
        worker_id = message["worker_id"]
        now = time.perf_counter()
        self.worker_pids.setdefault(worker_id, message.get("pid"))
        previous = self.dropped.get(worker_id, 0)
        self.dropped[worker_id] = max(previous, message.get("dropped", 0))
        kind = message["kind"]
        if kind == "heartbeat":
            self.heartbeats += 1
            if self.on_heartbeat is not None:
                self.on_heartbeat(message.get("pid"))
            if self.detector is not None:
                self.detector.note(
                    worker_id, now, cell_index=message.get("cell_index")
                )
            self.telemetry.event(
                "heartbeat",
                worker_id=worker_id,
                pid=message.get("pid"),
                cell_index=message.get("cell_index"),
                mono=message.get("mono"),
            )
        elif kind == "events":
            if self.detector is not None:
                self.detector.note(worker_id, now, keep_cell=True)
            for record in message["events"]:
                record.setdefault("pid", message.get("pid"))
                fields = {
                    key: value
                    for key, value in record.items()
                    if key != "type"
                }
                self.telemetry.event(record["type"], **fields)
                self.events_merged += 1
        elif kind == "snapshot":
            self.snapshots += 1
            if self.detector is not None:
                self.detector.note(worker_id, now, cell_index=None)
            merge_wire(
                self.telemetry.metrics, message["metrics"], worker_id=worker_id
            )

    def _check_stalls(self) -> None:
        if self.detector is None:
            return
        for worker_id, cell_index, quiet in self.detector.check(
            time.perf_counter()
        ):
            self.stalls.append((worker_id, cell_index, quiet))
            self.telemetry.metrics.counter(
                "sweep.worker.stalls", "workers gone quiet mid-cell"
            ).inc()
            self.telemetry.event(
                "worker_stall",
                worker_id=worker_id,
                pid=self.worker_pids.get(worker_id),
                cell_index=cell_index,
                quiet_seconds=round(quiet, 3),
            )
            if self.on_stall is not None:
                self.on_stall(worker_id, cell_index, quiet)
