"""The run flight recorder and its Chrome trace-event export.

A sweep run's merged telemetry stream — parent spans, per-worker per-cell
spans merged from each worker's results by :mod:`repro.telemetry.relay`,
heartbeats, engine events — is captured by a :class:`FlightRecorder` (a
writer-shaped sink that keeps records in memory with absolute monotonic
timestamps) and can be exported two ways:

* :func:`to_chrome_trace` — the Chrome trace-event JSON format (the
  ``traceEvents`` array form), loadable in Perfetto or
  ``chrome://tracing``.  Each dispatcher worker becomes one named thread
  track (``tid`` = worker id, parent is tid 0), spans become complete
  (``"ph": "X"``) events carrying ``cell_index`` attribution in
  ``args``, and everything else becomes an instant event;
* plain JSONL (:meth:`FlightRecorder.dump_jsonl`) — the post-hoc stream
  ``repro report`` joins against the :class:`~repro.store.RunJournal`.

Timestamps are ``time.perf_counter()`` readings.  On the platforms this
repo targets that clock is ``CLOCK_MONOTONIC``, which is system-wide, so
worker and parent readings share a base and the exported trace aligns
across processes; were a platform to use per-process bases, tracks would
shift relative to each other but each track stays internally consistent
(the property :func:`validate_chrome_trace` checks).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.telemetry.writer import PathLike

#: Trace-event keys every exported event carries.
_REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")

#: The single synthetic process id all tracks live under.
_TRACE_PID = 1


class FlightRecorder:
    """Writer-shaped sink that keeps every event in memory, timestamped.

    Implements the hub writer protocol (``emit`` / ``flush`` / ``close``)
    so it can be attached to a :class:`~repro.telemetry.hub.Telemetry`
    directly or fanned in via :class:`~repro.telemetry.writer.TeeWriter`.
    Records merged from sweep workers already carry their worker-side
    ``mono`` timestamp; locally-emitted records are stamped here.
    """

    path: Optional[str] = None

    def __init__(self) -> None:
        self.records: List[dict] = []
        self.event_count = 0
        self.closed = False

    def emit(self, event_type: str, **fields) -> None:
        record = {"type": event_type}
        record.update(fields)
        record.setdefault("mono", time.perf_counter())
        self.records.append(record)
        self.event_count += 1

    def flush(self) -> None:  # noqa: D102 - nothing buffered
        pass

    def close(self) -> None:
        self.closed = True

    def dump_jsonl(self, path: PathLike, extra: Sequence[dict] = ()) -> int:
        """Write the records (plus ``extra`` trailers) as JSONL; count."""
        records = list(self.records) + list(extra)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(records)


def _worker_tracks(records: Sequence[dict]) -> Dict[int, Optional[int]]:
    """``worker_id -> pid`` for every track seen in the stream."""
    tracks: Dict[int, Optional[int]] = {}
    for record in records:
        worker = int(record.get("worker_id", 0) or 0)
        pid = record.get("pid")
        if worker not in tracks or (tracks[worker] is None and pid is not None):
            tracks[worker] = pid
    return tracks


def to_chrome_trace(
    records: Sequence[dict], run_id: Optional[str] = None
) -> dict:
    """Convert a flight-recorder stream to a Chrome trace-event document.

    ``records`` are flight-recorder dicts: ``type``, absolute ``mono``
    seconds, optional ``worker_id`` (0 / absent = the parent process),
    optional ``cell_index`` attribution, and for ``span`` records a
    ``name`` and ``duration_us``.  Events are sorted by timestamp, so
    ``ts`` is monotonic within every ``tid``.
    """
    timed = [r for r in records if isinstance(r.get("mono"), (int, float))]
    events: List[dict] = []
    starts: List[float] = []
    for record in timed:
        duration_us = 0.0
        if record.get("type") == "span":
            duration_us = float(record.get("duration_us") or 0.0)
        starts.append(record["mono"] - duration_us / 1e6)
    base = min(starts) if starts else 0.0

    for record, start in zip(timed, starts):
        worker = int(record.get("worker_id", 0) or 0)
        args = {
            key: value
            for key, value in record.items()
            if key not in ("type", "mono", "worker_id", "name", "duration_us")
            and value is not None
        }
        if record.get("type") == "span":
            events.append(
                {
                    "name": str(record.get("name", "span")),
                    "cat": "span",
                    "ph": "X",
                    "ts": round((start - base) * 1e6, 3),
                    "dur": round(float(record.get("duration_us") or 0.0), 3),
                    "pid": _TRACE_PID,
                    "tid": worker,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "name": str(record["type"]),
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": round((start - base) * 1e6, 3),
                    "pid": _TRACE_PID,
                    "tid": worker,
                    "args": args,
                }
            )
    events.sort(key=lambda event: (event["ts"], event["tid"]))

    metadata: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": _TRACE_PID,
            "tid": 0,
            "args": {"name": "repro.sweep" + (f" run {run_id}" if run_id else "")},
        }
    ]
    tracks = _worker_tracks(timed)
    for worker in sorted(tracks):
        label = "parent" if worker == 0 else f"worker-{worker}"
        if tracks[worker] is not None:
            label += f" (pid {tracks[worker]})"
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": _TRACE_PID,
                "tid": worker,
                "args": {"name": label},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.telemetry.tracefmt",
            "run_id": run_id,
            "workers": len(tracks),
            "events": len(events),
        },
    }


def write_chrome_trace(
    records: Sequence[dict], path: PathLike, run_id: Optional[str] = None
) -> dict:
    """Export ``records`` as a Chrome trace JSON file; return the document."""
    document = to_chrome_trace(records, run_id=run_id)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
    return document


def validate_chrome_trace(document: Union[dict, str]) -> dict:
    """Structural validation of an exported trace; raises ``ValueError``.

    Checks the contract the CI report-smoke job freezes: the document is
    the JSON-object trace form with a non-empty ``traceEvents`` array,
    every event carries name/ph/ts/pid/tid, complete events carry a
    non-negative ``dur``, and ``ts`` is monotonically non-decreasing
    within each ``tid``.  Returns summary counts.
    """
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a JSON-object Chrome trace (no traceEvents)")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty array")
    last_ts: Dict[int, float] = {}
    spans = 0
    instants = 0
    for position, event in enumerate(events):
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                raise ValueError(f"event {position} is missing {key!r}")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ValueError(f"event {position} has bad ts {event['ts']!r}")
        if event["ph"] == "M":
            continue
        tid = event["tid"]
        if event["ts"] < last_ts.get(tid, 0.0):
            raise ValueError(
                f"event {position} ts {event['ts']} went backwards "
                f"within tid {tid}"
            )
        last_ts[tid] = event["ts"]
        if event["ph"] == "X":
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                raise ValueError(f"event {position} (X) has bad dur")
            spans += 1
        else:
            instants += 1
    return {
        "events": spans + instants,
        "spans": spans,
        "instants": instants,
        "tids": sorted(last_ts),
    }
