"""Trace persistence — store recorded runs the way the paper stores gem5
traces, so expensive executions can be analysed repeatedly offline.

Format: one gzip-compressed JSON document.  Memory events are delta- and
column-encoded (kinds as a bit string, indices as deltas, ranges as
``start``/``size`` pairs), which keeps a ~10^5-event trace at a few
hundred kilobytes while staying debuggable with standard tools
(``zcat trace.pift.gz | python -m json.tool``).
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Union

from repro.core.events import (
    EventTrace, checked_columns, checked_int64, checked_range,
)
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration

FORMAT_NAME = "pift-trace"
FORMAT_VERSION = 3

#: Older versions this reader still accepts.  Version 2 lacks ``pid``
#: fields on sources/sink checks (implicitly PID 0).
COMPATIBLE_VERSIONS = (2, FORMAT_VERSION)


class TraceFormatError(ValueError):
    """The file is not a readable pift-trace document."""


def _encode_events(trace: EventTrace) -> dict:
    columns = trace.columns()
    starts, indices = columns.starts, columns.indices
    payload = {
        "kinds": "".join(["l" if load else "s" for load in columns.is_loads]),
        "index_deltas": [
            index - previous for previous, index in zip([0] + indices, indices)
        ],
        "starts": list(starts),
        "sizes": [end - start + 1 for start, end in zip(starts, columns.ends)],
        "instruction_count": trace.instruction_count,
    }
    if any(columns.pids):
        payload["pids"] = list(columns.pids)
    return payload


def _trace_error(message: str) -> TraceFormatError:
    return TraceFormatError(f"trace events: {message}")


def _decode_events(payload: dict) -> EventTrace:
    """The ``events`` body as a column-only :class:`EventTrace`.

    The columns go through :func:`~repro.core.events.checked_columns`,
    the checks the wire decoder makes, so a malformed column raises
    :class:`TraceFormatError`.  An absent ``pids`` column means all 0.
    """
    kinds = payload["kinds"]
    if "pids" in payload:
        pids = payload["pids"]
    else:
        pids = [0] * len(kinds) if type(kinds) is str else []
    instruction_count = payload["instruction_count"]
    if type(instruction_count) is not int:
        raise _trace_error("instruction_count must be an integer")
    columns = checked_columns(
        kinds,
        {
            "starts": payload["starts"],
            "sizes": payload["sizes"],
            "index_deltas": payload["index_deltas"],
            "pids": pids,
        },
        _trace_error,
    )
    return EventTrace.from_columns(columns, instruction_count)


def encode_recorded_run(recorded: RecordedRun) -> dict:
    """The JSON-ready body of one recorded run (no format envelope).

    Shared by the single-run tracefile format below and the
    :mod:`repro.store` suite artifacts, so both persist runs with the
    same (versioned) encoding.
    """
    return {
        "events": _encode_events(recorded.trace),
        "sources": [
            {
                "start": source.address_range.start,
                "size": source.address_range.size,
                "index": source.instruction_index,
                "name": source.source_name,
                "pid": source.pid,
                # The explicit colour is an *optional* key: omitted when
                # unset, so documents written before (or without) colour
                # labels stay byte-identical — no version bump needed.
                **(
                    {"colour": source.colour}
                    if source.colour is not None
                    else {}
                ),
            }
            for source in recorded.sources
        ],
        "sink_checks": [
            {
                "start": check.address_range.start,
                "size": check.address_range.size,
                "index": check.instruction_index,
                "name": check.sink_name,
                "channel": check.channel,
                "pid": check.pid,
            }
            for check in recorded.sink_checks
        ],
    }


def decode_recorded_run(body: dict) -> RecordedRun:
    """Rebuild a :class:`RecordedRun` from :func:`encode_recorded_run`.

    Sources and sink checks are held to the wire's rules
    (:func:`~repro.core.events.checked_range` and
    :func:`~repro.core.events.checked_int64`): ``start``, ``size``,
    ``index`` and ``pid`` must be exact ints, the range non-empty and
    inside int64.  A bad field raises :class:`TraceFormatError`.
    """
    recorded = RecordedRun(trace=_decode_events(body["events"]))
    for source in body["sources"]:
        address_range, index, pid = _range_index_pid(source, "source")
        recorded.sources.append(
            SourceRegistration(
                address_range,
                index,
                source["name"],
                pid=pid,
                colour=source.get("colour"),
            )
        )
    for check in body["sink_checks"]:
        address_range, index, pid = _range_index_pid(check, "sink check")
        recorded.sink_checks.append(
            SinkCheck(
                address_range,
                index,
                check["name"],
                check["channel"],
                pid=pid,
            )
        )
    return recorded


def _range_index_pid(record: dict, what: str):
    """A stored source's or check's checked range, index and PID."""
    return (
        checked_range(record["start"], record["size"], what, TraceFormatError),
        checked_int64(record["index"], f"{what} index", TraceFormatError),
        checked_int64(record.get("pid", 0), f"{what} pid", TraceFormatError),
    )


def save_recorded_run(recorded: RecordedRun, path: Union[str, Path]) -> Path:
    """Serialise a recorded run to ``path`` (gzip JSON).  Returns the path."""
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        **encode_recorded_run(recorded),
    }
    path = Path(path)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
    return path


def load_recorded_run(path: Union[str, Path]) -> RecordedRun:
    """Load a recorded run previously written by :func:`save_recorded_run`."""
    try:
        with gzip.open(Path(path), "rt", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise TraceFormatError(f"cannot read {path}: {error}") from error
    if document.get("format") != FORMAT_NAME:
        raise TraceFormatError(f"{path} is not a {FORMAT_NAME} file")
    if document.get("version") not in COMPATIBLE_VERSIONS:
        raise TraceFormatError(
            f"{path} has version {document.get('version')}, "
            f"expected one of {COMPATIBLE_VERSIONS}"
        )
    try:
        return decode_recorded_run(document)
    except TraceFormatError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise TraceFormatError(f"{path} is malformed: {error!r}") from error
