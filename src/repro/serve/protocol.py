"""The `repro serve` wire protocol — newline-delimited JSON frames.

One frame per line, UTF-8 JSON with an ``op`` discriminator.  The format
is deliberately boring: every frame is independently parseable, a stream
is debuggable with ``nc``/``socat`` + a JSON pretty-printer, and the
device side needs nothing beyond a socket and ``json.dumps``.

Device-side ops (one connection == one device stream):

* ``hello``   — handshake; names the device and negotiates colours.
* ``source``  — a source registration (optionally colour-labelled).
* ``events``  — a *chunk* of memory events in the tracefile column
  encoding (kinds as an ``l``/``s`` string, parallel ``starts`` /
  ``sizes`` / ``indices`` / ``pids`` arrays).  Chunking is the streaming
  unit: a device never has to materialise its whole trace.
* ``check``   — a sink check; the server answers with a ``verdict``.
* ``reset``   — drop the device's shards (app restart / next run).
* ``end``     — end of stream; the server answers with a summary.

Admin/query ops (any connection):

* ``query``   — per-device verdict log + colour attribution.
* ``stats``   — server-wide shard/ingest accounting.
* ``drain``   — snapshot a shard and park it (the migration primitive).
* ``restore`` — revive a parked shard from a snapshot, on any worker.
* ``migrate`` — server-side drain + restore to another worker.
* ``shutdown``— stop the daemon.

:func:`run_to_frames` turns a :class:`~repro.android.device.RecordedRun`
into the canonical frame sequence.  It walks the *replay plan* — the
same config-independent segmentation batch replay uses
(:func:`repro.analysis.replay.replay_plan_for`) — so sources, events,
and checks interleave in exactly the order the batch path drains them.
That shared ordering is what makes the fleet parity claim well-defined:
the verdict stream a device receives lines up 1:1 with the
``sink_outcomes`` list of a batch replay of the same run.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from repro.analysis.replay import replay_plan_for, source_colour
from repro.android.device import RecordedRun
from repro.core.events import EventColumns, MemoryAccess
from repro.core.ranges import AddressRange

PROTOCOL_VERSION = 1

#: Default events per ``events`` frame — the chunk a device buffers at
#: most.  Small enough to stream, large enough to amortise JSON cost.
DEFAULT_CHUNK = 512


class ProtocolError(ValueError):
    """A frame that cannot be parsed or violates the protocol."""


def encode_frame(frame: dict) -> bytes:
    """One frame -> one newline-terminated JSON line (compact, sorted)."""
    return json.dumps(
        frame, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    """Inverse of :func:`encode_frame`; raises :class:`ProtocolError`."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"unparseable frame: {error}") from error
    if not isinstance(frame, dict) or "op" not in frame:
        raise ProtocolError("frame is not an object with an 'op' key")
    return frame


def hello_frame(device: str, colours: bool = False) -> dict:
    return {
        "op": "hello",
        "device": device,
        "version": PROTOCOL_VERSION,
        "colours": colours,
    }


def source_frame(source) -> dict:
    """A :class:`~repro.android.device.SourceRegistration` as a frame.

    The colour rides along unconditionally (defaulting to the source
    name, mirroring :func:`repro.analysis.replay.source_colour`); the
    server ignores it on a plain (colour-free) daemon.
    """
    return {
        "op": "source",
        "start": source.address_range.start,
        "size": source.address_range.size,
        "index": source.instruction_index,
        "name": source.source_name,
        "pid": source.pid,
        "colour": source_colour(source),
    }


def check_frame(check) -> dict:
    """A :class:`~repro.android.device.SinkCheck` as a frame."""
    return {
        "op": "check",
        "start": check.address_range.start,
        "size": check.address_range.size,
        "index": check.instruction_index,
        "sink": check.sink_name,
        "channel": check.channel,
        "pid": check.pid,
    }


def events_frame(events: List[MemoryAccess]) -> dict:
    """A chunk of memory events in the tracefile column encoding."""
    return {
        "op": "events",
        "kinds": "".join("l" if e.is_load else "s" for e in events),
        "starts": [e.address_range.start for e in events],
        "sizes": [e.address_range.size for e in events],
        "indices": [e.instruction_index for e in events],
        "pids": [e.pid for e in events],
    }


#: The one value type a column entry may have.  JSON numbers arrive as
#: ``int`` or ``float`` and ``true``/``false`` as ``bool`` (an ``int``
#: subclass); only exact ``int`` is accepted, so nothing is truncated or
#: coerced.
_INT = frozenset({int})

#: Every value must also fit an int64: the vectorised kernel turns the
#: columns into int64 numpy arrays.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

_EVENT_COLUMNS = ("starts", "sizes", "indices", "pids")


def _int64(value, what: str) -> int:
    """``value`` if it is an ``int`` (not ``bool``) that fits an int64."""
    if type(value) is not int or not _INT64_MIN <= value <= _INT64_MAX:
        raise ProtocolError(f"{what} must be a 64-bit integer, got {value!r}")
    return value


def decode_columns(frame: dict) -> Dict[int, EventColumns]:
    """Validate an ``events`` frame into per-PID column chunks.

    Returns ``{pid: EventColumns}`` in order of each PID's first event;
    every chunk holds that PID's events in frame order.  No
    :class:`~repro.core.events.MemoryAccess` is built — a shard enqueues
    the chunk as is (:meth:`repro.serve.shard.TrackerShard.ingest`).

    The whole frame is checked before anything is built, so a bad frame
    raises :class:`ProtocolError` and no shard sees any of it: a missing
    column, a ``kinds`` that is not a string of ``l``/``s``, a column
    that is not a list, columns of different lengths, any value that is
    not an ``int`` (``bool`` and ``float`` included), a negative start,
    a size below 1, or an end address, index or PID outside int64.
    """
    try:
        kinds = frame["kinds"]
        columns = [frame[name] for name in _EVENT_COLUMNS]
    except KeyError as error:
        raise ProtocolError(f"events frame missing {error}") from error
    if type(kinds) is not str:
        raise ProtocolError("events frame kinds must be a string")
    count = len(kinds)
    for name, column in zip(_EVENT_COLUMNS, columns):
        if type(column) is not list:
            raise ProtocolError(f"events frame {name} must be a list")
        if len(column) != count:
            raise ProtocolError("events frame columns disagree on length")
        if not _INT.issuperset(map(type, column)):
            raise ProtocolError(f"events frame {name} must hold integers")
    if kinds.count("l") + kinds.count("s") != count:
        raise ProtocolError("events frame kinds must each be 'l' or 's'")
    starts, sizes, indices, pids = columns
    if not count:
        return {}
    if min(starts) < 0:
        raise ProtocolError("events frame has a negative start")
    if min(sizes) < 1:
        raise ProtocolError("events frame has a size below 1")
    ends = [start + size - 1 for start, size in zip(starts, sizes)]
    if max(ends) > _INT64_MAX:
        raise ProtocolError("events frame has an end address beyond int64")
    for name, column in (("indices", indices), ("pids", pids)):
        if min(column) < _INT64_MIN or max(column) > _INT64_MAX:
            raise ProtocolError(f"events frame {name} must fit int64")
    is_loads = list(map("l".__eq__, kinds))
    ranges = list(map(AddressRange, starts, ends))
    first = pids[0]
    if pids.count(first) == count:
        return {first: EventColumns(None, is_loads, ranges, indices, pids)}
    positions: Dict[int, List[int]] = {}
    for position, pid in enumerate(pids):
        positions.setdefault(pid, []).append(position)
    return {
        pid: EventColumns(
            None,
            [is_loads[i] for i in chosen],
            [ranges[i] for i in chosen],
            [indices[i] for i in chosen],
            [pid] * len(chosen),
        )
        for pid, chosen in positions.items()
    }


def decode_events(frame: dict) -> Iterator[MemoryAccess]:
    """The events of an ``events`` frame as objects, PID by PID.

    Kept only for the benchmark's traced serve harness
    (``perfbench/layers.py``), which wraps this name when it starts the
    daemon; the daemon itself never calls it.  Delete it together with
    that lookup.
    """
    for columns in decode_columns(frame).values():
        yield from columns.events


def frame_range(frame: dict) -> AddressRange:
    """The ``start``/``size`` pair of a source/check frame as a range.

    Both must be ``int`` (not ``bool`` or ``float``), the start
    non-negative, the size at least 1 and the end inside int64; anything
    else raises :class:`ProtocolError`.
    """
    try:
        start, size = frame["start"], frame["size"]
    except KeyError as error:
        raise ProtocolError(f"frame lacks a valid range: {error}") from error
    if type(start) is not int or type(size) is not int:
        raise ProtocolError(
            f"frame range start/size must be integers, got "
            f"{start!r}/{size!r}"
        )
    try:
        address_range = AddressRange.from_base_size(start, size)
    except ValueError as error:
        raise ProtocolError(f"frame lacks a valid range: {error}") from error
    _int64(address_range.end, "frame range end")
    return address_range


def frame_pid(frame: dict) -> int:
    """The ``pid`` of a source/check frame (0 when absent), held to the
    same rule as an ``events`` frame's ``pids``: an ``int`` in int64."""
    return _int64(frame.get("pid", 0), "frame pid")


def run_to_frames(
    recorded: RecordedRun, chunk: int = DEFAULT_CHUNK
) -> Iterator[dict]:
    """A recorded run as the canonical device frame sequence.

    Yields ``source`` / ``events`` / ``check`` frames in replay-plan
    order: the events before each plan boundary (chunked to ``chunk``),
    then that boundary's due sources, then its due checks — byte for
    byte the interleaving :func:`repro.analysis.replay.replay` drains,
    so streamed verdicts align 1:1 with batch ``sink_outcomes``.  The
    trailing ``end`` frame is the caller's to send (the client appends
    it once per *stream*, not per run).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    plan = replay_plan_for(recorded)
    events = recorded.trace.events
    source_i = check_i = 0
    position = 0

    def emit_events(upto: int) -> Iterator[dict]:
        nonlocal position
        while position < upto:
            stop = min(position + chunk, upto)
            yield events_frame(events[position:stop])
            position = stop

    def emit_boundary(sources_due: int, checks_due: int) -> Iterator[dict]:
        nonlocal source_i, check_i
        for source in plan.sources[source_i:source_i + sources_due]:
            yield source_frame(source)
        source_i += sources_due
        for check in plan.checks[check_i:check_i + checks_due]:
            yield check_frame(check)
        check_i += checks_due

    for boundary, sources_due, checks_due in plan.boundaries:
        yield from emit_events(boundary)
        yield from emit_boundary(sources_due, checks_due)
    yield from emit_events(len(events))
    yield from emit_boundary(plan.final_sources, plan.final_checks)


def verdict_key(verdict: dict) -> tuple:
    """The comparable identity of one verdict, mirroring batch
    :class:`~repro.analysis.replay.SinkOutcome` fields (colours included
    when present, so coloured parity diffs attribution too)."""
    return (
        verdict.get("sink"),
        verdict.get("channel"),
        verdict.get("index"),
        verdict.get("pid"),
        bool(verdict.get("tainted")),
        tuple(verdict.get("colours") or ()),
    )


def outcome_key(outcome) -> tuple:
    """Batch-side twin of :func:`verdict_key` for a ``SinkOutcome``."""
    return (
        outcome.sink_name,
        outcome.channel,
        outcome.instruction_index,
        outcome.pid,
        bool(outcome.tainted),
        tuple(outcome.colours),
    )


def error_frame(message: str, op: Optional[str] = None) -> dict:
    frame: Dict[str, object] = {"op": "error", "error": message}
    if op is not None:
        frame["request"] = op
    return frame
