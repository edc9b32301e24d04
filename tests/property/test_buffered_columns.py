"""Column FIFO parity: ``BufferedPIFT.on_columns`` is observationally
identical to enqueueing the same events one at a time.

Random multi-PID event streams are fed three ways — as ``on_columns``
slices of a random chunking of each chunk, per event through
``on_memory_event``, and per event through :class:`PerEventBuffer`, an
oracle that keeps the FIFO as a deque of event objects and drains it
with one ``observe`` per event — interleaved with partial drains,
immediate and blocking checks and source registrations, under every
``OverflowPolicy``, plain and coloured, with and without a ``FaultPlan``
and a telemetry hub.  Everything observable must match: ``BufferStats``,
the ``snapshot()`` JSON, late detections, immediate verdicts, tracker
stats, the ``on_backpressure`` call sequence, fault stats and, with a
hub, the telemetry event stream and instruments.
"""

import io
import json
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffered import BufferedPIFT
from repro.core.colours import ColourSpace
from repro.core.config import OverflowPolicy, PIFTConfig
from repro.core.events import AccessKind, EventColumns, MemoryAccess
from repro.core.faults import FaultPlan, FaultRates
from repro.core.ranges import AddressRange
from repro.core.tracker import PIFTTracker
from repro.telemetry import Telemetry
from repro.telemetry.writer import TelemetryWriter

SOURCES = [(AddressRange(0, 15), 0, "imei"), (AddressRange(40, 47), 1, "gps")]

#: Event-path faults only, and a plan that also perturbs taint storage.
FAULT_PLANS = [
    FaultRates(event_loss=0.1, event_duplication=0.1, event_reorder=0.1,
               address_corruption=0.05, corrupt_bits=6),
    FaultRates(event_loss=0.05, event_reorder=0.1, state_drop=0.1,
               storage_stall=0.1),
]


class PerEventBuffer(BufferedPIFT):
    """The FIFO rules one event at a time, over event objects.

    Overrides only the queue itself — enqueue, overflow policy, drain,
    the queue part of the snapshot — so checks, reconciliation and
    watermarks are the production code reading this queue's depths.
    """

    _queue_depth = property(lambda self: len(self._events),
                            lambda self, value: None)
    _spill_depth = property(lambda self: len(self._spilled),
                            lambda self, value: None)

    def __init__(self, *args, **kwargs):
        self._events = deque()
        self._spilled = deque()
        super().__init__(*args, **kwargs)

    def on_memory_event(self, event):
        if (self.policy is not OverflowPolicy.BLOCK
                and len(self._events) >= self.capacity):
            if not self._make_room_for_one():
                return
        self._events.append(event)
        self._enqueue_seq += 1
        self.stats.events_buffered += 1
        self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                         len(self._events))
        if self._tel is not None:
            self._m_events.inc()
            self._m_depth.set(len(self._events))
        self._update_backpressure()
        if (self.policy is OverflowPolicy.BLOCK
                and len(self._events) >= self.capacity):
            self.drain(self.drain_batch)

    def _make_room_for_one(self):
        if self.policy is OverflowPolicy.SPILL:
            burst = min(self.drain_batch, len(self._events))
            for _ in range(burst):
                self._spilled.append(self._events.popleft())
            self.stats.spilled_events += burst
            if self._tel is not None:
                self._m_spilled.inc(burst)
                self._tel.event("spill", events=burst,
                                spill_depth=len(self._spilled))
            return True
        self.stats.forced_drops += 1
        if self._tel is not None:
            self._m_forced_drops.inc()
            self._tel.event("forced_drop", policy=self.policy.value)
        if self.policy is OverflowPolicy.DROP_NEWEST:
            return False
        self._events.popleft()
        self._retired_seq += 1
        return True

    def drain(self, batch=None):
        available = len(self._spilled) + len(self._events)
        limit = available if batch is None else min(batch, available)
        started = time.perf_counter()
        for _ in range(limit):
            if self._spilled:
                event = self._spilled.popleft()
            else:
                event = self._events.popleft()
            self.tracker.observe(event)
            self._retired_seq += 1
            if self._injector is not None:
                self._injector.state_faults(self.tracker, event.pid)
        if limit:
            self.stats.drains += 1
            self.stats.events_drained += limit
        if self._tel is not None and limit:
            elapsed = time.perf_counter() - started
            self._m_drains.inc()
            self._m_drained.inc(limit)
            self._m_depth.set(len(self._events))
            self._m_drain_seconds.observe(elapsed)
            self._tel.event("drain", events=limit,
                            remaining=len(self._events),
                            duration_us=round(elapsed * 1e6, 3))
        self._update_backpressure()
        self._reconcile_immediate_checks()
        return limit

    def snapshot(self):
        def pack(event):
            return [event.kind.value, event.address_range.start,
                    event.address_range.end, event.instruction_index,
                    event.pid]

        snapshot = super().snapshot()
        snapshot["queue"] = [pack(event) for event in self._events]
        snapshot["spill"] = [pack(event) for event in self._spilled]
        return snapshot


raw_event = st.tuples(
    st.booleans(),          # is_load
    st.integers(0, 120),    # start
    st.integers(1, 8),      # size
    st.integers(0, 3),      # index gap (per PID)
    st.integers(0, 2),      # pid
)

operation = st.one_of(
    st.tuples(
        st.just("events"),
        st.lists(raw_event, min_size=1, max_size=40),
        st.lists(st.integers(0, 40), max_size=4),  # chunk cut points
        st.booleans(),  # decoded columns (no MemoryAccess objects yet)
    ),
    st.tuples(st.just("drain"), st.one_of(st.none(), st.integers(1, 9))),
    st.tuples(st.just("immediate"), st.integers(0, 130),
              st.integers(1, 16), st.integers(0, 2)),
    st.tuples(st.just("blocking"), st.integers(0, 130),
              st.integers(1, 16), st.integers(0, 2)),
    st.tuples(st.just("source"), st.integers(0, 130), st.integers(1, 8),
              st.integers(0, 2)),
)


@st.composite
def buffers(draw):
    capacity = draw(st.integers(1, 12))
    high = draw(st.one_of(st.none(), st.integers(1, capacity)))
    low = None
    if high is not None and draw(st.booleans()):
        low = draw(st.integers(0, high - 1))
    plan = draw(st.one_of(
        st.none(),
        st.builds(FaultPlan, st.integers(0, 99), st.sampled_from(FAULT_PLANS)),
    ))
    return {
        "capacity": capacity,
        "drain_batch": draw(st.integers(1, 6)),
        "policy": draw(st.sampled_from(list(OverflowPolicy))),
        "high_watermark": high,
        "low_watermark": low,
        "faults": plan,
        "coloured": draw(st.booleans()),
        "telemetry": draw(st.booleans()),
        "config": draw(st.builds(PIFTConfig, st.integers(1, 12),
                                 st.integers(1, 4), st.booleans())),
    }


def materialise(operations):
    """Give every event chunk per-PID non-decreasing indices."""
    cursors = {}
    out = []
    for op in operations:
        if op[0] != "events":
            out.append(op)
            continue
        events = []
        for is_load, start, size, gap, pid in op[1]:
            cursors[pid] = cursors.get(pid, 0) + gap
            events.append(MemoryAccess(
                AccessKind.LOAD if is_load else AccessKind.STORE,
                AddressRange.from_base_size(start, size), cursors[pid], pid,
            ))
        out.append(("events", events, op[2], op[3]))
    return out


def enqueue_chunked(buffered, events, cuts, decoded):
    columns = EventColumns.from_events(events)
    if decoded:
        columns = EventColumns(None, columns.is_loads, columns.ranges,
                               columns.indices, columns.pids)
    bounds = sorted({min(cut, len(events)) for cut in cuts}
                    | {0, len(events)})
    for lo, hi in zip(bounds, bounds[1:]):
        buffered.on_columns(columns, lo, hi)


def run(params, operations, feed):
    backpressure = []
    stream = io.StringIO()
    telemetry = None
    if params["telemetry"]:
        telemetry = Telemetry(writer=TelemetryWriter(stream, buffer_lines=1))
    coloured = params["coloured"]
    buffer_class = PerEventBuffer if feed == "oracle" else BufferedPIFT
    buffered = buffer_class(
        params["config"],
        capacity=params["capacity"],
        drain_batch=params["drain_batch"],
        policy=params["policy"],
        high_watermark=params["high_watermark"],
        low_watermark=params["low_watermark"],
        faults=params["faults"],
        colours=ColourSpace() if coloured else None,
        telemetry=telemetry,
        on_backpressure=backpressure.append,
    )
    for source, pid, colour in SOURCES:
        buffered.taint_source(source, pid=pid,
                              colour=colour if coloured else None)
    answers = []
    for op in operations:
        kind = op[0]
        if kind == "events":
            if feed == "columns":
                enqueue_chunked(buffered, op[1], op[2], op[3])
            else:
                for event in op[1]:
                    buffered.on_memory_event(event)
        elif kind == "drain":
            answers.append(buffered.drain(op[1]))
        elif kind == "immediate":
            answers.append(buffered.check_immediate_verdict(
                AddressRange.from_base_size(op[1], op[2]), pid=op[3],
                sink_name=f"sink{len(answers)}",
            ))
        elif kind == "blocking":
            answers.append(buffered.check_blocking(
                AddressRange.from_base_size(op[1], op[2]), pid=op[3]
            ))
        else:
            buffered.taint_source(
                AddressRange.from_base_size(op[1], op[2]), pid=op[3],
                colour="extra" if coloured else None,
            )
    observed = [state(buffered, answers, backpressure)]
    buffered.drain_all()
    observed.append(state(buffered, answers, backpressure))
    if telemetry is not None:
        observed.append(telemetry_record(telemetry, stream))
    return observed


def state(buffered, answers, backpressure):
    return {
        "stats": buffered.stats.as_dict(),
        "snapshot": json.dumps(buffered.snapshot(), sort_keys=True),
        "late": list(buffered.late_detections),
        "answers": list(answers),
        "tracker": buffered.tracker.stats.as_dict(),
        "backpressure": list(backpressure),
        "depths": (buffered.queue_depth, buffered.spill_depth,
                   buffered.backpressure, buffered.degraded),
        "faults": (buffered.fault_stats.as_dict()
                   if buffered.fault_stats is not None else None),
    }


def telemetry_record(telemetry, stream):
    """The event stream and instruments, minus wall-clock readings."""
    telemetry.writer.flush()
    events = []
    for line in stream.getvalue().splitlines():
        record = json.loads(line)
        record.pop("t")
        record.pop("duration_us", None)
        events.append(record)
    instruments = {}
    for metrics in telemetry.metrics.as_dict().values():
        for name, metric in metrics.items():
            if metric["kind"] == "histogram":
                metric = {"count": metric["count"]}
            instruments[name] = metric
    return {"events": events, "instruments": instruments}


@settings(max_examples=300, deadline=None)
@given(buffers(), st.lists(operation, max_size=14))
def test_columns_match_per_event_enqueue(params, operations):
    operations = materialise(operations)
    oracle = run(params, operations, "oracle")
    assert run(params, operations, "columns") == oracle
    assert run(params, operations, "events") == oracle


def test_non_contiguous_slices_of_one_chunk():
    """Two slices of one chunk with a gap stay two segments."""
    events = [
        MemoryAccess(AccessKind.STORE, AddressRange(i, i), i, 0)
        for i in range(10)
    ]
    columns = EventColumns.from_events(events)
    buffered = BufferedPIFT(PIFTConfig(5, 2))
    buffered.on_columns(columns, 0, 3)
    buffered.on_columns(columns, 6, 8)
    buffered.on_columns(columns, 8, 9)
    assert buffered.queue_depth == 6
    assert [p[3] for p in buffered.snapshot()["queue"]] == [0, 1, 2, 6, 7, 8]
    assert buffered.drain(4) == 4
    assert [p[3] for p in buffered.snapshot()["queue"]] == [7, 8]


def test_failed_drain_keeps_unobserved_events_queued(monkeypatch):
    """A tracker error mid-drain loses no queued event: the slices the
    tracker took are retired and counted, the rest stay queued."""
    def chunk(first):
        return EventColumns.from_events(
            MemoryAccess(AccessKind.STORE, AddressRange(i, i), i, 0)
            for i in range(first, first + 3)
        )

    first, second = chunk(0), chunk(3)
    buffered, reference = (BufferedPIFT(PIFTConfig(5, 2)) for _ in "ab")
    for each in (buffered, reference):
        each.on_columns(first)
        each.on_columns(second)
    observe = PIFTTracker.observe_columns

    def failing(self, columns, start=0, stop=None):
        if columns is second:
            raise OverflowError("the kernel refused the chunk")
        return observe(self, columns, start, stop)

    monkeypatch.setattr(PIFTTracker, "observe_columns", failing)
    with pytest.raises(OverflowError):
        buffered.drain_all()
    assert buffered.queue_depth == 3
    assert [p[3] for p in buffered.snapshot()["queue"]] == [3, 4, 5]
    assert buffered.stats.events_drained == 3
    monkeypatch.undo()
    assert buffered.drain_all() == 3
    assert reference.drain_all() == 6
    assert buffered.snapshot()["tracker"] == reference.snapshot()["tracker"]
    assert buffered.stats.events_drained == 6


@settings(max_examples=100, deadline=None)
@given(buffers(), st.lists(raw_event, min_size=1, max_size=120),
       st.integers(1, 120))
def test_snapshot_restore_mid_chunk_is_invisible(params, raw, split):
    """A snapshot taken with a chunk partly queued restores into a
    buffer that goes on exactly like the donor."""
    params = dict(params, faults=None, telemetry=False)
    (_, events, _, _), = materialise([("events", raw, [], False)])
    split = min(split, len(events))

    def build():
        return BufferedPIFT(
            params["config"], capacity=params["capacity"],
            drain_batch=params["drain_batch"], policy=params["policy"],
            high_watermark=params["high_watermark"],
            low_watermark=params["low_watermark"],
            colours=ColourSpace() if params["coloured"] else None,
        )

    columns = EventColumns.from_events(events)
    donor = build()
    for source, pid, colour in SOURCES:
        donor.taint_source(source, pid=pid,
                           colour=colour if params["coloured"] else None)
    donor.on_columns(columns, 0, split)
    donor.drain(params["drain_batch"])
    heir = build()
    heir.restore(json.loads(json.dumps(donor.snapshot())))
    for buffered in (donor, heir):
        buffered.on_columns(columns, split, len(events))
        buffered.drain_all()
    assert json.dumps(heir.snapshot(), sort_keys=True) == json.dumps(
        donor.snapshot(), sort_keys=True
    )
