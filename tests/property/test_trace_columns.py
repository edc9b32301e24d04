"""Stored traces round-trip as int columns, and replay never builds objects.

Random multi-PID recordings — per-PID instruction indices that regress,
addresses up against the int64 edge, a few sources and sink checks —
are encoded with ``encode_recorded_run``, sent through JSON, and decoded
with ``decode_recorded_run``.  The decoded run must carry the same
columns and instruction counts, replay (plain and coloured) to the same
outcomes and stats, and re-encode to the identical document.  Loading a
suite and replaying it must leave every trace column-only, and the
decoders, the encoder, the replay plan and both replays build no
``MemoryAccess`` or ``AddressRange`` at all.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import tracefile
from repro.analysis.accuracy import AppRun
from repro.analysis.replay import replay, replay_coloured, replay_plan_for
from repro.analysis.tracefile import decode_recorded_run, encode_recorded_run
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.config import PIFTConfig
from repro.core.events import AccessKind, EventTrace, MemoryAccess
from repro.core.ranges import AddressRange
from repro.serve import protocol
from repro.store.suitefile import dump_suite_bytes, load_suite_bytes

#: Address regions: low memory, and the top of the int64 range (a size-8
#: access at the last offset ends exactly on ``2**63 - 1``).
REGIONS = (0, 2**63 - 64)

spans = st.tuples(
    st.sampled_from(REGIONS), st.integers(0, 56), st.integers(1, 8)
)

raw_events = st.lists(
    st.tuples(
        st.booleans(),          # is_load
        spans,
        st.integers(-3, 6),     # per-PID index step (may regress below 0)
        st.integers(0, 2),      # pid
    ),
    max_size=60,
)

marks = st.lists(
    st.tuples(spans, st.integers(-2, 40), st.integers(0, 2)), max_size=4
)


def address_range(span):
    region, offset, size = span
    return AddressRange.from_base_size(region + offset, size)


def build_run(raw, copies, floor, sources, checks, one_pid=False):
    """``raw`` repeated ``copies`` times (indices keep running per PID);
    ``one_pid`` moves every event to PID 0."""
    cursors = {}
    events = []
    for _ in range(copies):
        for is_load, span, step, pid in raw:
            pid = 0 if one_pid else pid
            cursors[pid] = cursors.get(pid, 0) + step
            events.append(MemoryAccess(
                AccessKind.LOAD if is_load else AccessKind.STORE,
                address_range(span), cursors[pid], pid,
            ))
    run = RecordedRun(trace=EventTrace(events, instruction_count=floor))
    for number, (span, index, pid) in enumerate(sources):
        run.sources.append(SourceRegistration(
            address_range(span), index, f"src{number % 2}", pid=pid,
        ))
    for span, index, pid in checks:
        run.sink_checks.append(
            SinkCheck(address_range(span), index, "sink", "net", pid=pid)
        )
    return run


def columns_of(run):
    columns = run.trace.columns()
    return (columns.is_loads, columns.starts, columns.ends, columns.indices,
            columns.pids)


def outcomes(run, config):
    plain = replay(run, config)
    coloured = replay_coloured(run, config)
    return (plain.sink_outcomes, plain.stats,
            coloured.sink_outcomes, coloured.stats)


@given(
    raw_events,
    st.integers(1, 12),
    st.integers(0, 400),
    marks,
    marks,
    st.builds(PIFTConfig, st.integers(1, 12), st.integers(1, 3),
              st.booleans()),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_stored_trace_round_trips_as_columns(raw, copies, floor, sources,
                                             checks, config, one_pid):
    run = build_run(raw, copies, floor, sources, checks, one_pid)
    body = encode_recorded_run(run)
    decoded = decode_recorded_run(json.loads(json.dumps(body)))

    assert columns_of(decoded) == columns_of(run)
    assert decoded.instruction_count == run.instruction_count
    assert (decoded.trace.per_pid_instruction_counts
            == run.trace.per_pid_instruction_counts)
    assert outcomes(decoded, config) == outcomes(run, config)
    assert encode_recorded_run(decoded) == body

    loaded = load_suite_bytes(dump_suite_bytes(
        [AppRun(name="app", recorded=run, leaks=True)]
    ))
    for app in loaded:
        replay(app.recorded, config)
        replay_coloured(app.recorded, config)
        assert app.recorded.trace.columns()._events is None


def test_hot_paths_build_no_event_objects(monkeypatch):
    """Decode, encode, plan, replay (kernel and scalar loop) and the wire
    decoder run on ints only: not one event object is constructed."""
    raw = [
        (True, (0, 0, 4), 1, 0),     # tainted load (source below)
        (False, (0, 32, 4), 1, 0),   # in-window store: taints
        (True, (0, 32, 4), 2, 1),    # other PID, untainted load
        (False, (0, 48, 8), 2, 1),   # untaint candidate
        (True, (0, 40, 4), 1, 0),
        (False, (REGIONS[1], 56, 8), 3, 0),
    ]
    source = ((0, 0, 16), 0, 0)
    check = ((0, 32, 4), 400, 0)
    run = build_run(raw, 300, 0, [source], [check])  # 1,800 events
    body = json.loads(json.dumps(encode_recorded_run(run)))
    frame = protocol.events_frame(run.trace.events)
    built = []
    for cls in (AddressRange, MemoryAccess):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    trace = tracefile._decode_events(body["events"])
    tracefile._encode_events(trace)
    recorded = RecordedRun(trace=trace, sources=run.sources,
                           sink_checks=run.sink_checks)
    replay_plan_for(recorded)
    config = PIFTConfig(13, 3)
    tainted = [replay(recorded, config).alarm,
               replay_coloured(recorded, config).alarm]
    decoded = protocol.decode_columns(frame)
    assert built == []
    assert tainted == [True, True]
    assert sorted(decoded) == [0, 1]
