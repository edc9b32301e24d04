"""One walk over a recorded run: every replay consumer against an oracle.

A recorded run interleaves its memory events with source registrations
and sink checks by one rule (the paper's §5 methodology: the trace is
consumed together with its source and sink ranges).  The oracle here
states that rule on its own, one event at a time: before each event,
register every pending source, then answer every pending sink check,
whose recorded instruction index is at most that event's own (each list
in recorded index order, ties in recorded order); after the last event,
the rest whose index is at most the run's instruction count.  Sources and
checks past the instruction count never take effect.

The cached ``ReplayPlan``'s steps must spell out the oracle's order, and
every consumer that walks them is held to it: ``replay``,
``faulted_replay`` (outcomes, ``TrackerStats`` and ``FaultStats`` under
a plan that combines reorder, corruption and state drop),
``detection_latency_table`` under every overflow policy,
``replay_with_provenance`` and the frame sequence of ``run_to_frames``.  The runs are DroidBench apps, malware
samples and a synthetic multi-PID run whose per-PID indices regress and
whose sources and checks fall after the last event; a hypothesis
property draws more of the latter.
"""

from typing import Iterator, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.degradation import (
    LatencyRow,
    detection_latency_table,
    faulted_replay,
)
from repro.analysis.replay import (
    SinkOutcome,
    replay,
    replay_plan_for,
    replay_with_provenance,
)
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core import load, store
from repro.core.buffered import BufferedPIFT
from repro.core.config import OverflowPolicy, PIFTConfig
from repro.core.events import EventTrace
from repro.core.faults import FaultPlan, FaultRates
from repro.core.provenance import ProvenanceTracker
from repro.core.ranges import AddressRange
from repro.core.tracker import PIFTTracker
from repro.serve import protocol

CONFIGS = (
    PIFTConfig(13, 3),
    PIFTConfig(3, 2),
    PIFTConfig(20, 10, untainting=False),
)

#: Reorder, corruption and state drop together: held events, rewritten
#: addresses and storage faults all in one stream.
COCKTAIL = FaultPlan(
    seed=7,
    rates=FaultRates(
        event_reorder=0.05, address_corruption=0.02, state_drop=0.01
    ),
)

#: A cocktail that holds many events back, so some are still held when
#: the trace ends and the flush must come before the trailing checks.
HOLDING = FaultPlan(
    seed=11,
    rates=FaultRates(
        event_reorder=0.5, address_corruption=0.05, state_drop=0.05
    ),
)


# -- the oracle --------------------------------------------------------------


def walk(recorded: RecordedRun) -> Iterator[Tuple[str, object]]:
    """The run's actions in oracle order.

    Yields ``("source", registration)``, ``("check", check)`` and
    ``("event", event)``, then one ``("end", None)`` once every event is
    out, then the trailing sources and checks.
    """
    sources = sorted(recorded.sources, key=lambda s: s.instruction_index)
    checks = sorted(recorded.sink_checks, key=lambda c: c.instruction_index)

    def due(pending: list, upto: int) -> list:
        ready = [item for item in pending if item.instruction_index <= upto]
        pending[:] = [
            item for item in pending if item.instruction_index > upto
        ]
        return ready

    def at(upto: int) -> Iterator[Tuple[str, object]]:
        for source in due(sources, upto):
            yield "source", source
        for check in due(checks, upto):
            yield "check", check

    for event in recorded.trace:
        yield from at(event.instruction_index)
        yield "event", event
    yield "end", None
    yield from at(recorded.instruction_count)


def outcome(check: SinkCheck, tainted: bool) -> SinkOutcome:
    return SinkOutcome(
        sink_name=check.sink_name,
        channel=check.channel,
        instruction_index=check.instruction_index,
        tainted=tainted,
        pid=check.pid,
    )


def oracle_replay(recorded, config, plan=None):
    """Per-event tracking along the walk, optionally through a fault plan:
    returns (outcomes, stats dict, fault stats dict or None)."""
    tracker = PIFTTracker(config)
    injector = plan.injector() if plan is not None else None
    outcomes: List[SinkOutcome] = []

    def deliver(events) -> None:
        for delivered in events:
            tracker.observe(delivered)
            if injector is not None:
                injector.state_faults(tracker, delivered.pid)

    for kind, item in walk(recorded):
        if kind == "event":
            deliver(injector.feed(item) if injector is not None else [item])
        elif kind == "end":
            if injector is not None:
                deliver(injector.flush())
        elif kind == "source":
            tracker.taint_source(item.address_range, pid=item.pid)
        else:
            outcomes.append(
                outcome(item, tracker.check(item.address_range, pid=item.pid))
            )
    return (
        outcomes,
        tracker.stats.as_dict(),
        injector.stats.as_dict() if injector is not None else None,
    )


def oracle_latency_rows(recorded, config, rates, seed, site, base_rates,
                        policy, capacity, drain_batch) -> List[LatencyRow]:
    """``detection_latency_table`` with a per-event buffered walk."""
    positives = sum(o.tainted for o in oracle_replay(recorded, config)[0])
    rows = []
    for rate in rates:
        plan = FaultPlan(seed=seed, rates=base_rates).with_rates(
            **{site: rate}
        )
        buffered = BufferedPIFT(
            config, capacity=capacity, drain_batch=drain_batch,
            policy=policy, faults=plan if plan.enabled else None,
        )
        immediate = 0
        for kind, item in walk(recorded):
            if kind == "event":
                buffered.on_memory_event(item)
            elif kind == "end":
                buffered.drain_all()
            elif kind == "source":
                buffered.taint_source(item.address_range, pid=item.pid)
            else:
                immediate += buffered.check_immediate_verdict(
                    item.address_range, pid=item.pid,
                    sink_name=item.sink_name,
                ).tainted
        buffered.drain_all()
        behind = [late.events_behind for late in buffered.late_detections]
        rows.append(LatencyRow(
            rate=rate,
            policy=policy.value,
            oracle_positives=positives,
            immediate_positives=immediate,
            late_detections=len(behind),
            missed=max(0, positives - immediate - len(behind)),
            mean_events_behind=sum(behind) / len(behind) if behind else 0.0,
            max_events_behind=max(behind) if behind else 0,
            forced_drops=buffered.stats.forced_drops,
            degraded_checks=buffered.stats.degraded_checks,
        ))
    return rows


def oracle_provenance(recorded, config) -> dict:
    """Per-label tracking along the walk, keyed by check position."""
    tracker = ProvenanceTracker(config)
    order = {id(check): i for i, check in enumerate(recorded.sink_checks)}
    outcomes = {}
    for kind, item in walk(recorded):
        if kind == "event":
            tracker.observe(item)
        elif kind == "source":
            tracker.taint_source(
                item.source_name, item.address_range, pid=item.pid
            )
        elif kind == "check":
            outcomes[order[id(item)]] = tracker.check(
                item.address_range, pid=item.pid, sink_name=item.sink_name
            )
    return outcomes


def oracle_frames(recorded, chunk: int) -> List[bytes]:
    """The encoded device frames of the walk: events in ``chunk``-sized
    frames, cut before every source and check."""
    frames: List[bytes] = []
    held: list = []

    def cut() -> None:
        for lo in range(0, len(held), chunk):
            frames.append(protocol.encode_frame(
                protocol.events_frame(held[lo:lo + chunk])
            ))
        held.clear()

    for kind, item in walk(recorded):
        if kind == "event":
            held.append(item)
            continue
        cut()
        if kind == "source":
            frames.append(protocol.encode_frame(protocol.source_frame(item)))
        elif kind == "check":
            frames.append(protocol.encode_frame(protocol.check_frame(item)))
    return frames


def plan_walk(recorded) -> Iterator[Tuple[str, object]]:
    """The cached plan's steps, spelt out as :func:`walk` actions."""
    events = recorded.trace.events
    for lo, hi, sources, checks in replay_plan_for(recorded).steps:
        for event in events[lo:hi]:
            yield "event", event
        if hi == len(events):
            yield "end", None
        for source in sources:
            yield "source", source
        for check in checks:
            yield "check", check


def encoded_frames(recorded, chunk: int) -> List[bytes]:
    return [
        protocol.encode_frame(frame)
        for frame in protocol.run_to_frames(recorded, chunk)
    ]


# -- runs ----------------------------------------------------------------------


def interleaved_run() -> RecordedRun:
    """Two PIDs whose per-PID indices regress in the global stream, with
    a source due before the first event, a check on every PID, and
    sources and checks after the last event (one past the instruction
    count, which never takes effect).  The last event loads the range of
    a source registered after it."""
    secret = AddressRange(0x1000, 0x100F)
    events = []
    counters = {0: 0, 5: 0}
    for burst in range(6):
        pid = (0, 5)[burst % 2]
        base = 0x4000 + 0x100 * pid
        for step in range(4):
            index = counters[pid]
            events.append(load(0x1000 + step, 0x1003 + step, index, pid))
            events.append(
                store(base + 8 * burst + step, base + 8 * burst + step + 3,
                      index + 1, pid)
            )
            counters[pid] = index + 3
    late = AddressRange(0x2000, 0x200F)
    events.append(load(late.start, late.start + 3, counters[0], 0))
    trace = EventTrace(events)
    top = trace.instruction_count
    sources = [
        SourceRegistration(late, top - 2, "late-imei", pid=0),
        SourceRegistration(secret, 0, "imei", pid=0),
        SourceRegistration(secret, 9, "location", pid=5),
        SourceRegistration(AddressRange(0x9000, 0x9003), top + 1,
                           "never", pid=5),
    ]
    checks = [
        SinkCheck(AddressRange(0x4000, 0x40FF), 12, "early-net", "http",
                  pid=0),
        SinkCheck(AddressRange(0x4500, 0x45FF), 14, "pid5-net", "http",
                  pid=5),
        SinkCheck(AddressRange(0x4000, 0x40FF), top - 1, "tail-log", "log",
                  pid=0),
        SinkCheck(AddressRange(0x4500, 0x45FF), top, "tail-sms", "sms",
                  pid=5),
        # Only the last store: tainted only once every event is in.
        SinkCheck(events[-2].address_range, top, "tail-last", "sms",
                  pid=events[-2].pid),
        SinkCheck(AddressRange(0x4000, 0x40FF), top + 1, "never", "sms",
                  pid=0),
    ]
    return RecordedRun(trace=trace, sources=sources, sink_checks=checks)


@pytest.fixture(scope="module")
def runs():
    from repro.apps.droidbench import all_apps, record_suite
    from repro.apps.malware import SAMPLES, run_sample

    recorded = [(app.name, app.recorded)
                for app in record_suite(all_apps()[:10])]
    # LGRoot's 42k events would double the module's time; the others
    # still run slices past the vectorised kernel's threshold.
    for sample in SAMPLES[1:]:
        device = run_sample(sample, PIFTConfig(3, 2), work=16)
        recorded.append((sample.name, device.recorded))
    recorded.append(("interleaved", interleaved_run()))
    return recorded


# -- consumers against the oracle ----------------------------------------------


def test_plan_steps_are_the_oracle_walk(runs):
    for name, recorded in runs:
        assert list(plan_walk(recorded)) == list(walk(recorded)), name


def test_interleaved_run_exercises_the_rule():
    recorded = interleaved_run()
    indices = [event.instruction_index for event in recorded.trace]
    assert any(b < a for a, b in zip(indices, indices[1:]))
    kinds = [kind for kind, _ in walk(recorded)]
    assert kinds[0] == "source"
    tail = kinds[kinds.index("end") + 1:]
    assert "source" in tail and "check" in tail
    # The items past the instruction count never take effect.
    names = [item.source_name for kind, item in walk(recorded)
             if kind == "source"]
    assert "never" not in names and "late-imei" in names


@pytest.mark.parametrize("config", CONFIGS, ids=str)
def test_replay_matches_oracle(runs, config):
    for name, recorded in runs:
        result = replay(recorded, config)
        outcomes, stats, _ = oracle_replay(recorded, config)
        assert result.sink_outcomes == outcomes, name
        assert result.stats.as_dict() == stats, name


@pytest.mark.parametrize("config", CONFIGS[:2], ids=str)
def test_faulted_replay_matches_oracle(runs, config):
    for name, recorded in runs:
        result, fault_stats = faulted_replay(recorded, config, COCKTAIL)
        outcomes, stats, faults = oracle_replay(recorded, config, COCKTAIL)
        assert result.sink_outcomes == outcomes, name
        assert result.stats.as_dict() == stats, name
        assert fault_stats.as_dict() == faults, name
        assert fault_stats.events_reordered, name
    assert any(
        faulted_replay(recorded, config, COCKTAIL)[1].addresses_corrupted
        for _, recorded in runs
    )


def test_faulted_replay_flushes_before_the_trailing_sources():
    recorded = interleaved_run()
    # HOLDING still holds the last event, a load of the late source's
    # range, when the trace ends: it must reach the tracker untainted.
    injector = HOLDING.injector()
    for event in recorded.trace:
        injector.feed(event)
    assert recorded.trace.events[-1] in injector.flush()
    result, faults = faulted_replay(recorded, CONFIGS[0], HOLDING)
    assert (result.sink_outcomes, result.stats.as_dict(),
            faults.as_dict()) == oracle_replay(recorded, CONFIGS[0], HOLDING)


@pytest.mark.parametrize("policy", list(OverflowPolicy), ids=lambda p: p.value)
def test_latency_table_matches_oracle(runs, policy):
    kwargs = dict(
        rates=(0.0, 0.05), seed=3, site="event_loss",
        base_rates=COCKTAIL.rates, policy=policy, capacity=16,
        drain_batch=4,
    )
    for name, recorded in runs:
        rows = detection_latency_table(recorded, CONFIGS[0], **kwargs)
        assert rows == oracle_latency_rows(recorded, CONFIGS[0], **kwargs), (
            name)


@pytest.mark.parametrize("config", CONFIGS[:2], ids=str)
def test_provenance_matches_oracle(runs, config):
    for name, recorded in runs:
        assert replay_with_provenance(recorded, config) == (
            oracle_provenance(recorded, config)), name
    leaks = replay_with_provenance(interleaved_run(), CONFIGS[0])
    assert any(leaks.values())


@pytest.mark.parametrize("chunk", (1, 5, protocol.DEFAULT_CHUNK))
def test_run_to_frames_matches_oracle(runs, chunk):
    for name, recorded in runs:
        assert encoded_frames(recorded, chunk) == (
            oracle_frames(recorded, chunk)), name


# -- drawn runs ----------------------------------------------------------------


@st.composite
def recorded_runs(draw) -> RecordedRun:
    """Multi-PID runs of same-PID bursts: each PID counts its own
    indices, so the global stream regresses at PID switches; sources and
    checks land anywhere up to a few past the instruction count."""
    pids = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                         unique=True))
    counters = dict.fromkeys(pids, 0)
    events = []
    bursts = draw(st.lists(
        st.tuples(
            st.sampled_from(pids),
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 7),
                          st.integers(0, 3)),
                min_size=1, max_size=6,
            ),
        ),
        max_size=6,
    ))
    for pid, burst in bursts:
        for is_load, slot, gap in burst:
            index = counters[pid] + gap
            counters[pid] = index + 1
            start = 0x100 + 8 * slot
            events.append(
                (load if is_load else store)(start, start + 3, index, pid)
            )
    trace = EventTrace(events, instruction_count=draw(st.integers(0, 4)))
    top = trace.instruction_count
    marks = st.lists(
        st.tuples(st.integers(0, top + 3), st.sampled_from(pids),
                  st.integers(0, 7)),
        max_size=4,
    )
    sources = [
        SourceRegistration(AddressRange(0x100 + 8 * slot, 0x103 + 8 * slot),
                           index, f"source-{i}", pid=pid)
        for i, (index, pid, slot) in enumerate(draw(marks))
    ]
    checks = [
        SinkCheck(AddressRange(0x100 + 8 * slot, 0x103 + 8 * slot),
                  index, f"sink-{i}", "net", pid=pid)
        for i, (index, pid, slot) in enumerate(draw(marks))
    ]
    return RecordedRun(trace=trace, sources=sources, sink_checks=checks)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(recorded=recorded_runs())
def test_drawn_runs_follow_the_oracle(recorded):
    assert list(plan_walk(recorded)) == list(walk(recorded))
    assert encoded_frames(recorded, 1) == oracle_frames(recorded, 1)
    config = PIFTConfig(4, 2)
    result = replay(recorded, config)
    assert (result.sink_outcomes, result.stats.as_dict(), None) == (
        oracle_replay(recorded, config))
    result, faults = faulted_replay(recorded, config, HOLDING)
    assert (result.sink_outcomes, result.stats.as_dict(),
            faults.as_dict()) == oracle_replay(recorded, config, HOLDING)
    kwargs = dict(
        rates=(0.0, 0.3), seed=5, site="event_loss",
        base_rates=HOLDING.rates, policy=OverflowPolicy.BLOCK, capacity=4,
        drain_batch=2,
    )
    assert detection_latency_table(recorded, config, **kwargs) == (
        oracle_latency_rows(recorded, config, **kwargs))
