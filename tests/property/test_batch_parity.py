"""Differential oracle: every ``observe_columns`` execution strategy is
observationally identical to per-event ``observe``.

Three-way parity over random multi-PID streams — per-event ``observe``
== scalar ``observe_columns_scalar`` == the numpy pre-filter kernel
(``observe_columns_vectorized``) — on stats, taint state, timeline,
untainting on and off, and with the telemetry shadow fallback live."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PIFTConfig
from repro.core.events import AccessKind, EventColumns, EventTrace, MemoryAccess
from repro.core.ranges import AddressRange
from repro.core.tracker import PIFTTracker

SOURCE = AddressRange(0, 15)

events = st.builds(
    lambda kind, start, size, gap, pid: (kind, start, size, gap, pid),
    st.sampled_from([AccessKind.LOAD, AccessKind.STORE]),
    st.integers(0, 400),
    st.integers(1, 8),
    st.integers(1, 6),
    st.integers(0, 3),
)

configs = st.builds(
    PIFTConfig,
    st.integers(1, 20),
    st.integers(1, 8),
    st.booleans(),
)


def materialise(raw_events):
    """Per-PID increasing instruction indices, interleaved arbitrarily."""
    cursors = {}
    output = []
    for kind, start, size, gap, pid in raw_events:
        cursors[pid] = cursors.get(pid, 0) + gap
        output.append(
            MemoryAccess(
                kind,
                AddressRange.from_base_size(start, size),
                cursors[pid],
                pid,
            )
        )
    return output


CHECKS = [
    (SOURCE, 0), (SOURCE, 2),
    (AddressRange(0, 500), 1), (AddressRange(100, 140), 3),
]


def fingerprint(tracker: PIFTTracker) -> str:
    """Byte-exact observable state: stats, taint snapshot, verdicts."""
    return json.dumps(
        {
            "stats": tracker.stats.as_dict(),
            "state": tracker.snapshot(),
            "per_pid": tracker.instructions_per_pid,
            "verdicts": [
                tracker.check(check, pid=pid) for check, pid in CHECKS
            ],
        },
        sort_keys=True,
    )


def run_serial(config, stream, telemetry=None, record_timeline=False):
    tracker = PIFTTracker(
        config, record_timeline=record_timeline, telemetry=telemetry
    )
    tracker.taint_source(SOURCE, pid=1)
    tracker.taint_source(SOURCE, pid=2)
    for event in stream:
        tracker.observe(event)
    return tracker


def run_batched(config, stream, telemetry=None, encode=None):
    tracker = PIFTTracker(config, telemetry=telemetry)
    tracker.taint_source(SOURCE, pid=1)
    tracker.taint_source(SOURCE, pid=2)
    tracker.run(encode(stream) if encode else stream)
    return tracker


def run_scalar(config, stream, record_timeline=False):
    tracker = PIFTTracker(config, record_timeline=record_timeline)
    tracker.taint_source(SOURCE, pid=1)
    tracker.taint_source(SOURCE, pid=2)
    tracker.observe_columns_scalar(EventColumns.from_events(stream))
    return tracker


def run_vectorized(config, stream, record_timeline=False):
    tracker = PIFTTracker(config, record_timeline=record_timeline)
    tracker.taint_source(SOURCE, pid=1)
    tracker.taint_source(SOURCE, pid=2)
    tracker.observe_columns_vectorized(EventColumns.from_events(stream))
    return tracker


@given(st.lists(events, max_size=120), configs)
@settings(max_examples=150, deadline=None)
def test_batch_equals_per_event(raw, config):
    stream = materialise(raw)
    assert fingerprint(run_batched(config, stream)) == fingerprint(
        run_serial(config, stream)
    )


@given(st.lists(events, max_size=80), configs)
@settings(max_examples=75, deadline=None)
def test_batch_accepts_every_input_shape(raw, config):
    """Raw lists, pre-encoded columns, and EventTrace all agree."""
    stream = materialise(raw)
    reference = fingerprint(run_serial(config, stream))
    assert fingerprint(
        run_batched(config, stream, encode=EventColumns.from_events)
    ) == reference
    assert fingerprint(run_batched(config, stream, encode=EventTrace)) == (
        reference
    )


@given(st.lists(events, max_size=60), configs)
@settings(max_examples=50, deadline=None)
def test_batch_equals_per_event_under_telemetry(raw, config):
    """A live hub rebinds observe(); the batch path must detect the
    shadow method, fall back, and still match per-event byte-for-byte."""
    from repro.telemetry import Telemetry

    stream = materialise(raw)
    serial_hub, batch_hub = Telemetry(), Telemetry()
    serial = run_serial(config, stream, telemetry=serial_hub)
    batched = run_batched(config, stream, telemetry=batch_hub)
    assert fingerprint(batched) == fingerprint(serial)
    assert json.dumps(batch_hub.snapshot(), sort_keys=True) == json.dumps(
        serial_hub.snapshot(), sort_keys=True
    )


@given(st.lists(events, max_size=120), configs)
@settings(max_examples=150, deadline=None)
def test_three_way_parity(raw, config):
    """Per-event == scalar columns == vectorised kernel, byte-for-byte.

    ``configs`` draws untainting both on and off, so the kernel's
    untaint-candidate classification is exercised in both modes.
    """
    stream = materialise(raw)
    reference = fingerprint(run_serial(config, stream))
    assert fingerprint(run_scalar(config, stream)) == reference
    assert fingerprint(run_vectorized(config, stream)) == reference


@given(st.lists(events, max_size=100), configs)
@settings(max_examples=75, deadline=None)
def test_three_way_parity_with_timeline(raw, config):
    """Timeline recording survives all three strategies identically.

    The kernel only skips mutation-free events, so every timeline point
    (taken at taint/untaint ops inside the scalar runs) must land at the
    same instruction index with the same taint-state sample.
    """
    stream = materialise(raw)
    reference = fingerprint(run_serial(config, stream, record_timeline=True))
    assert fingerprint(
        run_scalar(config, stream, record_timeline=True)
    ) == reference
    assert fingerprint(
        run_vectorized(config, stream, record_timeline=True)
    ) == reference


@given(st.lists(events, min_size=1, max_size=40), configs, st.integers(0, 7))
@settings(max_examples=75, deadline=None)
def test_dispatcher_parity_on_long_streams(raw, config, seed_shift):
    """The public ``observe_columns`` dispatcher agrees with itself across
    ``config.vectorized`` on streams long enough to actually enter the
    numpy kernel (tiling the drawn stream past the dispatch threshold)."""
    from dataclasses import replace

    from repro.core.tracker import _VECTORIZED_MIN_EVENTS

    base = materialise(raw)
    stream = []
    # Tile with strictly increasing per-PID indices so the stream stays
    # well-formed while crossing the dispatch threshold.
    offset = 0
    while len(stream) < _VECTORIZED_MIN_EVENTS + seed_shift:
        for event in base:
            stream.append(
                MemoryAccess(
                    event.kind,
                    event.address_range,
                    event.instruction_index + offset,
                    event.pid,
                )
            )
        offset += max(e.instruction_index for e in base) + 1
    on = run_batched(
        replace(config, vectorized=True), stream,
        encode=EventColumns.from_events,
    )
    off = run_batched(
        replace(config, vectorized=False), stream,
        encode=EventColumns.from_events,
    )
    assert fingerprint(on) == fingerprint(off)


@given(st.lists(events, max_size=60), configs)
@settings(max_examples=50, deadline=None)
def test_vectorized_config_with_telemetry_falls_back(raw, config):
    """``config.vectorized=True`` plus a live hub must take the exact
    per-event fallback: fingerprints AND telemetry snapshots match the
    per-event run."""
    from dataclasses import replace

    from repro.telemetry import Telemetry

    stream = materialise(raw)
    config = replace(config, vectorized=True)
    serial_hub, batch_hub = Telemetry(), Telemetry()
    serial = run_serial(config, stream, telemetry=serial_hub)
    batched = run_batched(
        config, stream, telemetry=batch_hub, encode=EventColumns.from_events
    )
    assert fingerprint(batched) == fingerprint(serial)
    assert json.dumps(batch_hub.snapshot(), sort_keys=True) == json.dumps(
        serial_hub.snapshot(), sort_keys=True
    )


# -- adversarial index streams -----------------------------------------
#
# The kernel's bulk accounting rests on a telescoping claim: applying the
# per-PID *maximum* instruction index of a skipped run equals applying
# every index in sequence.  That holds for non-decreasing indices, but the
# scalar loop tolerates *regressions* (an out-of-order front-end, a
# counter reset) via its high-water guard — so the claim must survive
# absolute, freely regressing per-PID indices, and multi-PID interleaves
# whose runs cross classification-block boundaries.

adversarial_events = st.builds(
    lambda kind, start, size, index, pid: (kind, start, size, index, pid),
    st.sampled_from([AccessKind.LOAD, AccessKind.STORE]),
    st.integers(0, 400),
    st.integers(1, 8),
    st.integers(0, 600),  # absolute index: regressions allowed
    st.integers(0, 3),
)


def materialise_adversarial(raw_events):
    """Indices taken verbatim — per-PID streams may regress arbitrarily."""
    return [
        MemoryAccess(
            kind, AddressRange.from_base_size(start, size), index, pid
        )
        for kind, start, size, index, pid in raw_events
    ]


@given(st.lists(adversarial_events, max_size=120), configs)
@settings(max_examples=150, deadline=None)
def test_three_way_parity_under_regressing_indices(raw, config):
    """Scalar == batched == vectorised on freely regressing index streams,
    locking ``instructions_observed`` / ``instructions_retired`` (both in
    the fingerprint via stats and ``instructions_per_pid``) bit-for-bit."""
    stream = materialise_adversarial(raw)
    reference = fingerprint(run_serial(config, stream))
    assert fingerprint(run_scalar(config, stream)) == reference
    assert fingerprint(run_vectorized(config, stream)) == reference


@given(
    st.lists(adversarial_events, min_size=1, max_size=40),
    configs,
    st.integers(0, 7),
)
@settings(max_examples=75, deadline=None)
def test_adversarial_interleaves_crossing_block_boundaries(raw, config, jitter):
    """Multi-PID regressing interleaves tiled past the classification
    block size, so skipped runs and dense spans straddle block edges."""
    from repro.core.vectorized import BLOCK_MIN

    base = materialise_adversarial(raw)
    stream = []
    while len(stream) < BLOCK_MIN * 2 + jitter:
        stream.extend(base)
    reference = fingerprint(run_serial(config, stream))
    assert fingerprint(run_scalar(config, stream)) == reference
    assert fingerprint(run_vectorized(config, stream)) == reference


@given(st.lists(events, max_size=60), st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=75, deadline=None)
def test_observe_columns_slices_compose(raw, cut_a, cut_b):
    """Observing a stream in arbitrary segments equals one whole batch."""
    config = PIFTConfig(8, 3)
    stream = materialise(raw)
    lo, hi = sorted((min(cut_a, len(stream)), min(cut_b, len(stream))))
    columns = EventColumns.from_events(stream)
    whole = run_batched(config, stream)
    split = PIFTTracker(config)
    split.taint_source(SOURCE, pid=1)
    split.taint_source(SOURCE, pid=2)
    split.observe_columns(columns, 0, lo)
    split.observe_columns(columns, lo, hi)
    split.observe_columns(columns, hi, len(columns))
    assert fingerprint(split) == fingerprint(whole)
