"""Differential oracle for multi-colour taint.

Two claims lock the colour layer down:

1. **Three-way execution parity** — the coloured tracker's per-event
   ``observe``, scalar ``observe_columns_scalar``, and vectorised
   ``observe_columns_vectorized`` are observationally identical on
   random multi-source, multi-PID streams: same stats, same
   interval+mask state, same colour attributions.

2. **Union projection** — collapsing every mask to "non-zero == tainted"
   reproduces the plain single-bit tracker byte for byte: identical
   verdicts, identical tainted coverage, identical counters — with
   ``max_range_count`` the single permitted exception under multiple
   live colours (equal-mask-only coalescing can keep more intervals
   than the plain set), and **no** exception with a single colour, where
   the interval structure itself must be identical.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colours import ColourSpace
from repro.core.config import PIFTConfig
from repro.core.events import AccessKind, EventColumns, MemoryAccess
from repro.core.ranges import AddressRange
from repro.core.tracker import ColourTracker, PIFTTracker

#: Distinct per-colour source ranges; streams address [0, 500] so loads
#: can straddle colour boundaries and windows can carry multi-bit masks.
SOURCES = (
    ("imei", AddressRange(0, 15)),
    ("location", AddressRange(32, 47)),
    ("phone_number", AddressRange(64, 79)),
)

events = st.builds(
    lambda kind, start, size, gap, pid: (kind, start, size, gap, pid),
    st.sampled_from([AccessKind.LOAD, AccessKind.STORE]),
    st.integers(0, 400),
    st.integers(1, 8),
    st.integers(1, 6),
    st.integers(0, 2),
)

configs = st.builds(
    PIFTConfig,
    st.integers(1, 20),
    st.integers(1, 8),
    st.booleans(),
)

CHECKS = [
    (AddressRange(0, 15), 0), (AddressRange(0, 500), 0),
    (AddressRange(100, 140), 0), (AddressRange(0, 500), 1),
    (AddressRange(32, 79), 2),
]


def materialise(raw_events):
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


def coloured_tracker(config, source_count=len(SOURCES)):
    tracker = ColourTracker(config, colours=ColourSpace())
    for name, source_range in SOURCES[:source_count]:
        for pid in (0, 1, 2):
            tracker.taint_source(source_range, pid=pid, colour=name)
    return tracker


def plain_tracker(config, source_count=len(SOURCES)):
    tracker = PIFTTracker(config)
    for _, source_range in SOURCES[:source_count]:
        for pid in (0, 1, 2):
            tracker.taint_source(source_range, pid=pid)
    return tracker


def colour_fingerprint(tracker: ColourTracker) -> str:
    """Byte-exact coloured observables: stats, interval+mask state,
    verdicts with attribution."""
    return json.dumps(
        {
            "stats": tracker.stats.as_dict(),
            "state": tracker.snapshot(),
            "per_pid": tracker.instructions_per_pid,
            "verdicts": [
                [
                    tracker.check(check, pid=pid),
                    list(tracker.check_colours(check, pid=pid)),
                ]
                for check, pid in CHECKS
            ],
        },
        sort_keys=True,
    )


def merged_coverage(snapshot_state: dict):
    """Mask-blind coalesce of a coloured RangeSet snapshot — the union
    projection's interval structure."""
    merged = []
    for start, end in zip(snapshot_state["starts"], snapshot_state["ends"]):
        if merged and merged[-1][1] + 1 >= start:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


@given(st.lists(events, max_size=120), configs)
@settings(max_examples=100, deadline=None)
def test_coloured_three_way_execution_parity(raw, config):
    stream = materialise(raw)
    serial = coloured_tracker(config)
    for event in stream:
        serial.observe(event)
    scalar = coloured_tracker(config)
    scalar.observe_columns_scalar(EventColumns.from_events(stream))
    vector = coloured_tracker(config)
    vector.observe_columns_vectorized(EventColumns.from_events(stream))
    assert colour_fingerprint(serial) == colour_fingerprint(scalar)
    assert colour_fingerprint(scalar) == colour_fingerprint(vector)


@given(st.lists(events, max_size=120), configs)
@settings(max_examples=100, deadline=None)
def test_union_projection_matches_plain_tracker(raw, config):
    stream = materialise(raw)
    coloured = coloured_tracker(config)
    plain = plain_tracker(config)
    for event in stream:
        coloured.observe(event)
        plain.observe(event)
    # Verdicts: tainted iff any colour contributed.
    for check, pid in CHECKS:
        assert coloured.check(check, pid=pid) == plain.check(check, pid=pid)
        assert bool(coloured.check_colours(check, pid=pid)) == plain.check(
            check, pid=pid
        )
    # Coverage: the mask-blind coalesce of the coloured intervals is the
    # plain tracker's interval structure exactly.
    coloured_snapshot = coloured.snapshot()["states"]
    plain_snapshot = plain.snapshot()["states"]
    assert sorted(coloured_snapshot) == sorted(plain_snapshot)
    for pid, state in plain_snapshot.items():
        assert merged_coverage(coloured_snapshot[pid]) == [
            [s, e]
            for s, e in zip(state["starts"], state["ends"])
        ]
    # Counters: identical except max_range_count (multi-colour splits).
    coloured_stats = coloured.stats.as_dict()
    plain_stats = plain.stats.as_dict()
    coloured_stats.pop("max_range_count")
    plain_stats.pop("max_range_count")
    assert coloured_stats == plain_stats


@given(st.lists(events, max_size=120), configs)
@settings(max_examples=100, deadline=None)
def test_single_colour_is_byte_identical_to_plain(raw, config):
    """With one registered colour every mask is equal, so the coloured
    tracker must compile down to the plain one with NO exceptions —
    interval structure, every counter (max_range_count included), and
    every verdict."""
    stream = materialise(raw)
    coloured = coloured_tracker(config, source_count=1)
    plain = plain_tracker(config, source_count=1)
    for event in stream:
        coloured.observe(event)
        plain.observe(event)
    assert coloured.stats.as_dict() == plain.stats.as_dict()
    coloured_snapshot = coloured.snapshot()["states"]
    for pid, state in plain.snapshot()["states"].items():
        assert coloured_snapshot[pid]["starts"] == state["starts"]
        assert coloured_snapshot[pid]["ends"] == state["ends"]
    for check, pid in CHECKS:
        assert coloured.check(check, pid=pid) == plain.check(check, pid=pid)


@given(st.lists(events, min_size=30, max_size=120), configs)
@settings(max_examples=50, deadline=None)
def test_single_colour_three_way_parity(raw, config):
    """A single colour is the configuration the plain goldens freeze —
    re-check the three-way parity in that degenerate case too."""
    stream = materialise(raw)
    serial = coloured_tracker(config, source_count=1)
    for event in stream:
        serial.observe(event)
    vector = coloured_tracker(config, source_count=1)
    vector.observe_columns_vectorized(EventColumns.from_events(stream))
    assert colour_fingerprint(serial) == colour_fingerprint(vector)
