"""Property-based tests for the hardware taint-storage models."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PIFTConfig
from repro.core.events import AccessKind, EventColumns, MemoryAccess
from repro.core.ranges import AddressRange, RangeSet
from repro.core.taint_storage import BoundedRangeCache, EvictionPolicy
from repro.core.tracker import PIFTTracker

ADDRESS_SPACE = 200

ranges = st.builds(
    lambda start, size: AddressRange(start, min(start + size, ADDRESS_SPACE)),
    st.integers(0, ADDRESS_SPACE),
    st.integers(0, 12),
)

operations = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "query"]), ranges),
    max_size=50,
)


def run_both(ops, cache):
    """Apply the same op sequence to the cache and the unbounded reference;
    return pairs of query answers."""
    reference = RangeSet()
    answers = []
    for op, item in ops:
        if op == "add":
            cache.add(item)
            reference.add(item)
        elif op == "remove":
            cache.remove(item)
            reference.remove(item)
        else:
            answers.append((cache.overlaps(item), reference.overlaps(item)))
    return answers


@given(operations)
@settings(max_examples=200)
def test_spill_cache_equals_unbounded_reference(ops):
    """With the SPILL policy, capacity pressure must never change an
    answer: evicted ranges are recovered from secondary storage."""
    cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
    for cache_answer, reference_answer in run_both(ops, cache):
        assert cache_answer == reference_answer


@given(operations)
@settings(max_examples=200)
def test_spill_cache_preserves_sizes(ops):
    cache = BoundedRangeCache(capacity_entries=3, policy=EvictionPolicy.SPILL)
    reference = RangeSet()
    for op, item in ops:
        if op == "add":
            cache.add(item)
            reference.add(item)
        elif op == "remove":
            cache.remove(item)
            reference.remove(item)
    assert cache.total_size == reference.total_size


@given(operations)
@settings(max_examples=200)
def test_drop_cache_never_false_positive(ops):
    """The DROP policy may lose taint (false negatives) but must never
    invent it: every positive answer is also positive in the reference."""
    cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.DROP)
    for cache_answer, reference_answer in run_both(ops, cache):
        if cache_answer:
            assert reference_answer


@given(operations)
@settings(max_examples=200)
def test_drop_cache_respects_capacity(ops):
    cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.DROP)
    for op, item in ops:
        if op == "add":
            cache.add(item)
        elif op == "remove":
            cache.remove(item)
        assert cache.on_chip_range_count <= 2


@given(operations, st.integers(1, 4))
@settings(max_examples=150)
def test_granular_cache_overapproximates(ops, bits):
    """Fixed-granularity tainting over-approximates: everything tainted in
    the byte-precise reference answers positive in the block cache."""
    cache = BoundedRangeCache(capacity_entries=64, granularity_bits=bits)
    reference = RangeSet()
    for op, item in ops:
        if op == "add":
            cache.add(item)
            reference.add(item)
        # removals skipped: block-conservative untaint may keep supersets
        # but never drop precise taint when no remove happened.
    for stored in reference:
        assert cache.overlaps(stored)


@given(st.lists(ranges, min_size=1, max_size=30))
@settings(max_examples=150)
def test_lru_spill_stats_consistent(items):
    cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
    for item in items:
        cache.add(item)
        cache.overlaps(item)
    stats = cache.stats
    assert stats.lookups == len(items)
    assert stats.hits + stats.secondary_hits + stats.misses == stats.lookups
    assert stats.misses == 0  # everything just added must answer positive


# -- per-event vs column feeding on bounded storage ---------------------------
#
# A bounded cache's lookups move its LRU clock and count in its stats, so
# the tracker's column loop must make exactly the state calls per-event
# ``observe`` makes: same ``mask_overlapping`` per load, same ``add`` or
# ``overlaps`` + ``remove`` per store.

tracker_events = st.lists(
    st.tuples(
        st.booleans(),                   # is_load
        st.integers(0, ADDRESS_SPACE),   # start
        st.integers(1, 8),               # size
        st.integers(-2, 6),              # per-PID index step (may regress)
        st.integers(0, 1),               # pid
    ),
    max_size=120,
)

SINKS = [(AddressRange(0, 15), 0), (AddressRange(0, ADDRESS_SPACE), 0),
         (AddressRange(0, ADDRESS_SPACE), 1), (AddressRange(40, 80), 1)]


@given(
    tracker_events,
    st.sampled_from(list(EvictionPolicy)),
    st.integers(1, 6),
    st.sampled_from([0, 2, 4]),
    st.booleans(),
    st.integers(0, 120),
)
@settings(max_examples=200, deadline=None)
def test_column_feeding_matches_per_event_on_bounded_storage(
    raw, policy, capacity, granularity, untainting, cut
):
    cursors = {}
    stream = []
    for is_load, start, size, step, pid in raw:
        cursors[pid] = max(0, cursors.get(pid, 0) + step)
        stream.append(MemoryAccess(
            AccessKind.LOAD if is_load else AccessKind.STORE,
            AddressRange.from_base_size(start, size), cursors[pid], pid,
        ))

    def tracker():
        made = PIFTTracker(
            PIFTConfig(8, 2, untainting),
            state_factory=lambda: BoundedRangeCache(
                capacity, policy=policy, granularity_bits=granularity
            ),
        )
        made.taint_source(AddressRange(0, 15), pid=0)
        made.taint_source(AddressRange(40, 47), pid=1)
        return made

    def fingerprint(made):
        verdicts = [made.check(sink, pid=pid) for sink, pid in SINKS]
        return json.dumps(
            [made.stats.as_dict(), made.snapshot(), verdicts], sort_keys=True
        )

    per_event = tracker()
    for event in stream:
        per_event.observe(event)
    batched = tracker()
    columns = EventColumns.from_events(stream)
    cut = min(cut, len(stream))
    batched.observe_columns(columns, 0, cut)
    batched.observe_columns(columns, cut, len(stream))
    assert fingerprint(batched) == fingerprint(per_event)


# -- DROP only ever costs detections (metamorphic) ----------------------------
#
# §3.3's DROP policy loses ranges to save time, so a tracker on a DROP
# cache may miss a flow but must never report one the unbounded tracker
# does not.  ``test_drop_cache_never_false_positive`` shows this for the
# storage alone, on one op sequence; it does not carry over by itself,
# because a dropped range changes which loads open windows and so which
# stores the two trackers taint.  With per-PID non-decreasing indices it
# still holds: every load that opens a window for the DROP tracker opens
# one for the unbounded tracker too, so the unbounded tracker's window is
# never older and never has fewer propagations left.  Granularity 4 is
# left out on purpose: block over-taint (§3.3) lets DROP taint bytes the
# byte-precise tracker never does.

#: Sources, loads, stores and checks over a small address space (so they
#: overlap often) in up to three processes; the index step advances the
#: PID's instruction counter on loads and stores only.
drop_streams = st.lists(
    st.tuples(
        st.sampled_from(["source", "load", "store", "check"]),
        st.integers(0, 63),   # start
        st.integers(1, 8),    # size
        st.integers(0, 6),    # per-PID index step (never regresses)
        st.integers(0, 2),    # pid
    ),
    min_size=20,
    max_size=150,
)


@given(
    drop_streams,
    st.integers(1, 16),
    st.booleans(),
    st.integers(1, 16),
    st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_drop_tracker_never_alarms_where_unbounded_is_clean(
    ops, capacity, untainting, window_size, propagations
):
    config = PIFTConfig(window_size, propagations, untainting)
    unbounded = PIFTTracker(config)
    dropping = PIFTTracker(
        config,
        state_factory=lambda: BoundedRangeCache(
            capacity, policy=EvictionPolicy.DROP, granularity_bits=0
        ),
    )
    cursors = {}
    for op, start, size, step, pid in ops:
        address_range = AddressRange.from_base_size(start, size)
        if op == "source":
            unbounded.taint_source(address_range, pid=pid)
            dropping.taint_source(address_range, pid=pid)
        elif op == "check":
            if dropping.check(address_range, pid=pid):
                assert unbounded.check(address_range, pid=pid)
        else:
            cursors[pid] = cursors.get(pid, 0) + step
            event = MemoryAccess(
                AccessKind.LOAD if op == "load" else AccessKind.STORE,
                address_range, cursors[pid], pid,
            )
            unbounded.observe(event)
            dropping.observe(event)


def test_drop_tracker_can_alarm_alone_on_a_regressing_index():
    """The documented divergence: the property above needs per-PID
    non-decreasing indices.  Sources B then A at capacity 1 drop B; a
    load of A at k=0 opens both trackers' windows, a load of B at k=5
    restarts only the unbounded tracker's, and a store that regressed to
    k=3 falls below that restarted window but inside DROP's."""
    a, b, target = AddressRange(0, 3), AddressRange(16, 19), AddressRange(32, 35)
    unbounded = PIFTTracker(PIFTConfig(13, 3))
    dropping = PIFTTracker(
        PIFTConfig(13, 3),
        state_factory=lambda: BoundedRangeCache(1, policy=EvictionPolicy.DROP),
    )
    for tracker in (unbounded, dropping):
        tracker.taint_source(b)
        tracker.taint_source(a)
        tracker.observe(MemoryAccess(AccessKind.LOAD, a, 0))
        tracker.observe(MemoryAccess(AccessKind.LOAD, b, 5))
        tracker.observe(MemoryAccess(AccessKind.STORE, target, 3))
    assert not dropping.check(b)  # B really was dropped
    assert dropping.check(target)
    assert not unbounded.check(target)
