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
