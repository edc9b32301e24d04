"""Unit tests for the hardware taint-storage models (paper section 3.3)."""

import pytest

from repro.core.config import PIFTConfig
from repro.core.events import load, store
from repro.core.ranges import AddressRange
from repro.core.taint_storage import (
    ENTRY_BYTES_WITH_PID,
    ENTRY_BYTES_WITHOUT_PID,
    BoundedRangeCache,
    EvictionPolicy,
    entry_capacity,
    paper_default_storage,
)
from repro.core.tracker import PIFTTracker


class TestEntryCapacity:
    def test_paper_sizing_with_pid(self):
        # "a small on-chip memory, for example, of 32KB can accommodate
        #  approximately 2730 ranges"
        assert entry_capacity(32 * 1024, ENTRY_BYTES_WITH_PID) == 2730

    def test_paper_sizing_without_pid(self):
        # "we can remove the process-specific identification ... and thus
        #  can store 4096 entries in the 32KB memory"
        assert entry_capacity(32 * 1024, ENTRY_BYTES_WITHOUT_PID) == 4096

    def test_too_small_storage_rejected(self):
        with pytest.raises(ValueError):
            entry_capacity(4, ENTRY_BYTES_WITH_PID)


class TestBoundedRangeCacheBasics:
    def test_add_and_lookup(self):
        cache = BoundedRangeCache(capacity_entries=4)
        cache.add(AddressRange(0x100, 0x10F))
        assert cache.overlaps(AddressRange(0x108, 0x108))
        assert not cache.overlaps(AddressRange(0x110, 0x120))

    def test_remove(self):
        cache = BoundedRangeCache(capacity_entries=4)
        cache.add(AddressRange(0x100, 0x10F))
        cache.remove(AddressRange(0x104, 0x107))
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert not cache.overlaps(AddressRange(0x104, 0x107))
        assert cache.overlaps(AddressRange(0x108, 0x10F))
        assert cache.range_count == 2

    def test_coalescing_keeps_entry_count_down(self):
        cache = BoundedRangeCache(capacity_entries=2)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x104, 0x107))  # adjacent: merges
        assert cache.range_count == 1
        assert cache.stats.evictions == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedRangeCache(capacity_entries=0)

    def test_stats_hits_and_misses(self):
        cache = BoundedRangeCache(capacity_entries=4)
        cache.add(AddressRange(0x100, 0x10F))
        cache.overlaps(AddressRange(0x100, 0x100))  # hit
        cache.overlaps(AddressRange(0x900, 0x900))  # miss
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestSpillPolicy:
    def test_overflow_spills_to_secondary_without_losing_taint(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        ranges = [AddressRange(base, base + 3) for base in (0x100, 0x200, 0x300)]
        for r in ranges:
            cache.add(r)
        assert cache.stats.evictions == 1
        assert cache.on_chip_range_count == 2
        assert cache.spilled_range_count == 1
        # No accuracy loss: every range still answers positive.
        for r in ranges:
            assert cache.overlaps(r)

    def test_secondary_hit_promotes(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        for base in (0x100, 0x200, 0x300):
            cache.add(AddressRange(base, base + 3))
        # 0x100 was LRU-evicted; querying it is a 'cache miss' serviced from
        # main memory, after which it is promoted back on chip.
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert cache.stats.secondary_hits == 1
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert cache.stats.secondary_hits == 1  # now a plain hit

    def test_lru_victim_is_least_recently_touched(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x200, 0x203))
        cache.overlaps(AddressRange(0x100, 0x100))  # touch 0x100: now MRU
        cache.add(AddressRange(0x300, 0x303))  # evicts 0x200
        assert cache.on_chip_range_count == 2
        assert cache.overlaps(AddressRange(0x200, 0x203))  # from secondary
        assert cache.stats.secondary_hits == 1

    def test_remove_erases_spilled_state_too(self):
        cache = BoundedRangeCache(capacity_entries=1, policy=EvictionPolicy.SPILL)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x200, 0x203))  # spills 0x100
        cache.remove(AddressRange(0x100, 0x103))
        assert not cache.overlaps(AddressRange(0x100, 0x103))

    def test_total_size_spans_both_levels(self):
        cache = BoundedRangeCache(capacity_entries=1, policy=EvictionPolicy.SPILL)
        cache.add(AddressRange(0x100, 0x103))
        cache.add(AddressRange(0x200, 0x203))
        assert cache.total_size == 8
        assert cache.range_count == 2


class TestSnapshotRestore:
    @staticmethod
    def spilled_cache():
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        for base in (0x100, 0x200, 0x300):
            cache.add(AddressRange(base, base + 3))
        cache.overlaps(AddressRange(0x100, 0x100))
        return cache

    def test_round_trip(self):
        import json

        cache = self.spilled_cache()
        clone = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        clone.restore(json.loads(json.dumps(cache.snapshot())))
        assert clone.snapshot() == cache.snapshot()

    @pytest.mark.parametrize("corrupt", [
        lambda snap: snap.update(clock=7.5),
        lambda snap: snap["lru"][0].__setitem__(2, 2.9),
        lambda snap: snap.update(lru=None),
        lambda snap: snap["stats"].update(lookups="3"),
        lambda snap: snap["stats"].update(bogus=1),
        lambda snap: snap["lru"].append([1, 2]),
        lambda snap: snap["cache"]["starts"].__setitem__(0, 256.5),
        lambda snap: snap.update(capacity_entries=2.0),
    ], ids=[
        "clock-float", "lru-clock-float", "lru-null", "stats-str",
        "stats-unknown-key", "lru-pair", "cache-row-float",
        "capacity-float",
    ])
    def test_malformed_snapshot_changes_nothing(self, corrupt):
        """Every field is checked before any is replaced: a bad one
        raises ValueError and the cache keeps its own state."""
        import json

        donor = self.spilled_cache()
        bad = json.loads(json.dumps(donor.snapshot()))
        corrupt(bad)
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.SPILL)
        cache.add(AddressRange(0x900, 0x903))
        before = cache.snapshot()
        with pytest.raises(ValueError):
            cache.restore(bad)
        assert cache.snapshot() == before


class TestDropPolicy:
    def test_overflow_drops_and_may_lose_taint(self):
        cache = BoundedRangeCache(capacity_entries=2, policy=EvictionPolicy.DROP)
        for base in (0x100, 0x200, 0x300):
            cache.add(AddressRange(base, base + 3))
        assert cache.stats.dropped_ranges == 1
        assert cache.stats.dropped_bytes == 4
        # The dropped range is a potential false negative.
        assert not cache.overlaps(AddressRange(0x100, 0x103))
        assert cache.overlaps(AddressRange(0x300, 0x303))


class TestFixedGranularity:
    def test_add_taints_whole_blocks(self):
        cache = BoundedRangeCache(capacity_entries=8, granularity_bits=2)
        cache.add(AddressRange(0x101, 0x102))
        # The whole 4-byte block [0x100, 0x103] is tainted: over-tainting.
        assert cache.overlaps(AddressRange(0x100, 0x100))
        assert cache.overlaps(AddressRange(0x103, 0x103))
        assert not cache.overlaps(AddressRange(0x104, 0x104))

    def test_remove_only_fully_covered_blocks(self):
        cache = BoundedRangeCache(capacity_entries=8, granularity_bits=2)
        cache.add(AddressRange(0x100, 0x10B))  # blocks 0x100, 0x104, 0x108
        cache.remove(AddressRange(0x102, 0x109))  # fully covers only 0x104
        assert cache.overlaps(AddressRange(0x100, 0x103))
        assert not cache.overlaps(AddressRange(0x104, 0x107))
        assert cache.overlaps(AddressRange(0x108, 0x10B))

    def test_remove_smaller_than_block_is_noop(self):
        cache = BoundedRangeCache(capacity_entries=8, granularity_bits=4)
        cache.add(AddressRange(0x100, 0x10F))
        cache.remove(AddressRange(0x102, 0x104))  # covers no whole 16B block
        assert cache.overlaps(AddressRange(0x102, 0x104))


class TestTrackerIntegration:
    def test_tracker_runs_on_bounded_storage(self):
        config = PIFTConfig(window_size=5, max_propagations=2)
        tracker = PIFTTracker(
            config, state_factory=lambda: BoundedRangeCache(capacity_entries=16)
        )
        tracker.taint_source(AddressRange(0x1000, 0x1003))
        tracker.observe(load(0x1000, 0x1003, 0))
        tracker.observe(store(0x2000, 0x2003, 1))
        assert tracker.check(AddressRange(0x2000, 0x2003))

    def test_drop_policy_can_cause_false_negative(self):
        config = PIFTConfig(window_size=5, max_propagations=3, untainting=False)
        tracker = PIFTTracker(
            config,
            state_factory=lambda: BoundedRangeCache(
                capacity_entries=1, policy=EvictionPolicy.DROP
            ),
        )
        tracker.taint_source(AddressRange(0x1000, 0x1003))
        tracker.observe(load(0x1000, 0x1003, 0))
        tracker.observe(store(0x2000, 0x2003, 1))
        tracker.observe(store(0x3000, 0x3003, 2))
        # Capacity 1: earlier state was dropped somewhere along the way.
        total_positive = sum(
            tracker.check(r)
            for r in (
                AddressRange(0x1000, 0x1003),
                AddressRange(0x2000, 0x2003),
                AddressRange(0x3000, 0x3003),
            )
        )
        assert total_positive == 1

    def test_paper_default_storage_shape(self):
        storage = paper_default_storage()
        assert storage.capacity_entries == 2730
        assert storage.policy is EvictionPolicy.SPILL
