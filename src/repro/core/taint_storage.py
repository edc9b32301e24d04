"""Hardware taint-storage models — the paper's §3.3 design space.

The PIFT hardware module keeps tainted ranges in a *cache of ranges*
(Figure 6): each entry holds a process-specific ID, start and end address,
and a valid bit; a lookup is a parallel overlap match.  The paper sizes it
as 12 bytes/entry (4B start + 4B end + 4B PID), so a 32KB on-chip memory
holds ~2730 ranges — or 8 bytes/entry (4096 ranges) if entries are written
back on context switch and need no PID tag.

When the storage fills, the paper offers two policies:

* **spill** — evict an entry to a secondary storage in main memory using a
  replacement policy such as LRU (like an ordinary cache; misses cost
  time but no accuracy), or
* **drop** — discard the entry (no time cost, but the lost range can turn
  into a false negative).

An alternative layout taints at fixed ``2**r``-byte granularity, storing
only the ``32 - r`` most significant address bits: smaller entries, faster
compares, but over-tainting (possible false positives).

All models implement the tracker's ``TaintStateLike`` surface, so any can
be plugged into :class:`repro.core.tracker.PIFTTracker` via its
``state_factory``.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.events import checked_int64
from repro.core.ranges import AddressRange, RangeSet
from repro.core.tracker import snapshot_section

#: Bytes per range entry when each entry is tagged with a PID (§3.3).
ENTRY_BYTES_WITH_PID = 12

#: Bytes per entry when taint state is written back at context switches.
ENTRY_BYTES_WITHOUT_PID = 8


def entry_capacity(storage_bytes: int, entry_bytes: int = ENTRY_BYTES_WITH_PID) -> int:
    """How many range entries fit in an on-chip memory of ``storage_bytes``.

    Reproduces the paper's arithmetic: ``entry_capacity(32 * 1024)`` is 2730
    with PID tags and ``entry_capacity(32 * 1024, ENTRY_BYTES_WITHOUT_PID)``
    is 4096 without.
    """
    if storage_bytes < entry_bytes:
        raise ValueError(
            f"storage of {storage_bytes}B cannot hold a {entry_bytes}B entry"
        )
    return storage_bytes // entry_bytes


class EvictionPolicy(enum.Enum):
    """What to do with the LRU entry when the range cache is full."""

    SPILL = "spill"  # write back to secondary storage in main memory
    DROP = "drop"  # discard; may lose a sensitive flow (false negative)


@dataclass
class StorageStats:
    """Operation counters for one storage instance."""

    lookups: int = 0
    hits: int = 0
    secondary_hits: int = 0
    evictions: int = 0
    dropped_ranges: int = 0
    dropped_bytes: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits - self.secondary_hits


class BoundedRangeCache:
    """A capacity-limited cache of tainted ranges with LRU replacement.

    Args:
        capacity_entries: maximum number of distinct ranges held on chip.
        policy: :class:`EvictionPolicy` — spill to secondary storage or drop.
        granularity_bits: 0 keeps arbitrary byte-precise ranges (the paper's
            primary design); ``r > 0`` taints whole ``2**r``-byte blocks,
            modelling the fixed-granularity alternative.
    """

    def __init__(
        self,
        capacity_entries: int,
        policy: EvictionPolicy = EvictionPolicy.SPILL,
        granularity_bits: int = 0,
    ) -> None:
        if capacity_entries < 1:
            raise ValueError("capacity_entries must be >= 1")
        if granularity_bits < 0:
            raise ValueError("granularity_bits must be >= 0")
        self.capacity_entries = capacity_entries
        self.policy = policy
        self.granularity_bits = granularity_bits
        self.stats = StorageStats()
        self._cache = RangeSet()
        self._secondary = RangeSet()
        self._lru: Dict[Tuple[int, int], int] = {}
        self._clock = 0

    # -- TaintStateLike surface -------------------------------------------
    #
    # The int-pair ``*_span`` entry points build an ``AddressRange`` and
    # defer to the range methods: the vectorised kernel never drives a
    # bounded cache, so its per-event cost is not on a hot path.

    def overlaps(self, query: AddressRange) -> bool:
        """Parallel lookup against on-chip entries, then secondary storage."""
        self.stats.lookups += 1
        hits = self._cache.overlapping(query)
        if hits:
            self.stats.hits += 1
            self._touch(hits[0])
            return True
        if self.policy is EvictionPolicy.SPILL and self._secondary.overlaps(query):
            # A 'cache miss' serviced from main memory: promote the range.
            self.stats.secondary_hits += 1
            spilled = self._secondary.overlapping(query)[0]
            self._secondary.remove(spilled)
            self._insert(spilled)
            return True
        return False

    def overlaps_span(self, start: int, end: int) -> bool:
        return self.overlaps(AddressRange(start, end))

    #: Single-bit storage: a hit opens the tracker's window with mask 1.
    mask_overlapping = overlaps
    mask_overlapping_span = overlaps_span

    def add_span(self, start: int, end: int, mask: int = 1) -> None:
        self.add(AddressRange(start, end), mask)

    def remove_span(self, start: int, end: int) -> None:
        self.remove(AddressRange(start, end))

    def add(self, item: AddressRange, mask: int = 1) -> None:
        """Taint ``item``; ``mask`` (the window colour) is ignored."""
        item = self._quantize_out(item)
        # The new range may also subsume spilled state; fold it back in so
        # on-chip and secondary views never disagree about the same bytes.
        if self.policy is EvictionPolicy.SPILL:
            self._secondary.remove(item)
        self._insert(item)

    def remove(self, item: AddressRange) -> None:
        quantized = self._quantize_in(item)
        if quantized is None:
            return
        for stale in self._cache.overlapping(quantized):
            self._lru.pop((stale.start, stale.end), None)
        self._cache.remove(quantized)
        for survivor in self._cache.overlapping(
            AddressRange(
                max(quantized.start - 1, 0) if quantized.start else 0,
                quantized.end + 1,
            )
        ):
            self._touch(survivor)
        self._secondary.remove(quantized)
        # Untainting the middle of an entry splits it into two: a full
        # cache must evict to stay within its entry budget.
        while self._cache.range_count > self.capacity_entries:
            self._evict_one()

    @property
    def total_size(self) -> int:
        return self._cache.total_size + self._secondary.total_size

    @property
    def range_count(self) -> int:
        return self._cache.range_count + self._secondary.range_count

    # -- introspection ------------------------------------------------------

    @property
    def on_chip_range_count(self) -> int:
        return self._cache.range_count

    @property
    def spilled_range_count(self) -> int:
        return self._secondary.range_count

    # -- fault injection hooks ----------------------------------------------

    def drop_nth_entry(self, n: int) -> Optional[AddressRange]:
        """Discard the ``n``-th on-chip entry (modulo size); returns it.

        Models a spurious firing of the §3.3 drop policy (single-event
        upset on a valid bit): the range is lost outright — it does
        *not* reach secondary storage — and is accounted as a dropped
        range.  Returns ``None`` when nothing is resident on chip.
        """
        entries = self._cache.overlapping(
            AddressRange(0, (1 << 62))
        )  # all on-chip entries, sorted
        if not entries:
            return None
        victim = entries[n % len(entries)]
        self._lru.pop((victim.start, victim.end), None)
        self._cache.remove(victim)
        self.stats.dropped_ranges += 1
        self.stats.dropped_bytes += victim.size
        return victim

    def eviction_storm(self, count: int) -> int:
        """Evict up to ``count`` LRU entries at once; returns how many.

        Models burst write-back pressure (e.g. a context switch forcing
        the range cache out).  Entries follow the configured policy:
        spilled to secondary storage, or dropped.
        """
        evicted = 0
        while evicted < count and self._cache.range_count:
            self._evict_one()
            evicted += 1
        return evicted

    # -- checkpoint / restore ------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible checkpoint of cache, secondary, LRU, and stats."""
        return {
            "capacity_entries": self.capacity_entries,
            "policy": self.policy.value,
            "granularity_bits": self.granularity_bits,
            "cache": self._cache.snapshot(),
            "secondary": self._secondary.snapshot(),
            "lru": [
                [start, end, clock]
                for (start, end), clock in self._lru.items()
            ],
            "clock": self._clock,
            "stats": dataclasses.asdict(self.stats),
        }

    def restore(self, snapshot: dict) -> None:
        """Restore a :meth:`snapshot` exactly (geometry must match).

        Everything is checked before anything is replaced, as
        :meth:`RangeSet.restore <repro.core.ranges.RangeSet.restore>`
        does: the geometry, both range sets' rows
        (:func:`~repro.core.ranges.checked_rows`), every LRU entry as an
        exact-int64 ``[start, end, clock]`` triple, ``clock`` as an exact
        int64, and ``stats`` as exact int64 values under
        :class:`StorageStats` field names only.  A malformed snapshot
        raises :class:`ValueError` and leaves the cache as it was.
        """
        if (
            checked_int64(snapshot["capacity_entries"],
                          "snapshot capacity_entries") != self.capacity_entries
            or snapshot["policy"] != self.policy.value
            or checked_int64(snapshot["granularity_bits"],
                             "snapshot granularity_bits")
            != self.granularity_bits
        ):
            raise ValueError(
                "snapshot geometry (capacity/policy/granularity) does not "
                "match this storage instance"
            )
        cache, secondary = RangeSet(), RangeSet()
        cache.restore(snapshot_section(snapshot["cache"], "cache"))
        secondary.restore(snapshot_section(snapshot["secondary"], "secondary"))
        rows = snapshot["lru"]
        if type(rows) is not list:
            raise ValueError(f"snapshot lru must be a list, got {rows!r}")
        lru = {}
        for row in rows:
            if type(row) is not list or len(row) != 3:
                raise ValueError(
                    "snapshot lru entry must be [start, end, clock], "
                    f"got {row!r}"
                )
            start, end, clock = (
                checked_int64(value, "snapshot lru entry") for value in row
            )
            lru[(start, end)] = clock
        clock = checked_int64(snapshot["clock"], "snapshot clock")
        counts = snapshot_section(snapshot["stats"], "stats")
        unknown = set(counts) - {
            f.name for f in dataclasses.fields(StorageStats)
        }
        if unknown:
            raise ValueError(
                f"snapshot stats has unknown keys {sorted(unknown)}"
            )
        stats = StorageStats(**{
            key: checked_int64(value, f"snapshot stats {key}")
            for key, value in counts.items()
        })
        self._cache = cache
        self._secondary = secondary
        self._lru = lru
        self._clock = clock
        self.stats = stats

    # -- internals --------------------------------------------------------

    def _quantize_out(self, item: AddressRange) -> AddressRange:
        """Expand to whole blocks (over-taint) under fixed granularity."""
        if self.granularity_bits:
            return item.aligned_expand(self.granularity_bits)
        return item

    def _quantize_in(self, item: AddressRange) -> Optional[AddressRange]:
        """Shrink to fully-covered blocks (conservative untaint)."""
        if not self.granularity_bits:
            return item
        block = 1 << self.granularity_bits
        start = (item.start + block - 1) & ~(block - 1)
        end = ((item.end + 1) & ~(block - 1)) - 1
        if start > end:
            return None
        return AddressRange(start, end)

    def _insert(self, item: AddressRange) -> None:
        # Adding may coalesce with overlapping *or adjacent* entries, so
        # invalidate LRU keys over a one-byte-widened query.
        widened = AddressRange(max(item.start - 1, 0), item.end + 1)
        for merged_away in self._cache.overlapping(widened):
            self._lru.pop((merged_away.start, merged_away.end), None)
        self._cache.add(item)
        merged = self._cache.overlapping(item)[0]
        self._touch(merged)
        while self._cache.range_count > self.capacity_entries:
            self._evict_one()

    def _touch(self, item: AddressRange) -> None:
        self._clock += 1
        self._lru[(item.start, item.end)] = self._clock

    def _evict_one(self) -> None:
        victim_key = min(
            ((start, end) for start, end in self._lru),
            key=lambda key: self._lru[key],
        )
        victim = AddressRange(*victim_key)
        del self._lru[victim_key]
        self._cache.remove(victim)
        self.stats.evictions += 1
        if self.policy is EvictionPolicy.SPILL:
            self._secondary.add(victim)
        else:
            self.stats.dropped_ranges += 1
            self.stats.dropped_bytes += victim.size


def paper_default_storage() -> BoundedRangeCache:
    """The 32KB, PID-tagged, spill-backed configuration from §3.3."""
    return BoundedRangeCache(
        capacity_entries=entry_capacity(32 * 1024, ENTRY_BYTES_WITH_PID),
        policy=EvictionPolicy.SPILL,
    )
