"""Address ranges and range sets — the data PIFT's taint state is made of.

PIFT (Algorithm 1 in the paper) maintains ``R = {r_1, ..., r_n}``, a set of
tainted address ranges ``r_i = [s_i, e_i]`` with *inclusive* start and end
addresses.  Three operations dominate:

* overlap query — performed on every memory load (``max(s_i, s_L) <=
  min(e_i, e_L)`` for any ``r_i``),
* taint — add the target range of a store inside a tainting window,
* untaint — remove the target range of a store outside every window.

``RangeSet`` keeps ranges sorted, coalesced, and non-overlapping, so the
number of *distinct ranges* it reports matches what the paper's Figure 17/19
measure, and the total tainted size matches Figures 14/15/18.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple


def checked_rows(starts, ends, what: str) -> Tuple[List[int], List[int]]:
    """Snapshot range rows, checked before a restore replaces anything.

    ``starts`` and ``ends`` must be lists of one length whose entries
    are exact ints inside int64 (:func:`~repro.core.events
    .checked_int64`'s rule), each row a valid :class:`AddressRange`
    (start >= 0, start <= end), and the rows sorted and disjoint, as a
    range set keeps them.  Returns copies; anything else raises
    :class:`ValueError`.
    """
    from repro.core.events import checked_int64  # events imports this module

    if type(starts) is not list or type(ends) is not list or (
        len(starts) != len(ends)
    ):
        raise ValueError(f"{what}: starts and ends must be lists of one length")
    previous_end = -1
    for start, end in zip(starts, ends):
        checked_int64(start, f"{what} start")
        checked_int64(end, f"{what} end")
        if not previous_end < start <= end:
            raise ValueError(
                f"{what}: range {start}..{end} after an end at "
                f"{previous_end} is not a sorted, disjoint, non-negative row"
            )
        previous_end = end
    return list(starts), list(ends)


@dataclass(frozen=True, order=True)
class AddressRange:
    """An inclusive address range ``[start, end]`` as in the paper's §3.2.

    The paper defines ranges by their start and end *byte* addresses, both
    inclusive; a single byte at address ``a`` is ``AddressRange(a, a)``.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"negative start address: {self.start:#x}")
        if self.end < self.start:
            raise ValueError(
                f"end {self.end:#x} precedes start {self.start:#x}"
            )

    @classmethod
    def from_base_size(cls, base: int, size: int) -> "AddressRange":
        """Build a range from a base address and a byte count (size >= 1)."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        return cls(base, base + size - 1)

    @property
    def size(self) -> int:
        """Number of bytes covered (inclusive bounds)."""
        return self.end - self.start + 1

    def overlaps(self, other: "AddressRange") -> bool:
        """The paper's overlap test: ``max(s_i, s_L) <= min(e_i, e_L)``."""
        return max(self.start, other.start) <= min(self.end, other.end)

    def contains(self, other: "AddressRange") -> bool:
        """True when ``other`` lies entirely inside this range."""
        return self.start <= other.start and other.end <= self.end

    def contains_address(self, address: int) -> bool:
        return self.start <= address <= self.end

    def adjacent_or_overlapping(self, other: "AddressRange") -> bool:
        """True when the union of the two ranges is a single range."""
        return max(self.start, other.start) <= min(self.end, other.end) + 1

    def intersection(self, other: "AddressRange") -> Optional["AddressRange"]:
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start > end:
            return None
        return AddressRange(start, end)

    def union(self, other: "AddressRange") -> "AddressRange":
        if not self.adjacent_or_overlapping(other):
            raise ValueError(f"{self} and {other} are disjoint; union is not a range")
        return AddressRange(min(self.start, other.start), max(self.end, other.end))

    def subtract(self, other: "AddressRange") -> Tuple["AddressRange", ...]:
        """Remove ``other`` from this range; zero, one, or two pieces remain."""
        if not self.overlaps(other):
            return (self,)
        pieces: List[AddressRange] = []
        if self.start < other.start:
            pieces.append(AddressRange(self.start, other.start - 1))
        if other.end < self.end:
            pieces.append(AddressRange(other.end + 1, self.end))
        return tuple(pieces)

    def aligned_expand(self, granularity_bits: int) -> "AddressRange":
        """Expand to cover whole ``2**granularity_bits``-byte blocks.

        Models the paper's §3.3 fixed-granularity alternative: tainting a
        block as a whole if any part of it is tainted (storing the
        ``32 - r`` most significant address bits).
        """
        if granularity_bits < 0:
            raise ValueError("granularity_bits must be >= 0")
        mask = (1 << granularity_bits) - 1
        return AddressRange(self.start & ~mask, self.end | mask)

    def __str__(self) -> str:
        return f"[{self.start:#x}, {self.end:#x}]"


class RangeSet:
    """A sorted, coalesced set of disjoint :class:`AddressRange` objects.

    This is the *reference* (software) taint state used by the tracker.  The
    hardware-constrained variants in :mod:`repro.core.taint_storage` mirror
    its interface but add capacity limits and eviction.

    Internally two parallel lists of starts and ends are kept sorted, so
    overlap queries are ``O(log n)`` and mutations are ``O(n)`` in the worst
    case — fine for the range counts PIFT exhibits (well under a few
    thousand, per the paper's Figure 17).
    """

    def __init__(self, ranges: Iterable[AddressRange] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        #: Mutation counter; lets derived views (the numpy mirror used by
        #: :mod:`repro.core.vectorized`) detect staleness without hashing.
        self._version: int = 0
        self._np_mirror: Optional[tuple] = None
        #: Incrementally maintained byte total, so the per-mutation
        #: high-water bookkeeping in the tracker hot loop is O(1) per
        #: range set instead of O(ranges).
        self._total: int = 0
        for item in ranges:
            self.add(item)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[AddressRange]:
        for start, end in zip(self._starts, self._ends):
            yield AddressRange(start, end)

    def __contains__(self, item: AddressRange) -> bool:
        """True when ``item`` is fully covered by a single stored range."""
        idx = bisect.bisect_right(self._starts, item.end) - 1
        return (
            idx >= 0
            and self._starts[idx] <= item.start
            and item.end <= self._ends[idx]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:
        inner = ", ".join(str(r) for r in self)
        return f"RangeSet({inner})"

    @property
    def total_size(self) -> int:
        """Total number of tainted bytes (the paper's Figures 14/15/18)."""
        return self._total

    @property
    def range_count(self) -> int:
        """Number of distinct ranges (the paper's Figures 17/19)."""
        return len(self._starts)

    def overlaps(self, query: AddressRange) -> bool:
        """The per-load taint lookup: does any stored range overlap ``query``?"""
        return self.overlaps_span(query.start, query.end)

    def overlaps_span(self, start: int, end: int) -> bool:
        """:meth:`overlaps` for the inclusive int pair ``[start, end]``.

        Ranges are disjoint and sorted, so the only candidate with
        ``stored start <= end`` that can still overlap is the rightmost one.
        """
        idx = bisect.bisect_right(self._starts, end) - 1
        return idx >= 0 and self._ends[idx] >= start

    #: The tracker's window-opening lookup: a single-bit state's only
    #: colour is "tainted", so a hit is ``True == 1``.
    mask_overlapping = overlaps
    mask_overlapping_span = overlaps_span

    def overlapping(self, query: AddressRange) -> List[AddressRange]:
        """All stored ranges that overlap ``query`` (for sink diagnostics)."""
        result: List[AddressRange] = []
        idx = bisect.bisect_right(self._starts, query.end) - 1
        while idx >= 0 and self._ends[idx] >= query.start:
            result.append(AddressRange(self._starts[idx], self._ends[idx]))
            idx -= 1
        result.reverse()
        return result

    def covers_address(self, address: int) -> bool:
        return self.overlaps(AddressRange(address, address))

    def as_arrays(self):
        """Sorted ``(starts, ends)`` int64 numpy mirror of the stored ranges.

        Built lazily and cached against :attr:`_version`, so replay code
        that performs thousands of vectorised overlap tests between taint
        mutations pays the array construction once per mutation, not once
        per query (:mod:`repro.core.vectorized`).
        """
        mirror = self._np_mirror
        if mirror is None or mirror[0] != self._version:
            import numpy

            mirror = (
                self._version,
                numpy.asarray(self._starts, dtype=numpy.int64),
                numpy.asarray(self._ends, dtype=numpy.int64),
            )
            self._np_mirror = mirror
        return mirror[1], mirror[2]


    # -- mutations -------------------------------------------------------

    def add(self, item: AddressRange, mask: int = 1) -> None:
        """Taint ``item`` (see :meth:`add_span`)."""
        self.add_span(item.start, item.end, mask)

    def add_span(self, start: int, end: int, mask: int = 1) -> None:
        """Taint ``[start, end]``, merging with overlapping/adjacent ranges.

        ``mask`` is the tracker's window colour; a single-bit set has no
        colours to keep, so it is accepted and ignored.
        """
        # Find the window of stored ranges that the new range touches
        # (overlap or adjacency), then replace them with one merged range.
        lo = bisect.bisect_left(self._ends, start - 1 if start else 0)
        hi = bisect.bisect_right(self._starts, end + 1)
        absorbed = 0
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
            for i in range(lo, hi):
                absorbed += self._ends[i] - self._starts[i] + 1
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]
        self._total += end - start + 1 - absorbed
        self._version += 1

    def remove(self, item: AddressRange) -> None:
        """Untaint ``item`` (see :meth:`remove_span`)."""
        self.remove_span(item.start, item.end)

    def remove_span(self, start: int, end: int) -> None:
        """Untaint ``[start, end]``, splitting stored ranges that straddle it."""
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo >= hi:
            return
        removed = 0
        for i in range(lo, hi):
            removed += self._ends[i] - self._starts[i] + 1
        new_starts: List[int] = []
        new_ends: List[int] = []
        if self._starts[lo] < start:
            new_starts.append(self._starts[lo])
            new_ends.append(start - 1)
        if end < self._ends[hi - 1]:
            new_starts.append(end + 1)
            new_ends.append(self._ends[hi - 1])
        self._starts[lo:hi] = new_starts
        self._ends[lo:hi] = new_ends
        self._total += sum(
            e - s + 1 for s, e in zip(new_starts, new_ends)
        ) - removed
        self._version += 1

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self._total = 0
        self._version += 1

    def copy(self) -> "RangeSet":
        clone = RangeSet()
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        clone._total = self._total
        return clone

    # -- fault injection hook --------------------------------------------

    def drop_nth_range(self, n: int) -> Optional[AddressRange]:
        """Discard the ``n``-th stored range (modulo size); returns it.

        The generic taint-state loss fault: a tainted range vanishes
        wholesale, as when a bounded hardware storage drops an entry
        (:mod:`repro.core.faults`).  Returns ``None`` on an empty set.
        """
        if not self._starts:
            return None
        idx = n % len(self._starts)
        victim = AddressRange(self._starts[idx], self._ends[idx])
        del self._starts[idx]
        del self._ends[idx]
        self._total -= victim.size
        self._version += 1
        return victim

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible checkpoint of the exact stored ranges."""
        return {"starts": list(self._starts), "ends": list(self._ends)}

    def restore(self, snapshot: dict) -> None:
        """Replace contents with a :meth:`snapshot` payload, exactly.

        The rows are checked first (:func:`checked_rows`); a malformed
        one raises :class:`ValueError` and leaves the set as it was.
        """
        self._starts, self._ends = checked_rows(
            snapshot["starts"], snapshot["ends"], "snapshot ranges"
        )
        self._total = sum(
            e - s + 1 for s, e in zip(self._starts, self._ends)
        )
        self._version += 1

    def __getstate__(self) -> dict:
        # The numpy mirror is derived data; drop it so pickled range sets
        # (sweep-worker payloads) don't carry the arrays twice.
        state = self.__dict__.copy()
        state["_np_mirror"] = None
        return state
