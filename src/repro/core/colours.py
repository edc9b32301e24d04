"""Multi-colour taint: per-source provenance labels over range sets.

PIFT's :class:`~repro.core.ranges.RangeSet` collapses all taint to one
tainted/untainted bit, so a sink verdict cannot say *which* source (IMEI
vs GPS vs phone number) leaked.  This module generalises the taint state
to per-source label sets ("colours", after multi-tag DIFT hardware):

* :class:`ColourSpace` — a deterministic registry mapping source names to
  single-bit labels in a 64-bit mask (first registration wins bit order).
* :class:`ColourRangeSet` — a :class:`~repro.core.ranges.RangeSet` mirror
  whose disjoint sorted intervals each carry a ``uint64`` colour mask.

Semantics (the *union tracker* model, documented in DESIGN.md):

* a tainted load's window carries the OR of every overlapped range's
  mask; in-window stores taint their target with that window mask;
* an untaint removes the bytes wholesale, regardless of colour — an
  overwrite destroys all taint, so the tainted/untainted *classification*
  of every event is colour-blind by construction;
* adjacent intervals coalesce only when their masks are equal, so with a
  single registered colour every mask is identical and the interval
  structure — and therefore every verdict, counter, and golden trace —
  is byte-identical to the plain ``RangeSet`` tracker (the parity suite
  in ``tests/property/test_colour_parity.py`` enforces this).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.ranges import AddressRange, checked_rows


class ColourSpace:
    """Deterministic name → colour-bit registry (64 bits wide).

    Colours are allocated in first-registration order.  Beyond
    :data:`MAX_COLOURS` distinct names, further names alias the last bit:
    the union projection (any non-zero mask == tainted) stays exact, and
    attribution degrades gracefully to "one of the overflow sources".
    """

    MAX_COLOURS = 64

    def __init__(self, names: Tuple[str, ...] = ()) -> None:
        self._names: List[str] = []
        self._bits: Dict[str, int] = {}
        for name in names:
            self.register(name)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._bits

    def register(self, name: str) -> int:
        """Return ``name``'s mask bit, allocating the next bit on first use."""
        mask = self._bits.get(name)
        if mask is None:
            index = min(len(self._names), self.MAX_COLOURS - 1)
            mask = 1 << index
            self._names.append(name)
            self._bits[name] = mask
        return mask

    def mask_of(self, name: str) -> int:
        """The registered mask for ``name`` (KeyError when unknown)."""
        return self._bits[name]

    def names_for(self, mask: int) -> Tuple[str, ...]:
        """All registered names whose bit is set in ``mask``, in
        registration order (deterministic, so attribution tuples are
        comparable across runs)."""
        if not mask:
            return ()
        return tuple(n for n in self._names if self._bits[n] & mask)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    def snapshot(self) -> dict:
        return {"names": list(self._names)}

    @classmethod
    def from_snapshot(cls, payload: dict) -> "ColourSpace":
        names = payload["names"]
        if type(names) is not list or not all(
            type(name) is str for name in names
        ):
            raise ValueError("snapshot colour names must be a list of strings")
        return cls(tuple(names))


class ColourRangeSet:
    """Sorted disjoint intervals, each carrying a colour bitmask.

    The interval algebra mirrors :class:`~repro.core.ranges.RangeSet`
    (inclusive bounds, parallel start/end lists, version-cached numpy
    mirrors) with one structural difference: adjacent or overlapping
    neighbours merge only when their masks are **equal** — overlapping
    adds OR masks over the intersection and split at colour boundaries.
    Byte coverage (`overlaps`, `total_size`) is mask-independent, which
    is what makes the union projection exact.
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._masks: List[int] = []
        self._version: int = 0
        self._np_mirror: Optional[tuple] = None
        self._total: int = 0

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[AddressRange]:
        for start, end in zip(self._starts, self._ends):
            yield AddressRange(start, end)

    def items(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(start, end, mask)`` triples in address order."""
        return zip(self._starts, self._ends, self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColourRangeSet):
            return NotImplemented
        return (
            self._starts == other._starts
            and self._ends == other._ends
            and self._masks == other._masks
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"[{s:#x}, {e:#x}]#{m:x}" for s, e, m in self.items()
        )
        return f"ColourRangeSet({inner})"

    @property
    def total_size(self) -> int:
        return self._total

    @property
    def range_count(self) -> int:
        return len(self._starts)

    def overlaps(self, query: AddressRange) -> bool:
        return self.overlaps_span(query.start, query.end)

    def overlaps_span(self, start: int, end: int) -> bool:
        """Does any stored range overlap the inclusive pair ``[start, end]``?"""
        idx = bisect.bisect_right(self._starts, end) - 1
        return idx >= 0 and self._ends[idx] >= start

    def covers_address(self, address: int) -> bool:
        return self.overlaps(AddressRange(address, address))

    def overlapping(self, query: AddressRange) -> List[AddressRange]:
        result: List[AddressRange] = []
        idx = bisect.bisect_right(self._starts, query.end) - 1
        while idx >= 0 and self._ends[idx] >= query.start:
            result.append(AddressRange(self._starts[idx], self._ends[idx]))
            idx -= 1
        result.reverse()
        return result

    def mask_overlapping(self, query: AddressRange) -> int:
        """OR of the masks of every stored range overlapping ``query``."""
        return self.mask_overlapping_span(query.start, query.end)

    def mask_overlapping_span(self, start: int, end: int) -> int:
        """OR of the masks of every stored range overlapping ``[start, end]``.

        This is the per-load lookup of the coloured tracker: zero means
        untainted, and the set bits name the contributing sources.
        """
        mask = 0
        idx = bisect.bisect_right(self._starts, end) - 1
        while idx >= 0 and self._ends[idx] >= start:
            mask |= self._masks[idx]
            idx -= 1
        return mask

    def as_arrays(self):
        """Sorted ``(starts, ends)`` int64 numpy mirror (see RangeSet)."""
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

    def add(self, item: AddressRange, mask: int) -> None:
        """Taint ``item`` with ``mask`` (see :meth:`add_span`)."""
        self.add_span(item.start, item.end, mask)

    def add_span(self, start: int, end: int, mask: int) -> None:
        """Taint ``[start, end]`` with ``mask``: OR into overlapped
        intervals (splitting at the boundaries), fill gaps, then locally
        coalesce equal-mask neighbours."""
        if mask == 0:
            raise ValueError("colour mask must be non-zero")
        starts, ends, masks = self._starts, self._ends, self._masks
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(starts, end)
        if lo == hi:
            # Gap insert: no stored range overlaps.  Coalesce into the
            # adjacent neighbour(s) when their masks equal ours.
            prev_joins = (
                lo > 0 and masks[lo - 1] == mask
                and ends[lo - 1] + 1 == start
            )
            next_joins = (
                lo < len(starts) and masks[lo] == mask
                and end + 1 == starts[lo]
            )
            if prev_joins and next_joins:
                ends[lo - 1] = ends[lo]
                del starts[lo], ends[lo], masks[lo]
            elif prev_joins:
                ends[lo - 1] = end
            elif next_joins:
                starts[lo] = start
            else:
                starts.insert(lo, start)
                ends.insert(lo, end)
                masks.insert(lo, mask)
            self._total += end - start + 1
            self._version += 1
            return
        if (
            hi == lo + 1
            and starts[lo] <= start
            and ends[lo] >= end
            and masks[lo] & mask == mask
        ):
            # Fully absorbed: one covering range already carries every
            # bit we would OR in.  Nothing changes — not even the
            # version, so the numpy mirrors stay cached (this is the
            # steady-state hot path of the scalar loop).
            return
        pieces: List[Tuple[int, int, int]] = []
        cursor = start
        added = 0
        for i in range(lo, hi):
            s, e, m = starts[i], ends[i], masks[i]
            if s > cursor:
                pieces.append((cursor, s - 1, mask))
                added += s - cursor
            if s < start:
                pieces.append((s, start - 1, m))
            pieces.append((max(s, start), min(e, end), m | mask))
            if e > end:
                pieces.append((end + 1, e, m))
            cursor = min(e, end) + 1
        if cursor <= end:
            pieces.append((cursor, end, mask))
            added += end - cursor + 1
        merged: List[List[int]] = []
        for s, e, m in pieces:
            if merged and merged[-1][2] == m and merged[-1][1] + 1 == s:
                merged[-1][1] = e
            else:
                merged.append([s, e, m])
        starts[lo:hi] = [p[0] for p in merged]
        ends[lo:hi] = [p[1] for p in merged]
        masks[lo:hi] = [p[2] for p in merged]
        # Boundary coalesce with the untouched neighbours on either side.
        right = lo + len(merged) - 1
        if 0 <= right < len(starts) - 1 and (
            masks[right] == masks[right + 1]
            and ends[right] + 1 == starts[right + 1]
        ):
            ends[right] = ends[right + 1]
            del starts[right + 1], ends[right + 1], masks[right + 1]
        if lo > 0 and lo <= len(starts) - 1 and (
            masks[lo - 1] == masks[lo] and ends[lo - 1] + 1 == starts[lo]
        ):
            ends[lo - 1] = ends[lo]
            del starts[lo], ends[lo], masks[lo]
        self._total += added
        self._version += 1

    def remove(self, item: AddressRange) -> None:
        """Untaint ``item`` (see :meth:`remove_span`)."""
        self.remove_span(item.start, item.end)

    def remove_span(self, start: int, end: int) -> None:
        """Untaint ``[start, end]`` wholesale — every colour at once.
        Straddling intervals split; the remnants keep their original masks."""
        starts, ends, masks = self._starts, self._ends, self._masks
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(starts, end)
        if lo >= hi:
            return
        removed = 0
        for i in range(lo, hi):
            removed += ends[i] - starts[i] + 1
        new_starts: List[int] = []
        new_ends: List[int] = []
        new_masks: List[int] = []
        if starts[lo] < start:
            new_starts.append(starts[lo])
            new_ends.append(start - 1)
            new_masks.append(masks[lo])
        if end < ends[hi - 1]:
            new_starts.append(end + 1)
            new_ends.append(ends[hi - 1])
            new_masks.append(masks[hi - 1])
        starts[lo:hi] = new_starts
        ends[lo:hi] = new_ends
        masks[lo:hi] = new_masks
        self._total += sum(
            e - s + 1 for s, e in zip(new_starts, new_ends)
        ) - removed
        self._version += 1

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self._masks.clear()
        self._total = 0
        self._version += 1

    def copy(self) -> "ColourRangeSet":
        clone = ColourRangeSet()
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        clone._masks = list(self._masks)
        clone._total = self._total
        return clone

    # -- fault injection hook --------------------------------------------

    def drop_nth_range(self, n: int) -> Optional[AddressRange]:
        if not self._starts:
            return None
        idx = n % len(self._starts)
        victim = AddressRange(self._starts[idx], self._ends[idx])
        del self._starts[idx]
        del self._ends[idx]
        del self._masks[idx]
        self._total -= victim.size
        self._version += 1
        return victim

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        return {
            "starts": list(self._starts),
            "ends": list(self._ends),
            "masks": list(self._masks),
        }

    def restore(self, snapshot: dict) -> None:
        """Replace contents with a :meth:`snapshot` payload, exactly.

        Rows are checked first, as :meth:`RangeSet.restore` checks them,
        and each mask must be a non-zero ``uint64``; a plain range set's
        snapshot (no masks) restores as the first colour.  A malformed
        payload raises :class:`ValueError` and leaves the set as it was.
        """
        starts, ends = checked_rows(
            snapshot["starts"], snapshot["ends"], "snapshot ranges"
        )
        masks = snapshot.get("masks", [1] * len(starts))
        if type(masks) is not list or len(masks) != len(starts) or not all(
            type(mask) is int and 0 < mask < 1 << 64 for mask in masks
        ):
            raise ValueError(
                "snapshot masks must be one non-zero 64-bit mask per range"
            )
        self._starts, self._ends, self._masks = starts, ends, list(masks)
        self._total = sum(
            e - s + 1 for s, e in zip(self._starts, self._ends)
        )
        self._version += 1

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_np_mirror"] = None
        return state
