"""Labelled taint — which source leaked? (multi-policy tags, §6/Raksha).

Algorithm 1 tracks one bit per byte.  Real deployments want to know *what*
is about to leave the device — the paper's own evaluation distinguishes
leaks of "phone number, location, and device ID".  Raksha and FlexiTaint
(the paper's §6) generalise taint to multi-bit tags for exactly this.

``ProvenanceTracker`` runs one independent :class:`PIFTTracker` per source
label over the same event stream.  Because Algorithm 1 is deterministic in
its taint state, per-label tracking is exact: a sink check returns the set
of labels whose flows reach it, at the cost of one tracker per label —
the same linear-cost trade a multi-bit hardware tag array makes.

``ColourProvenance`` is the constant-cost alternative: the same API over
a single :class:`~repro.core.tracker.ColourTracker`, whose range set
carries per-interval colour masks (one pass per event, any label count).
The two are **deliberately not equivalent** on traces where windows of
different labels interact.  Per-label trackers run Algorithm 1 blind to
each other: a store inside label A's window is, from label B's
independent tracker, an out-of-window store — and *untaints* B's bytes
at that address.  The mask tracker runs Algorithm 1 once over the union
state, so that same store is a taint (with A's mask) and B's bytes
elsewhere are untouched; its union projection is byte-identical to the
plain single-bit tracker, which per-label tracking is not.  Per-label
tracking answers "would PIFT have flagged this source *alone*?"; colour
tracking answers "which sources contributed to what PIFT flagged?" —
keep both (DESIGN.md, "Multi-colour taint").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.colours import ColourSpace
from repro.core.config import PIFTConfig
from repro.core.events import MemoryAccess
from repro.core.ranges import AddressRange
from repro.core.tracker import ColourTracker, PIFTTracker


@dataclass(frozen=True)
class LabeledLeak:
    """One sink check that came back tainted, with its source labels."""

    sink_name: str
    labels: FrozenSet[str]


class ProvenanceTracker:
    """Per-label predictive tracking over a shared event stream."""

    def __init__(self, config: PIFTConfig) -> None:
        self.config = config
        self._trackers: Dict[str, PIFTTracker] = {}
        self.leaks: List[LabeledLeak] = []

    def labels(self) -> List[str]:
        return sorted(self._trackers)

    def _tracker(self, label: str) -> PIFTTracker:
        if label not in self._trackers:
            self._trackers[label] = PIFTTracker(self.config)
        return self._trackers[label]

    def taint_source(
        self, label: str, address_range: AddressRange, pid: int = 0
    ) -> None:
        """Register a sensitive range under a provenance label."""
        self._tracker(label).taint_source(address_range, pid=pid)

    def observe(self, event: MemoryAccess) -> None:
        for tracker in self._trackers.values():
            tracker.observe(event)

    def run(self, events: Iterable[MemoryAccess]) -> None:
        # Materialise once; every label's tracker sees the same stream.
        for event in events:
            self.observe(event)

    def check(
        self, address_range: AddressRange, pid: int = 0, sink_name: str = ""
    ) -> FrozenSet[str]:
        """Which labels taint ``address_range``?  Empty set = clean."""
        hit = frozenset(
            label
            for label, tracker in self._trackers.items()
            if tracker.check(address_range, pid=pid)
        )
        if hit:
            self.leaks.append(LabeledLeak(sink_name, hit))
        return hit

    def union_tainted_bytes(self) -> int:
        """Total bytes tainted under at least one label."""
        from repro.core.ranges import RangeSet

        union = RangeSet()
        for tracker in self._trackers.values():
            for state in tracker._states.values():
                for stored in state:
                    union.add(stored)
        return union.total_size


class ColourProvenance:
    """:class:`ProvenanceTracker`'s API over one mask-carrying tracker.

    One :class:`~repro.core.tracker.ColourTracker` pass regardless of
    label count — the multi-bit-tag-array design point, versus
    ``ProvenanceTracker``'s one-tracker-per-label.  See the module
    docstring for why their answers legitimately differ on cross-label
    window interactions; the benchmark
    (``benchmarks/bench_label_overhead.py``) measures the cost gap.
    """

    def __init__(
        self, config: PIFTConfig, colours: Optional[ColourSpace] = None
    ) -> None:
        self.config = config
        self.tracker = ColourTracker(config, colours=colours)
        self.leaks: List[LabeledLeak] = []

    def labels(self) -> List[str]:
        return sorted(self.tracker.colours.names)

    def taint_source(
        self, label: str, address_range: AddressRange, pid: int = 0
    ) -> None:
        self.tracker.taint_source(address_range, pid=pid, colour=label)

    def observe(self, event: MemoryAccess) -> None:
        self.tracker.observe(event)

    def run(self, events: Iterable[MemoryAccess]) -> None:
        self.tracker.run(events)

    def check(
        self, address_range: AddressRange, pid: int = 0, sink_name: str = ""
    ) -> FrozenSet[str]:
        """Which labels' taint reaches ``address_range``?  Empty = clean."""
        hit = frozenset(
            self.tracker.check_colours(address_range, pid=pid)
        )
        if hit:
            self.leaks.append(LabeledLeak(sink_name, hit))
        return hit

    def union_tainted_bytes(self) -> int:
        """Total bytes tainted under at least one label (exact: coloured
        intervals are disjoint, so this is just the byte total)."""
        return self.tracker.tainted_bytes
