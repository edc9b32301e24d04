"""Memory-event model — what the PIFT front-end hands to the tracker.

The paper's §3.3 front-end logic watches the CPU instruction unit and, for
each *memory access* instruction, sends to the PIFT hardware module:

1. the process-specific ID (PID / TTBR),
2. the process-specific instruction counter,
3. the access type (load or store),
4. the read or written address range.

Non-memory instructions advance the instruction counter but generate no
event.  ``MemoryAccess`` is that 4-tuple; the ISA simulator and the malware /
DroidBench traces all speak this type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.ranges import AddressRange


class AccessKind(enum.Enum):
    """Whether a memory instruction reads or writes memory."""

    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class MemoryAccess:
    """One memory access observed by the PIFT front-end.

    ``instruction_index`` is the per-process instruction sequence number *k*
    from Algorithm 1 — it counts every CPU instruction, not just memory
    ones, because the tainting window NI is measured in instructions.
    """

    kind: AccessKind
    address_range: AddressRange
    instruction_index: int
    pid: int = 0

    @property
    def is_load(self) -> bool:
        return self.kind is AccessKind.LOAD

    @property
    def is_store(self) -> bool:
        return self.kind is AccessKind.STORE


def load(start: int, end: int, instruction_index: int, pid: int = 0) -> MemoryAccess:
    """Convenience constructor for a load event over ``[start, end]``."""
    return MemoryAccess(AccessKind.LOAD, AddressRange(start, end), instruction_index, pid)


def store(start: int, end: int, instruction_index: int, pid: int = 0) -> MemoryAccess:
    """Convenience constructor for a store event over ``[start, end]``."""
    return MemoryAccess(AccessKind.STORE, AddressRange(start, end), instruction_index, pid)


class ColumnArrays:
    """Contiguous numpy encodings of an :class:`EventColumns` instance.

    ``starts``/``ends``/``indices``/``pids`` are int64 arrays, ``is_load``
    is a bool array — the layout the vectorised pre-filter kernel
    (:mod:`repro.core.vectorized`) runs its ``searchsorted`` overlap
    tests over.  ``pid_values`` is the sorted tuple of distinct PIDs, so
    the kernel's per-block classification skips the per-PID machinery
    entirely on single-process traces.  Built once per column encoding
    and cached (:meth:`EventColumns.arrays`).
    """

    __slots__ = ("starts", "ends", "is_load", "indices", "pids", "pid_values")

    def __init__(self, starts, ends, is_load, indices, pids, pid_values) -> None:
        self.starts = starts
        self.ends = ends
        self.is_load = is_load
        self.indices = indices
        self.pids = pids
        self.pid_values = pid_values


class EventColumns:
    """A pre-encoded column view of an event stream — the batch fast path.

    ``PIFTTracker.observe_columns`` iterates these parallel lists instead
    of per-event attribute chains (``event.pid``, ``event.is_load``, ...),
    which is where most of the per-event Python overhead lives.  Encode
    once (``EventTrace.columns()`` caches the encoding), replay many times
    — the record-once/replay-many shape every ``(NI, NT)`` sweep has.

    Columns decoded straight off the wire (``repro serve``) carry no
    :class:`MemoryAccess` objects: pass ``events=None`` and
    :attr:`events` materialises them on first use, for per-event
    consumers such as a fault injector.
    """

    __slots__ = ("_events", "is_loads", "ranges", "indices", "pids", "_arrays")

    def __init__(
        self,
        events: Optional[List[MemoryAccess]],
        is_loads: List[bool],
        ranges: List[AddressRange],
        indices: List[int],
        pids: List[int],
    ) -> None:
        self._events = events
        self.is_loads = is_loads
        self.ranges = ranges
        self.indices = indices
        self.pids = pids
        self._arrays: Optional[ColumnArrays] = None

    @classmethod
    def empty(cls) -> "EventColumns":
        """A growable encoding for :meth:`append`."""
        return cls([], [], [], [], [])

    @property
    def events(self) -> List[MemoryAccess]:
        """The events as objects (built on first use when decoded)."""
        if self._events is None:
            self._events = [
                MemoryAccess(
                    AccessKind.LOAD if is_load else AccessKind.STORE,
                    address_range, index, pid,
                )
                for is_load, address_range, index, pid in zip(
                    self.is_loads, self.ranges, self.indices, self.pids
                )
            ]
        return self._events

    def append(self, event: MemoryAccess) -> None:
        """Grow the encoding by one event (drops the numpy cache)."""
        self.events.append(event)
        self.is_loads.append(event.kind is AccessKind.LOAD)
        self.ranges.append(event.address_range)
        self.indices.append(event.instruction_index)
        self.pids.append(event.pid)
        self._arrays = None

    @classmethod
    def from_events(cls, events: Iterable[MemoryAccess]) -> "EventColumns":
        materialised = list(events)
        is_loads: List[bool] = []
        ranges: List[AddressRange] = []
        indices: List[int] = []
        pids: List[int] = []
        for event in materialised:
            is_loads.append(event.kind is AccessKind.LOAD)
            ranges.append(event.address_range)
            indices.append(event.instruction_index)
            pids.append(event.pid)
        return cls(materialised, is_loads, ranges, indices, pids)

    def arrays(self) -> ColumnArrays:
        """The cached :class:`ColumnArrays` numpy view (built on first use)."""
        if self._arrays is None:
            import numpy

            count = len(self.indices)
            pids = numpy.fromiter(self.pids, numpy.int64, count)
            self._arrays = ColumnArrays(
                starts=numpy.fromiter(
                    (r.start for r in self.ranges), numpy.int64, count
                ),
                ends=numpy.fromiter(
                    (r.end for r in self.ranges), numpy.int64, count
                ),
                is_load=numpy.fromiter(self.is_loads, numpy.bool_, count),
                indices=numpy.fromiter(self.indices, numpy.int64, count),
                pids=pids,
                pid_values=tuple(int(p) for p in numpy.unique(pids)),
            )
        return self._arrays

    def __len__(self) -> int:
        return len(self.indices)


class EventTrace:
    """A materialised sequence of memory events plus the total instruction count.

    The total count matters because metrics such as the paper's Figure 2c
    (distance between consecutive loads) and the tainting window itself are
    measured in *instructions*, of which memory events are a strict subset.

    Instruction indices are *per process* (§3.3), so the total instruction
    count of a multi-process trace is the **sum of per-PID maxima**, not the
    single highest index seen; a per-PID high-water dict keeps the sum
    exact.  Non-memory instructions (which generate no event) are accounted
    via :meth:`note_instruction`.
    """

    def __init__(self, events: Iterable[MemoryAccess] = (), instruction_count: int = 0) -> None:
        self.events: List[MemoryAccess] = list(events)
        self._retired: Dict[int, int] = {}
        for event in self.events:
            if event.instruction_index >= self._retired.get(event.pid, 0):
                self._retired[event.pid] = event.instruction_index + 1
        self._floor = instruction_count
        self._columns: Optional[EventColumns] = None

    @property
    def instruction_count(self) -> int:
        """Total instructions across all processes (sum of per-PID maxima)."""
        return max(self._floor, sum(self._retired.values()))

    @instruction_count.setter
    def instruction_count(self, value: int) -> None:
        # Legacy direct assignment acts as a floor on the derived total.
        self._floor = value

    @property
    def per_pid_instruction_counts(self) -> Dict[int, int]:
        """Instructions retired per PID (max index + 1 for each process)."""
        return dict(self._retired)

    def note_instruction(self, instruction_index: int, pid: int = 0) -> None:
        """Account a non-memory instruction (advances the PID's counter)."""
        if instruction_index >= self._retired.get(pid, 0):
            self._retired[pid] = instruction_index + 1

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.events)

    def append(self, event: MemoryAccess) -> None:
        self.events.append(event)
        if event.instruction_index >= self._retired.get(event.pid, 0):
            self._retired[event.pid] = event.instruction_index + 1
        self._columns = None

    def columns(self) -> EventColumns:
        """The cached column encoding (rebuilt after any :meth:`append`)."""
        if self._columns is None or len(self._columns) != len(self.events):
            self._columns = EventColumns.from_events(self.events)
        return self._columns

    def __getstate__(self) -> dict:
        # The column cache is derived data; drop it so pickled traces
        # (sweep-worker payloads) don't carry it twice.
        state = self.__dict__.copy()
        state["_columns"] = None
        return state

    @property
    def load_count(self) -> int:
        return sum(1 for e in self.events if e.is_load)

    @property
    def store_count(self) -> int:
        return sum(1 for e in self.events if e.is_store)

    def loads(self) -> Iterator[MemoryAccess]:
        return (e for e in self.events if e.is_load)

    def stores(self) -> Iterator[MemoryAccess]:
        return (e for e in self.events if e.is_store)
