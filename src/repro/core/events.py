"""Memory-event model — what the PIFT front-end hands to the tracker.

The paper's §3.3 front-end logic watches the CPU instruction unit and, for
each *memory access* instruction, sends to the PIFT hardware module:

1. the process-specific ID (PID / TTBR),
2. the process-specific instruction counter,
3. the access type (load or store),
4. the read or written address range.

Non-memory instructions advance the instruction counter but generate no
event.  ``MemoryAccess`` is that 4-tuple as an object — the type sources,
checks and per-event callers speak.  Recorded traces, wire frames, the
FIFO and Algorithm 1's batch path carry the same four fields as parallel
int columns (:class:`EventColumns`), checked once by
:func:`checked_columns` wherever they are decoded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, Iterator, List, Optional

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
    """A column encoding of an event stream — the representation the
    decoders, the FIFO and Algorithm 1 share.

    Parallel lists of plain ints: ``is_loads``, ``starts``, ``ends``
    (inclusive, as in :class:`~repro.core.ranges.AddressRange`),
    ``indices`` and ``pids``.  ``PIFTTracker.observe_columns`` iterates
    them instead of per-event attribute chains (``event.pid``,
    ``event.address_range``, ...), which is where most of the per-event
    Python overhead lives.  Encode once, replay many times — the
    record-once/replay-many shape every ``(NI, NT)`` sweep has.

    Nothing on the decode or replay path builds an object per event:
    :attr:`events` materialises :class:`MemoryAccess` objects on first
    use, for per-event consumers such as a fault injector.
    """

    __slots__ = (
        "_events", "is_loads", "starts", "ends", "indices", "pids", "_arrays",
    )

    def __init__(
        self,
        events: Optional[List[MemoryAccess]],
        is_loads: List[bool],
        starts: List[int],
        ends: List[int],
        indices: List[int],
        pids: List[int],
    ) -> None:
        self._events = events
        self.is_loads = is_loads
        self.starts = starts
        self.ends = ends
        self.indices = indices
        self.pids = pids
        self._arrays: Optional[ColumnArrays] = None

    @classmethod
    def empty(cls) -> "EventColumns":
        """A growable encoding for :meth:`append`."""
        return cls(None, [], [], [], [], [])

    @property
    def events(self) -> List[MemoryAccess]:
        """The events as objects (built on first use)."""
        if self._events is None:
            self._events = [
                MemoryAccess(
                    AccessKind.LOAD if is_load else AccessKind.STORE,
                    AddressRange(start, end), index, pid,
                )
                for is_load, start, end, index, pid in zip(
                    self.is_loads, self.starts, self.ends, self.indices,
                    self.pids,
                )
            ]
        return self._events

    def append(self, event: MemoryAccess) -> None:
        """Grow the encoding by one event (drops the numpy cache).

        The object list grows only if it was already built.
        """
        if self._events is not None:
            self._events.append(event)
        address_range = event.address_range
        self.is_loads.append(event.kind is AccessKind.LOAD)
        self.starts.append(address_range.start)
        self.ends.append(address_range.end)
        self.indices.append(event.instruction_index)
        self.pids.append(event.pid)
        self._arrays = None

    @classmethod
    def from_events(cls, events: Iterable[MemoryAccess]) -> "EventColumns":
        """Encode ``events``, keeping them as the object list."""
        columns = cls([], [], [], [], [], [])
        for event in events:
            columns.append(event)
        return columns

    def arrays(self) -> ColumnArrays:
        """The cached :class:`ColumnArrays` numpy view (built on first use)."""
        if self._arrays is None:
            import numpy

            count = len(self.indices)

            def int64s(column: List[int]):
                return numpy.fromiter(column, numpy.int64, count)

            self._arrays = ColumnArrays(
                starts=int64s(self.starts),
                ends=int64s(self.ends),
                is_load=numpy.fromiter(self.is_loads, numpy.bool_, count),
                indices=int64s(self.indices),
                pids=int64s(self.pids),
                pid_values=tuple(sorted(set(self.pids))),
            )
        return self._arrays

    def __len__(self) -> int:
        return len(self.indices)

    def __getstate__(self) -> dict:
        # Objects and arrays are derived from the int lists; pickled
        # columns (sweep-worker payloads) carry the lists only.
        return {
            "is_loads": self.is_loads, "starts": self.starts,
            "ends": self.ends, "indices": self.indices, "pids": self.pids,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(None, **state)


#: Every column value must fit an int64: the vectorised kernel turns the
#: columns into int64 numpy arrays (:meth:`EventColumns.arrays`).
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: The one value type a column entry may have.  JSON numbers arrive as
#: ``int`` or ``float`` and ``true``/``false`` as ``bool`` (an ``int``
#: subclass); only exact ``int`` is accepted, so nothing is truncated or
#: coerced.
_INT = frozenset({int})


def checked_columns(
    kinds: str,
    columns: Dict[str, list],
    error: Callable[[str], Exception] = ValueError,
) -> EventColumns:
    """Validate an encoded event stream into :class:`EventColumns`.

    The one set of checks every decoder applies (wire frames, stored
    traces, FIFO snapshots).  ``kinds`` is a string of ``l``/``s``;
    ``columns`` maps ``starts``, ``sizes`` or ``ends`` (inclusive),
    ``indices`` or ``index_deltas`` (summed in order), and ``pids`` to
    lists as long as ``kinds``.  Every entry must be an exact ``int``
    (never ``bool`` or ``float``), every start non-negative, every size
    at least 1, and every end, index and PID inside int64.  Anything
    else raises ``error(message)``, the message naming the offending
    column, before any column is built.
    """
    if type(kinds) is not str:
        raise error("kinds must be a string")
    count = len(kinds)
    for name, column in columns.items():
        if type(column) is not list:
            raise error(f"{name} must be a list")
        if len(column) != count:
            raise error(f"{name} and kinds disagree on length")
        if not _INT.issuperset(map(type, column)):
            raise error(f"{name} must hold integers")
    if kinds.count("l") + kinds.count("s") != count:
        raise error("kinds must each be 'l' or 's'")
    starts = columns["starts"]
    pids = columns["pids"]
    if "index_deltas" in columns:
        indices = list(accumulate(columns["index_deltas"]))
    else:
        indices = columns["indices"]
    if "sizes" in columns:
        sizes = columns["sizes"]
        if count and min(sizes) < 1:
            raise error("sizes must be at least 1")
        ends = [start + size - 1 for start, size in zip(starts, sizes)]
    else:
        ends = columns["ends"]
        if not all(map(int.__le__, starts, ends)):
            raise error("ends must not precede starts")
    if count:
        if min(starts) < 0:
            raise error("starts must not be negative")
        if max(ends) > INT64_MAX:
            raise error("an end address lies beyond int64")
        for name, column in (("indices", indices), ("pids", pids)):
            if min(column) < INT64_MIN or max(column) > INT64_MAX:
                raise error(f"{name} must fit int64")
    return EventColumns(
        None, list(map("l".__eq__, kinds)), starts, ends, indices, pids
    )


def checked_int64(
    value, what: str, error: Callable[[str], Exception] = ValueError
) -> int:
    """``value`` if it is an exact ``int`` inside int64, the rule
    :func:`checked_columns` holds indices and PIDs to; anything else
    raises ``error(message)``."""
    if type(value) is not int or not INT64_MIN <= value <= INT64_MAX:
        raise error(f"{what} must be a 64-bit integer, got {value!r}")
    return value


def checked_range(
    start, size, what: str, error: Callable[[str], Exception] = ValueError
) -> AddressRange:
    """A ``start``/``size`` pair as an :class:`AddressRange`, under
    :func:`checked_columns`' rules for one event: both exact ``int``,
    the start non-negative, the size at least 1 and the end inside
    int64.  Anything else raises ``error(message)``."""
    if type(start) is not int or type(size) is not int:
        raise error(
            f"{what} start/size must be integers, got {start!r}/{size!r}"
        )
    if start < 0 or size < 1:
        raise error(
            f"{what} needs a start >= 0 and a size >= 1, got "
            f"{start!r}/{size!r}"
        )
    end = checked_int64(start + size - 1, f"{what} end", error)
    return AddressRange(start, end)


class EventTrace:
    """A recorded memory-event stream plus the total instruction count.

    The events live in one :class:`EventColumns`; :attr:`events` and
    iteration build :class:`MemoryAccess` objects on first use.

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
        self._columns = EventColumns.empty()
        self._retired: Dict[int, int] = {}
        self._floor = instruction_count
        for event in events:
            self.append(event)

    @classmethod
    def from_columns(
        cls, columns: EventColumns, instruction_count: int = 0
    ) -> "EventTrace":
        """A trace over decoded ``columns`` (kept as they are)."""
        trace = cls(instruction_count=instruction_count)
        trace._columns = columns
        trace._retired = _high_water(columns)
        return trace

    @property
    def events(self) -> List[MemoryAccess]:
        """The events as objects (built on first use)."""
        return self._columns.events

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
        return len(self._columns)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._columns.events)

    def append(self, event: MemoryAccess) -> None:
        self._columns.append(event)
        if event.instruction_index >= self._retired.get(event.pid, 0):
            self._retired[event.pid] = event.instruction_index + 1

    def columns(self) -> EventColumns:
        """The trace's column encoding (the trace's own storage)."""
        return self._columns

    @property
    def load_count(self) -> int:
        return sum(self._columns.is_loads)

    @property
    def store_count(self) -> int:
        return len(self._columns) - self.load_count

    def loads(self) -> Iterator[MemoryAccess]:
        return (e for e in self.events if e.is_load)

    def stores(self) -> Iterator[MemoryAccess]:
        return (e for e in self.events if e.is_store)


def _high_water(columns: EventColumns) -> Dict[int, int]:
    """Per-PID ``max index + 1`` under :meth:`EventTrace.append`'s rule
    (an index counts once it reaches the PID's mark, which starts at 0)."""
    pids, indices = columns.pids, columns.indices
    retired: Dict[int, int] = {}
    if pids and pids.count(pids[0]) == len(pids):
        # One process: the per-event updates telescope to its maximum.
        top = max(indices)
        if top >= 0:
            retired[pids[0]] = top + 1
        return retired
    for pid, index in zip(pids, indices):
        if index >= retired.get(pid, 0):
            retired[pid] = index + 1
    return retired
