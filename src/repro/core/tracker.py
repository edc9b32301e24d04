"""The PIFT taint-propagation heuristic — Algorithm 1 of the paper.

Conceptually: a memory load that overlaps a tainted address range opens a
*Tainting Window* (TW) of ``NI`` instructions, measured from the tainted
load.  The target address ranges of up to ``NT`` store instructions inside
the window are tainted.  A store outside every window (or past the NT cap)
is optionally *untainted* — its target range is removed from the taint
state, because it was likely overwritten with non-sensitive data.

The tracker is process-aware: the PIFT front-end maintains a per-process
instruction counter (indexed by PID / TTBR per §3.3), so window state and
taint state are both kept per PID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import vectorized
from repro.core.colours import ColourRangeSet, ColourSpace
from repro.core.config import PIFTConfig
from repro.core.events import (
    EventColumns,
    EventTrace,
    MemoryAccess,
    checked_int64,
)
from repro.core.ranges import AddressRange, RangeSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.telemetry import Telemetry


#: Below this many events the numpy kernel's per-call setup outweighs the
#: scalar loop; short slices (tiny replay segments between source/sink
#: boundaries, whole DroidBench-app traces) stay scalar.  Long traces —
#: where skipping can amortise — go through the kernel, which itself
#: bails back to scalar if the slice turns out to be taint-dense.
_VECTORIZED_MIN_EVENTS = 512

#: Any object with the RangeSet mutation/query surface can back the tracker —
#: the software-reference ``RangeSet``, the coloured ``ColourRangeSet``, or a
#: hardware model from :mod:`repro.core.taint_storage`.
StateFactory = Callable[[], "TaintStateLike"]

#: Taint states the numpy kernel can drive: the unbounded interval sets,
#: whose queries have no side effects and which keep numpy mirrors.
_KERNEL_STATES = (RangeSet, ColourRangeSet)


class TaintStateLike:
    """Structural interface the tracker requires of its taint state.

    Algorithm 1 runs once, carrying a colour mask: a load opens a window
    with ``mask_overlapping_span``'s result when it is non-zero, and
    in-window stores ``add_span`` their target with that window mask.
    Single-bit states bind ``mask_overlapping_span = overlaps_span`` (a
    hit is ``True == 1``) and accept the mask without using it.

    Every entry point takes the inclusive int pair ``(start, end)`` the
    event columns carry.  The states in this package also offer each one
    over an :class:`~repro.core.ranges.AddressRange` (``overlaps``,
    ``mask_overlapping``, ``add``, ``remove``) for per-range callers;
    the tracker never calls those.
    """

    def overlaps_span(self, start: int, end: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def mask_overlapping_span(self, start: int, end: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def add_span(self, start: int, end: int, mask: int = 1) -> None:  # pragma: no cover
        raise NotImplementedError

    def remove_span(self, start: int, end: int) -> None:  # pragma: no cover
        raise NotImplementedError

    @property
    def total_size(self) -> int:  # pragma: no cover
        raise NotImplementedError

    @property
    def range_count(self) -> int:  # pragma: no cover
        raise NotImplementedError

    def snapshot(self) -> dict:  # pragma: no cover - checkpoint support
        raise NotImplementedError

    def restore(self, snapshot: dict) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass
class TimelinePoint:
    """One sample of taint-state evolution, taken at each taint/untaint op."""

    instruction_index: int
    tainted_bytes: int
    range_count: int
    cumulative_operations: int


def snapshot_section(payload, what: str) -> dict:
    """``payload`` if it is a dict (one section of a snapshot); anything
    else raises :class:`ValueError`."""
    if type(payload) is not dict:
        raise ValueError(
            f"snapshot {what} must be an object, got {type(payload).__name__}"
        )
    return payload


def _snapshot_counts(payload: dict, what: str, names) -> Dict[str, int]:
    """``payload[name]`` for each of ``names``, each checked as an int64."""
    return {
        name: checked_int64(payload[name], f"snapshot {what} {name}")
        for name in names
    }


def _snapshot_pid(key) -> int:
    """A per-PID section key: an int64, or its decimal string (JSON
    object keys are strings)."""
    if type(key) is str and key.lstrip("-").isdigit():
        key = int(key)
    return checked_int64(key, "snapshot pid")


@dataclass
class TrackerStats:
    """Counters and high-water marks accumulated while tracking.

    ``taint_operations`` and ``untaint_operations`` together are the
    operation count of the paper's Figure 16; ``max_tainted_bytes`` is
    Figure 14/15/18's metric and ``max_range_count`` Figure 17/19's.
    An untaint is only counted as an operation when it actually removed
    tainted bytes (a store over never-tainted memory is a no-op).

    ``instructions_observed`` sums the per-PID instruction high-water
    marks (instruction indices are per process, §3.3), so multi-process
    traces count every process's instructions, not just the busiest one's.
    """

    instructions_observed: int = 0
    loads_observed: int = 0
    stores_observed: int = 0
    tainted_loads: int = 0
    taint_operations: int = 0
    untaint_operations: int = 0
    max_tainted_bytes: int = 0
    max_range_count: int = 0
    timeline: List[TimelinePoint] = field(default_factory=list)

    @property
    def total_operations(self) -> int:
        return self.taint_operations + self.untaint_operations

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackerStats":
        """Inverse of :meth:`as_dict` (checkpoint restore).

        Every count must be an exact ``int`` inside int64
        (:func:`~repro.core.events.checked_int64`); anything else raises
        :class:`ValueError`.
        """
        payload = snapshot_section(payload, "stats")
        timeline = payload["timeline"]
        if type(timeline) is not list:
            raise ValueError("snapshot stats timeline must be a list")
        return cls(
            timeline=[
                TimelinePoint(**_snapshot_counts(
                    snapshot_section(point, "timeline point"),
                    "timeline point",
                    ("instruction_index", "tainted_bytes", "range_count",
                     "cumulative_operations"),
                ))
                for point in timeline
            ],
            **_snapshot_counts(payload, "stats", (
                "instructions_observed", "loads_observed", "stores_observed",
                "tainted_loads", "taint_operations", "untaint_operations",
                "max_tainted_bytes", "max_range_count",
            )),
        )

    def as_dict(self) -> dict:
        """JSON-ready form (feeds the telemetry/CLI exporters)."""
        return {
            "instructions_observed": self.instructions_observed,
            "loads_observed": self.loads_observed,
            "stores_observed": self.stores_observed,
            "tainted_loads": self.tainted_loads,
            "taint_operations": self.taint_operations,
            "untaint_operations": self.untaint_operations,
            "total_operations": self.total_operations,
            "max_tainted_bytes": self.max_tainted_bytes,
            "max_range_count": self.max_range_count,
            "timeline": [
                {
                    "instruction_index": p.instruction_index,
                    "tainted_bytes": p.tainted_bytes,
                    "range_count": p.range_count,
                    "cumulative_operations": p.cumulative_operations,
                }
                for p in self.timeline
            ],
        }


@dataclass(frozen=True)
class DecisionBox:
    """The ``(NI, NT)`` configs under which a run decides every store the
    same way (:meth:`PIFTTracker.decision_box`).

    ``ni_min <= NI <= ni_max`` and ``nt_min <= NT <= nt_max``, with
    ``nt_max`` ``None`` for no upper bound.  Inside the box every sink
    outcome and :class:`TrackerStats` counter repeats, so a sweep may
    answer any cell inside it from one replay.
    """

    ni_min: int
    ni_max: int
    nt_min: int
    nt_max: Optional[int]

    def contains(self, config: PIFTConfig) -> bool:
        ni, nt = config.window_size, config.max_propagations
        return (
            self.ni_min <= ni <= self.ni_max
            and self.nt_min <= nt
            and (self.nt_max is None or nt <= self.nt_max)
        )


@dataclass
class _WindowState:
    """Per-process Algorithm-1 state: LTLT and the propagation counter."""

    last_tainted_load: Optional[int] = None  # LTLT; None encodes -infinity
    propagations: int = 0  # n_t
    #: Per-PID instruction high-water mark (max index + 1).  Instruction
    #: indices are per process (§3.3), so the tracker-wide
    #: ``stats.instructions_observed`` is the *sum* of these, never a
    #: single global high-water mark.
    instructions_retired: int = 0
    #: Colour mask carried by the live window (the OR of the masks of
    #: every tainted range the window-opening load overlapped).  Single-bit
    #: states report a hit as ``True`` and ignore the mask on ``add``.
    colour_mask: int = 0


class _TrackerInstruments:
    """Bound metric handles plus the counts already exported.  Built only
    when the tracker has an active telemetry hub.

    The tracker's public entry points end by calling :meth:`publish`,
    which exports the :class:`TrackerStats` deltas since the previous
    publish; the executors themselves carry no telemetry code, so a
    tracker runs the same dispatcher, kernel and scalar loop with or
    without a hub.
    """

    __slots__ = (
        "telemetry", "events", "loads", "stores", "tainted_loads",
        "taint_ops", "untaint_ops", "sources", "checks", "tainted_bytes",
        "range_count", "_loads", "_stores", "_tainted_loads", "_taints",
        "_untaints",
    )

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        m = telemetry.metrics
        self.events = m.counter("tracker.events", "memory events observed")
        self.loads = m.counter("tracker.loads", "load events observed")
        self.stores = m.counter("tracker.stores", "store events observed")
        self.tainted_loads = m.counter(
            "tracker.tainted_loads", "loads that hit tainted state"
        )
        self.taint_ops = m.counter(
            "tracker.taint_ops", "in-window store taint operations"
        )
        self.untaint_ops = m.counter(
            "tracker.untaint_ops", "effective untaint operations"
        )
        self.sources = m.counter("tracker.sources", "source ranges registered")
        self.checks = m.counter("tracker.checks", "sink-range taint queries")
        self.tainted_bytes = m.gauge(
            "tracker.tainted_bytes", "current tainted bytes"
        )
        self.range_count = m.gauge(
            "tracker.range_count", "current taint-state range count"
        )
        self.rebase(TrackerStats())

    def rebase(self, stats: TrackerStats) -> None:
        """Count ``stats`` as already exported (fresh, reset or restored
        stats), so a publish never exports a negative or a donor's delta."""
        self._loads = stats.loads_observed
        self._stores = stats.stores_observed
        self._tainted_loads = stats.tainted_loads
        self._taints = stats.taint_operations
        self._untaints = stats.untaint_operations

    def publish(self, tracker: "PIFTTracker", mutated: bool = False) -> None:
        """Export the stats deltas since the last publish.

        The size gauges move only when the taint state changed (a taint,
        an untaint, or a ``mutated`` source registration): each is raised
        to the tracker's high-water mark, then set to its current value.
        """
        stats = tracker.stats
        loads = stats.loads_observed - self._loads
        stores = stats.stores_observed - self._stores
        taints = stats.taint_operations - self._taints
        untaints = stats.untaint_operations - self._untaints
        self.events.inc(loads + stores)
        self.loads.inc(loads)
        self.stores.inc(stores)
        self.tainted_loads.inc(stats.tainted_loads - self._tainted_loads)
        self.taint_ops.inc(taints)
        self.untaint_ops.inc(untaints)
        if mutated or taints or untaints:
            self.tainted_bytes.set(stats.max_tainted_bytes)
            self.tainted_bytes.set(tracker.tainted_bytes)
            self.range_count.set(stats.max_range_count)
            self.range_count.set(tracker.range_count)
        self.rebase(stats)

    def source(
        self, tracker: "PIFTTracker", address_range: AddressRange, pid: int
    ) -> None:
        """Count one source registration and log its ``source_taint``."""
        self.sources.inc()
        self.publish(tracker, mutated=True)
        self.telemetry.event(
            "source_taint",
            pid=pid,
            index=tracker.stats.instructions_observed,
            start=address_range.start,
            size=address_range.size,
        )


class PIFTTracker:
    """Predictive information-flow tracker over a load/store event stream.

    Usage mirrors the paper's software stack: *register* a sensitive source
    range with :meth:`taint_source`, feed the instruction stream's memory
    events through :meth:`observe` (or :meth:`run`), then *check* a sink
    argument's range with :meth:`check`.

    Args:
        config: the ``(NI, NT, untainting)`` parameters.
        state_factory: builds the per-process taint state; defaults to the
            unbounded software :class:`~repro.core.ranges.RangeSet`.  Pass a
            bounded hardware model from :mod:`repro.core.taint_storage` to
            study capacity effects.
        record_timeline: when True, every taint/untaint operation appends a
            :class:`TimelinePoint` (needed for the Figure 15/16 curves;
            off by default to keep tracking cheap).
        telemetry: optional :class:`~repro.telemetry.Telemetry` hub.  It
            never changes which code runs: :meth:`observe`,
            :meth:`observe_columns` (so :meth:`run`), :meth:`taint_source`
            and :meth:`check` each end with one hook that, with a live
            hub, publishes the ``tracker.*`` counter deltas and
            taint-state gauges of that call.  The JSONL stream gets one
            ``source_taint`` event per registration.  The forced-strategy
            hooks :meth:`observe_columns_scalar` and
            :meth:`observe_columns_vectorized` do not publish; their counts
            reach the hub with the next publishing call.
    """

    def __init__(
        self,
        config: PIFTConfig,
        state_factory: StateFactory = RangeSet,
        record_timeline: bool = False,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.config = config
        self._state_factory = state_factory
        self._states: Dict[int, TaintStateLike] = {}
        self._windows: Dict[int, _WindowState] = {}
        self.stats = TrackerStats()
        # What the store decisions so far read of NI and NT: the widest
        # distance k - LTLT of any tainted store, and the most stores one
        # window tainted (see :meth:`decision_box`).
        self._widest_reach = 0
        self._most_taints = 0
        self._record_timeline = record_timeline
        self._instruments: Optional[_TrackerInstruments] = None
        if telemetry is not None and telemetry.enabled:
            self._instruments = _TrackerInstruments(telemetry)

    # -- taint state access ------------------------------------------------

    def state(self, pid: int = 0) -> TaintStateLike:
        """The taint state for process ``pid``, created on first use."""
        if pid not in self._states:
            self._states[pid] = self._state_factory()
            self._windows[pid] = _WindowState()
        return self._states[pid]

    def taint_source(self, address_range: AddressRange, pid: int = 0) -> None:
        """Source registration: mark ``address_range`` sensitive (Figure 3)."""
        self.state(pid).add_span(address_range.start, address_range.end)
        self._registered(address_range, pid)

    def check(self, address_range: AddressRange, pid: int = 0) -> bool:
        """Sink query: is any byte of ``address_range`` tainted?"""
        tainted = self.state(pid).overlaps_span(
            address_range.start, address_range.end
        )
        if self._instruments is not None:
            self._instruments.checks.inc()
        return tainted

    def reset(self) -> None:
        """Clear windows, taint states, and stats for reuse across runs.

        Configuration, state factory, and telemetry wiring are preserved;
        only the accumulated tracking state is discarded, so one tracker
        (and its attached instruments) can serve many runs.
        """
        self._states.clear()
        self._windows.clear()
        self.stats = TrackerStats()
        self._widest_reach = 0
        self._most_taints = 0
        if self._instruments is not None:
            self._instruments.rebase(self.stats)

    def decision_box(self) -> DecisionBox:
        """The ``(NI, NT)`` box every store decision so far holds over.

        With A the widest distance ``k - LTLT`` of any tainted store and
        B the most stores one window tainted, the box is
        ``max(A, 1) <= NI' <= NI`` and ``max(B, 1) <= NT' <= NT`` when
        B reached ``NT``, else ``NT'`` unbounded above.  Under any config
        inside it, Algorithm 1 makes every store decision this run made:
        a tainted store lies within ``A <= NI'`` of its window's load
        and is at most the B-th taint of its window, so ``NT' >= B``
        admits it; an untainted store either lay beyond ``NI >= NI'``,
        or was capped, which means a window tainted ``NT`` stores, so
        ``B = NT`` and ``NT' <= NT`` caps it too.  Loads, sources,
        checks and untaints never read NI or NT, so the taint states,
        sink outcomes and :class:`TrackerStats` all repeat.

        A restored or reconfigured tracker cannot see the decisions
        made before, so it reports its own config only.
        """
        ni, nt = self.config.window_size, self.config.max_propagations
        return DecisionBox(
            ni_min=max(self._widest_reach, 1),
            ni_max=ni,
            nt_min=max(self._most_taints, 1),
            nt_max=nt if self._most_taints >= nt else None,
        )

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible checkpoint of config, taint state, and stats.

        Per-process taint states delegate to their own ``snapshot()``
        (both :class:`~repro.core.ranges.RangeSet` and the bounded
        :class:`~repro.core.taint_storage.BoundedRangeCache` implement
        the pair), so a faulted run can be resumed, and long sweeps can
        checkpoint mid-stream.  Restore with :meth:`restore` on a
        tracker built with the *same* ``state_factory``.
        """
        return {
            "config": {
                "window_size": self.config.window_size,
                "max_propagations": self.config.max_propagations,
                "untainting": self.config.untainting,
            },
            "states": {
                pid: state.snapshot() for pid, state in self._states.items()
            },
            "windows": {
                pid: {
                    "last_tainted_load": window.last_tainted_load,
                    "propagations": window.propagations,
                    "instructions_retired": window.instructions_retired,
                }
                for pid, window in self._windows.items()
            },
            "stats": self.stats.as_dict(),
        }

    def restore(self, snapshot: dict) -> None:
        """Restore a :meth:`snapshot` exactly, replacing current state.

        Everything is checked before anything is replaced: config,
        window and stats counts are exact ints inside int64
        (:func:`~repro.core.events.checked_int64`), ``untainting`` is a
        ``bool``, and each taint state is restored into a fresh one from
        the state factory, which checks its own rows.  A malformed
        snapshot raises :class:`ValueError` (or :class:`KeyError` for a
        missing field) and leaves the tracker as it was.
        """
        snapshot = snapshot_section(snapshot, "tracker")
        config = snapshot_section(snapshot["config"], "config")
        if type(config["untainting"]) is not bool:
            raise ValueError(
                "snapshot config untainting must be a bool, got "
                f"{config['untainting']!r}"
            )
        # ``vectorized`` is an execution-strategy flag, deliberately absent
        # from snapshots (so checkpoints stay comparable across strategies);
        # carry the current tracker's choice over.
        restored_config = PIFTConfig(
            **_snapshot_counts(
                config, "config", ("window_size", "max_propagations")
            ),
            untainting=config["untainting"],
            vectorized=self.config.vectorized,
        )
        states = {}
        for pid, payload in snapshot_section(
            snapshot["states"], "states"
        ).items():
            state = self._state_factory()
            state.restore(snapshot_section(payload, "state"))
            states[_snapshot_pid(pid)] = state
        windows = {
            _snapshot_pid(pid): self._restored_window(
                snapshot_section(payload, "window")
            )
            for pid, payload in snapshot_section(
                snapshot["windows"], "windows"
            ).items()
        }
        stats = TrackerStats.from_dict(snapshot["stats"])
        self.reconfigure(restored_config)
        self._states = states
        self._windows = windows
        self.stats = stats
        if self._instruments is not None:
            self._instruments.rebase(self.stats)

    def reconfigure(self, config: PIFTConfig) -> None:
        """Run on under ``config`` from here on (the CONFIGURE command).

        The decisions made so far say nothing about other configs, so
        from now on :meth:`decision_box` reports ``config`` only, as
        after a :meth:`restore`.
        """
        self.config = config
        self._widest_reach = config.window_size
        self._most_taints = config.max_propagations

    def _restored_window(self, payload: dict) -> _WindowState:
        """One snapshot ``windows`` entry as window state, checked."""
        last = payload["last_tainted_load"]
        return _WindowState(
            last_tainted_load=None if last is None else checked_int64(
                last, "snapshot window last_tainted_load"
            ),
            propagations=checked_int64(
                payload["propagations"], "snapshot window propagations"
            ),
            instructions_retired=checked_int64(
                payload.get("instructions_retired", 0),
                "snapshot window instructions_retired",
            ),
        )

    @property
    def instructions_per_pid(self) -> Dict[int, int]:
        """Instructions retired per PID (max index + 1 for each process)."""
        return {
            pid: window.instructions_retired
            for pid, window in self._windows.items()
        }

    @property
    def tainted_bytes(self) -> int:
        return sum(s.total_size for s in self._states.values())

    @property
    def range_count(self) -> int:
        return sum(s.range_count for s in self._states.values())

    # -- Algorithm 1 ---------------------------------------------------------

    def observe(self, event: MemoryAccess) -> None:
        """Process one memory event per Algorithm 1.

        The event's ``instruction_index`` is the per-process instruction
        sequence number *k*; it must be non-decreasing per PID.  The
        window carries the colour mask of its opening load, and in-window
        stores taint with it (see :class:`TaintStateLike`).
        """
        state = self.state(event.pid)
        window = self._windows[event.pid]
        k = event.instruction_index
        if k >= window.instructions_retired:
            self.stats.instructions_observed += k + 1 - window.instructions_retired
            window.instructions_retired = k + 1
        start, end = event.address_range.start, event.address_range.end

        if event.is_load:
            self.stats.loads_observed += 1
            mask = state.mask_overlapping_span(start, end)
            if mask:
                # Tainted load: start (or restart) the tainting window.
                window.last_tainted_load = k
                window.propagations = 0
                window.colour_mask = mask
                self.stats.tainted_loads += 1
        else:
            self.stats.stores_observed += 1
            # The tainting window is the NI instructions *following* the
            # tainted load (§3.1), so both edges are checked: a store whose
            # per-PID index regressed below the window-opening load (an
            # out-of-order front-end, a counter reset) is outside it.
            in_window = (
                window.last_tainted_load is not None
                and window.last_tainted_load <= k
                and k <= window.last_tainted_load + self.config.window_size
            )
            if in_window and window.propagations < self.config.max_propagations:
                state.add_span(start, end, window.colour_mask)
                window.propagations += 1
                if k - window.last_tainted_load > self._widest_reach:
                    self._widest_reach = k - window.last_tainted_load
                if window.propagations > self._most_taints:
                    self._most_taints = window.propagations
                self.stats.taint_operations += 1
                self._after_mutation(event.pid, k)
            elif self.config.untainting:
                if state.overlaps_span(start, end):
                    state.remove_span(start, end)
                    self.stats.untaint_operations += 1
                    self._after_mutation(event.pid, k)
        if self._instruments is not None:
            self._instruments.publish(self)

    def run(self, events: Iterable[MemoryAccess]) -> TrackerStats:
        """Feed a whole event stream through :meth:`observe_columns`.

        ``events`` may be an :class:`EventTrace` (its cached column
        encoding is reused), pre-encoded :class:`EventColumns`, or any
        iterable of :class:`MemoryAccess`.  Semantically identical to
        calling :meth:`observe` per event (parity-tested,
        ``tests/property/test_batch_parity.py``).
        """
        if isinstance(events, EventTrace):
            columns = events.columns()
        elif isinstance(events, EventColumns):
            columns = events
        else:
            columns = EventColumns.from_events(events)
        self.observe_columns(columns)
        return self.stats

    # -- batch fast path --------------------------------------------------

    def observe_columns(
        self, columns: EventColumns, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """Algorithm 1 over a pre-encoded column slice (``[start, stop)``).

        Dispatches between two observationally identical strategies
        (parity-tested in ``tests/property/test_batch_parity.py``):

        * the vectorised pre-filter kernel (:mod:`repro.core.vectorized`)
          when ``config.vectorized`` is on, the slice is long enough to
          amortise the numpy setup, and the taint backend is an
          unbounded interval set (:class:`~repro.core.ranges.RangeSet`
          or :class:`~repro.core.colours.ColourRangeSet`; bounded
          hardware models mutate on queries/eviction, so skipping their
          calls would change behaviour);
        * the scalar loop (:meth:`observe_columns_scalar`) otherwise.
        """
        if stop is None:
            stop = len(columns)
        if (
            self.config.vectorized
            and stop - start >= _VECTORIZED_MIN_EVENTS
            and self._state_factory in _KERNEL_STATES
            and vectorized.HAVE_NUMPY
        ):
            vectorized.observe_columns(self, columns, start, stop)
        else:
            self.observe_columns_scalar(columns, start, stop)
        if self._instruments is not None:
            self._instruments.publish(self)

    def observe_columns_vectorized(
        self, columns: EventColumns, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """Force the numpy pre-filter kernel regardless of slice length.

        Differential-test / benchmark hook; requires numpy and
        :class:`~repro.core.ranges.RangeSet`- or
        :class:`~repro.core.colours.ColourRangeSet`-backed taint states.
        """
        if stop is None:
            stop = len(columns)
        vectorized.observe_columns(self, columns, start, stop)

    def observe_columns_scalar(
        self, columns: EventColumns, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """The exact scalar replay loop over a column slice.

        One Python frame for the whole slice, locals for the config
        bounds and stats counters, and taint-state methods re-bound only
        on PID switches.  Per event it makes exactly the state calls
        :meth:`observe` makes (bounded storage models count and reorder
        on lookups).  Mutation bookkeeping (high-water marks, optional
        timeline) matches :meth:`_after_mutation` exactly.  The
        vectorised kernel drops into this loop around relevant events.
        """
        if stop is None:
            stop = len(columns)
        window_size = self.config.window_size
        max_propagations = self.config.max_propagations
        untainting = self.config.untainting
        stats = self.stats
        states = self._states
        windows = self._windows
        state_values = states.values()
        record_timeline = self._record_timeline
        timeline = stats.timeline
        is_loads = columns.is_loads
        starts = columns.starts
        ends = columns.ends
        indices = columns.indices
        pids = columns.pids
        loads = stats.loads_observed
        stores = stats.stores_observed
        tainted_loads = stats.tainted_loads
        taints = stats.taint_operations
        untaints = stats.untaint_operations
        instructions = stats.instructions_observed
        max_tainted = stats.max_tainted_bytes
        max_ranges = stats.max_range_count
        widest_reach = self._widest_reach
        most_taints = self._most_taints
        current_pid: Optional[int] = None
        window: _WindowState = None  # type: ignore[assignment]
        mask_overlapping = overlaps = add = remove = None
        try:
            for i in range(start, stop):
                pid = pids[i]
                if pid != current_pid:
                    state = states.get(pid)
                    if state is None:
                        state = states[pid] = self._state_factory()
                        windows[pid] = _WindowState()
                    window = windows[pid]
                    mask_overlapping = state.mask_overlapping_span
                    overlaps = state.overlaps_span
                    add = state.add_span
                    remove = state.remove_span
                    current_pid = pid
                k = indices[i]
                if k >= window.instructions_retired:
                    instructions += k + 1 - window.instructions_retired
                    window.instructions_retired = k + 1
                if is_loads[i]:
                    loads += 1
                    mask = mask_overlapping(starts[i], ends[i])
                    if mask:
                        window.last_tainted_load = k
                        window.propagations = 0
                        window.colour_mask = mask
                        tainted_loads += 1
                    continue
                stores += 1
                last = window.last_tainted_load
                if (
                    last is not None
                    and last <= k <= last + window_size
                    and window.propagations < max_propagations
                ):
                    add(starts[i], ends[i], window.colour_mask)
                    window.propagations += 1
                    if k - last > widest_reach:
                        widest_reach = k - last
                    if window.propagations > most_taints:
                        most_taints = window.propagations
                    taints += 1
                elif untainting and overlaps(starts[i], ends[i]):
                    remove(starts[i], ends[i])
                    untaints += 1
                else:
                    continue
                size = sum(s.total_size for s in state_values)
                count = sum(s.range_count for s in state_values)
                if size > max_tainted:
                    max_tainted = size
                if count > max_ranges:
                    max_ranges = count
                if record_timeline:
                    timeline.append(
                        TimelinePoint(
                            instruction_index=k,
                            tainted_bytes=size,
                            range_count=count,
                            cumulative_operations=taints + untaints,
                        )
                    )
        finally:
            stats.loads_observed = loads
            stats.stores_observed = stores
            stats.tainted_loads = tainted_loads
            stats.taint_operations = taints
            stats.untaint_operations = untaints
            stats.instructions_observed = instructions
            stats.max_tainted_bytes = max_tainted
            stats.max_range_count = max_ranges
            self._widest_reach = widest_reach
            self._most_taints = most_taints

    # -- bookkeeping -----------------------------------------------------

    def _registered(self, address_range: AddressRange, pid: int) -> None:
        """Bookkeeping after a source registration (both trackers)."""
        self._after_mutation(
            pid, instruction_index=self.stats.instructions_observed
        )
        if self._instruments is not None:
            self._instruments.source(self, address_range, pid)

    def _after_mutation(self, pid: int, instruction_index: int) -> None:
        size = self.tainted_bytes
        count = self.range_count
        if size > self.stats.max_tainted_bytes:
            self.stats.max_tainted_bytes = size
        if count > self.stats.max_range_count:
            self.stats.max_range_count = count
        if self._record_timeline:
            self.stats.timeline.append(
                TimelinePoint(
                    instruction_index=instruction_index,
                    tainted_bytes=size,
                    range_count=count,
                    cumulative_operations=self.stats.total_operations,
                )
            )


class ColourTracker(PIFTTracker):
    """Algorithm 1 with per-source provenance labels ("colours").

    Sources register with a colour name (:meth:`taint_source`'s
    ``colour``); taint state is a :class:`~repro.core.colours.ColourRangeSet`
    whose intervals carry 64-bit colour masks.  A tainted load's window
    carries the OR of every overlapped range's mask; in-window stores
    taint their target with that window mask; untainting removes bytes
    wholesale — so the tainted/untainted *classification* of every event
    never consults masks, only coverage.  The union projection (any
    non-zero mask == tainted) of a coloured run is therefore
    byte-identical to a plain :class:`PIFTTracker` on the same trace:
    identical verdicts and counters, with ``max_range_count`` the single
    permitted exception under multiple live colours (equal-mask-only
    coalescing can keep more intervals).  With one registered colour,
    every counter — including ``max_range_count`` — is identical
    (``tests/property/test_colour_parity.py``).

    Sink queries gain :meth:`check_mask` / :meth:`check_colours` for
    attribution; the inherited boolean :meth:`check` is unchanged.
    Algorithm 1 itself is :class:`PIFTTracker`'s: its window already
    carries the mask that :class:`~repro.core.colours.ColourRangeSet`
    reports.
    """

    # The shared bodies, bound by name: the benchmark's layer tracer
    # (``perfbench/layers.py``) wraps ``cls.__dict__[name]`` on both
    # tracker classes, which fails for a name a class only inherits.
    observe = PIFTTracker.observe
    observe_columns = PIFTTracker.observe_columns
    observe_columns_scalar = PIFTTracker.observe_columns_scalar

    def __init__(
        self,
        config: PIFTConfig,
        colours: Optional[ColourSpace] = None,
        record_timeline: bool = False,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        super().__init__(
            config,
            state_factory=ColourRangeSet,
            record_timeline=record_timeline,
            telemetry=telemetry,
        )
        self.colours = colours if colours is not None else ColourSpace()

    # -- labelled sources and sink queries -------------------------------

    def taint_source(
        self,
        address_range: AddressRange,
        pid: int = 0,
        colour: Optional[str] = None,
    ) -> None:
        """Source registration carrying a colour label.

        ``colour`` defaults to ``"source"`` so colour-unaware callers
        (the base class's API) still get a well-formed single-colour run.
        """
        mask = self.colours.register("source" if colour is None else colour)
        self.state(pid).add_span(address_range.start, address_range.end, mask)
        self._registered(address_range, pid)

    def check_mask(self, address_range: AddressRange, pid: int = 0) -> int:
        """Sink query: OR of the colour masks overlapping ``address_range``."""
        return self.state(pid).mask_overlapping_span(
            address_range.start, address_range.end
        )

    def check_colours(
        self, address_range: AddressRange, pid: int = 0
    ) -> Tuple[str, ...]:
        """Sink query: contributing source names, in registration order."""
        return self.colours.names_for(
            self.check_mask(address_range, pid=pid)
        )

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        snap = super().snapshot()
        for pid, window in self._windows.items():
            snap["windows"][pid]["colour_mask"] = window.colour_mask
        snap["colours"] = self.colours.snapshot()
        return snap

    def restore(self, snapshot: dict) -> None:
        """:meth:`PIFTTracker.restore`, plus window colour masks (each a
        ``uint64``) and the colour registry, all checked first."""
        colours = self.colours
        if "colours" in snapshot:
            colours = ColourSpace.from_snapshot(
                snapshot_section(snapshot["colours"], "colours")
            )
        super().restore(snapshot)
        self.colours = colours

    def _restored_window(self, payload: dict) -> _WindowState:
        window = super()._restored_window(payload)
        # Snapshots from a plain tracker carry no mask; a live window
        # restored from one defaults to the first colour so in-window
        # adds stay well-formed.
        mask = payload.get(
            "colour_mask", 1 if window.last_tainted_load is not None else 0
        )
        if type(mask) is not int or not 0 <= mask < 1 << 64:
            raise ValueError(
                f"snapshot window colour_mask must be a uint64, got {mask!r}"
            )
        window.colour_mask = mask
        return window


def track_trace(
    events: Iterable[MemoryAccess],
    sources: Iterable[Tuple[AddressRange, int]],
    config: PIFTConfig,
    record_timeline: bool = False,
    telemetry: Optional["Telemetry"] = None,
) -> PIFTTracker:
    """One-shot helper: taint ``sources`` (range, pid pairs), run ``events``."""
    tracker = PIFTTracker(
        config, record_timeline=record_timeline, telemetry=telemetry
    )
    for address_range, pid in sources:
        tracker.taint_source(address_range, pid=pid)
    tracker.run(events)
    return tracker
