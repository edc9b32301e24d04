"""Off-critical-path tracking: buffered event processing (paper §1).

    "…the reduction in the amount of data means it is possible to move
    information-flow tracking off the critical path in the architecture,
    such that the load–store stream is buffered for delayed processing at
    a more convenient time (while trading prevention for detection, of
    course)."

``BufferedPIFT`` models that design point: the front end appends memory
events to a bounded FIFO; the tracker drains it in batches (e.g. when the
CPU stalls, on a timer, or when the buffer fills).  A sink check can be
answered two ways:

* ``check_blocking`` — drain first, then answer: *prevention* semantics
  with a drain-latency cost (counted in ``stats``);
* ``check_immediate`` — answer from the possibly-stale taint state and
  reconcile when the buffer next drains: *detection* semantics; a leak
  that was in flight is reported late rather than stopped.

The model quantifies the trade the paper mentions: how often an immediate
answer disagrees with the post-drain truth, versus how many events a
blocking check had to wait for.

Overflow and backpressure
-------------------------

What happens when the FIFO is *full* is an :class:`~repro.core.config
.OverflowPolicy`: ``BLOCK`` (drain a batch in place — today's default),
``DROP_OLDEST`` / ``DROP_NEWEST`` (a ring / guarded FIFO; dropped events
are counted in ``stats.forced_drops`` and degrade later answers), or
``SPILL`` (burst-write the oldest batch to an unbounded secondary queue
in main memory).  Watermarks expose *backpressure*: when the FIFO depth
crosses ``high_watermark`` the ``backpressure`` flag raises (and is
counted) until depth falls back to ``low_watermark``.

The FIFO holds *segments* — ``[columns, lo, hi]`` slices of
:class:`~repro.core.events.EventColumns` — not per-event objects, with
integer depth counters beside them.  :meth:`BufferedPIFT.on_columns`
enqueues a whole decoded chunk as one segment, :meth:`~BufferedPIFT
.on_memory_event` appends to an open tail segment, and a drain hands
each segment slice to the tracker's ``observe_columns`` in one call.
Chunked and per-event feeding are observationally identical: the same
policy decisions, watermark crossings, stats, telemetry and verdicts.

Once any event has been force-dropped — by an overflow policy or by an
injected fault (:mod:`repro.core.faults`) — the taint state is no longer
trustworthy: immediate answers carry a ``degraded`` flag
(:class:`ImmediateVerdict`), so a 'clean' verdict under loss is reported
as *known-loss* rather than silently clean.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from repro.core.colours import ColourSpace
from repro.core.config import (
    OverflowPolicy, PIFTConfig, checked_buffer_params,
)
from repro.core.events import (
    AccessKind, EventColumns, MemoryAccess, checked_columns, checked_int64,
    checked_range,
)
from repro.core.ranges import AddressRange
from repro.core.tracker import (
    ColourTracker,
    PIFTTracker,
    TrackerStats,
    snapshot_section,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.faults import FaultPlan
    from repro.telemetry import Telemetry


@dataclass
class BufferStats:
    """Accounting for the buffered design point."""

    events_buffered: int = 0
    drains: int = 0
    events_drained: int = 0
    forced_drops: int = 0  # buffer overflow with a drop policy
    spilled_events: int = 0  # overflow bursts written to secondary memory
    backpressure_engagements: int = 0  # high-watermark crossings
    max_queue_depth: int = 0
    blocking_checks: int = 0
    blocking_drain_events: int = 0  # events processed while a check waited
    immediate_checks: int = 0
    degraded_checks: int = 0  # checks answered after forced/faulted loss
    stale_negatives: int = 0  # immediate 'clean' that turned tainted

    def as_dict(self) -> dict:
        """JSON-ready form (feeds the telemetry/CLI exporters)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BufferStats":
        """Inverse of :meth:`as_dict` (checkpoint restore).

        Each entry must name a field and hold an exact ``int`` inside
        int64 (:func:`~repro.core.events.checked_int64`); anything else
        raises :class:`ValueError`.
        """
        payload = snapshot_section(payload, "buffer stats")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"snapshot buffer stats: unknown {unknown}")
        return cls(**{
            key: checked_int64(value, f"snapshot buffer stats {key}")
            for key, value in payload.items()
        })


@dataclass(frozen=True)
class LateDetection:
    """An in-flight leak that an immediate check missed, found at drain."""

    sink_name: str
    address_range: AddressRange
    events_behind: int  # how many buffered events the answer was behind
    degraded: bool = False  # events had been force-dropped by then
    #: Contributing source colours at settle time (coloured tracker only;
    #: empty under the plain single-bit tracker).
    colours: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ImmediateVerdict:
    """The full answer to an immediate (detection-semantics) sink check.

    ``degraded`` marks a *known-loss* answer: events were force-dropped
    (overflow policy) or lost to injected faults before this check, so
    a clean verdict cannot be trusted at full confidence.
    """

    tainted: bool
    degraded: bool
    forced_drops: int  # overflow-policy drops at answer time
    fault_drops: int  # injected event losses at answer time
    #: Contributing source colours at answer time (coloured tracker only;
    #: empty under the plain single-bit tracker).  ``tainted`` equals
    #: ``bool(colours)`` when colours are live.
    colours: Tuple[str, ...] = ()


class BufferedPIFT:
    """A PIFT tracker fed through a bounded event buffer.

    Args:
        config: the tainting-window parameters.
        capacity: maximum buffered events.  When full, the configured
            :class:`~repro.core.config.OverflowPolicy` applies — the
            default ``BLOCK`` drains a batch automatically (modelling a
            hardware FIFO watermark), so taint state lags the CPU by at
            most ``capacity`` events.
        drain_batch: events processed per drain step.
        policy: overflow behaviour when the FIFO is full.
        high_watermark / low_watermark: backpressure thresholds (defaults:
            ``capacity`` and half of it).
        faults: optional :class:`~repro.core.faults.FaultPlan`.  When
            absent the event path is byte-identical to a fault-free
            build — the faulted variant is only *bound over*
            ``on_memory_event`` (as an instance attribute) when a plan
            is supplied.
        telemetry: optional :class:`~repro.telemetry.Telemetry` hub.
        on_backpressure: optional callback invoked with ``True`` when the
            FIFO crosses the high watermark and ``False`` when it falls
            back to the low watermark.  This is the service hook: the
            ``repro serve`` daemon registers one per shard and *stops
            reading the device's socket* while engaged, so the overflow
            watermarks become real TCP backpressure instead of silent
            drops.  Called synchronously from the event/drain path —
            keep it cheap and non-reentrant.
        colours: optional :class:`~repro.core.colours.ColourSpace`.  When
            supplied the wrapped tracker is a
            :class:`~repro.core.tracker.ColourTracker` over that space;
            :meth:`taint_source` accepts a ``colour`` label and immediate
            verdicts / late detections carry contributing colours.  The
            verdict bits themselves are unchanged (union projection).
    """

    def __init__(
        self,
        config: PIFTConfig,
        capacity: int = 1024,
        drain_batch: int = 256,
        telemetry: Optional["Telemetry"] = None,
        policy: OverflowPolicy = OverflowPolicy.BLOCK,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        faults: Optional["FaultPlan"] = None,
        colours: Optional[ColourSpace] = None,
        on_backpressure: Optional[Callable[[bool], None]] = None,
    ) -> None:
        self._high_watermark, self._low_watermark = checked_buffer_params(
            capacity, drain_batch, high_watermark, low_watermark
        )
        self._coloured = colours is not None
        if self._coloured:
            self.tracker: PIFTTracker = ColourTracker(
                config, colours=colours, telemetry=telemetry
            )
        else:
            self.tracker = PIFTTracker(config, telemetry=telemetry)
        self.capacity = capacity
        self.drain_batch = drain_batch
        self.policy = policy
        self.stats = BufferStats()
        self.late_detections: List[LateDetection] = []
        # FIFO and spill queue of ``[columns, lo, hi]`` segments, oldest
        # first, with their event counts kept beside them.
        self._queue: Deque[list] = deque()
        self._spill: Deque[list] = deque()
        self._queue_depth = 0
        self._spill_depth = 0
        #: The growable columns :meth:`on_memory_event` appends to.
        self._tail: Optional[EventColumns] = None
        self._pending_immediate: List[tuple] = []
        self._backpressure = False
        self._on_backpressure = on_backpressure
        # FIFO sequence accounting: every accepted event gets the next
        # enqueue ordinal; it is *retired* when drained into the tracker
        # or force-dropped from the queue.  Events retire in FIFO order,
        # so a pending immediate check settles once the retire counter
        # reaches the enqueue counter it saw at answer time.
        self._enqueue_seq = 0
        self._retired_seq = 0
        self._injector = None
        if faults is not None:
            self._injector = faults.injector(telemetry=telemetry)
            self.on_memory_event = self._on_memory_event_with_faults
        self._tel: Optional["Telemetry"] = None
        if telemetry is not None and telemetry.enabled:
            self._tel = telemetry
            m = telemetry.metrics
            self._m_events = m.counter(
                "buffer.events", "events enqueued to the FIFO"
            )
            self._m_drains = m.counter("buffer.drains", "drain batches executed")
            self._m_drained = m.counter(
                "buffer.events_drained", "events processed by drains"
            )
            self._m_depth = m.gauge("buffer.queue_depth", "current FIFO depth")
            self._m_drain_seconds = m.histogram(
                "buffer.drain_seconds", "drain batch wall time"
            )
            self._m_forced_drops = m.counter(
                "buffer.forced_drops", "events lost to the overflow policy"
            )
            self._m_spilled = m.counter(
                "buffer.spilled_events", "events spilled to secondary memory"
            )
            self._m_backpressure = m.counter(
                "buffer.backpressure_engagements", "high-watermark crossings"
            )

    # -- front-end side ----------------------------------------------------------

    def on_memory_event(self, event: MemoryAccess) -> None:
        """Append one event; apply the overflow policy when the FIFO is full."""
        tail = self._tail
        if tail is None or len(tail) >= self.capacity:
            # Start a fresh tail so drained events are freed segment by
            # segment instead of pinning one ever-growing encoding.
            tail = self._tail = EventColumns.empty()
        position = len(tail)
        tail.append(event)
        self._enqueue(tail, position, position + 1)

    def _on_memory_event_with_faults(self, event: MemoryAccess) -> None:
        """Fault-path shadow of :meth:`on_memory_event` (instance-bound)."""
        for delivered in self._injector.feed(event):
            type(self).on_memory_event(self, delivered)

    def on_columns(
        self, columns: EventColumns, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """Append events ``[start, stop)`` of ``columns`` as one chunk.

        Observationally identical to :meth:`on_memory_event` on each event
        in turn — overflow policy, watermark callbacks, stats, telemetry
        and every later verdict — but the FIFO keeps a slice of
        ``columns`` instead of per-event objects, and a drain hands it to
        the tracker whole.  ``columns`` may grow, but the events it has
        queued must not change until they are drained.
        """
        if stop is None:
            stop = len(columns)
        if self._injector is not None:
            # Event-path faults perturb single events.
            on_event = self.on_memory_event
            for event in columns.events[start:stop]:
                on_event(event)
            return
        self._enqueue(columns, start, stop)

    def _enqueue(self, columns: EventColumns, start: int, stop: int) -> None:
        """The per-event FIFO rules, applied to runs of events at a time.

        Each pass appends as many events as fit before the policy must act
        again; within such a run the depth only rises, so the watermark
        check at its first event and at the high-watermark crossing
        reproduce every transition the per-event path makes.
        """
        capacity = self.capacity
        policy = self.policy
        stats = self.stats
        while start < stop:
            if (
                policy is not OverflowPolicy.BLOCK
                and self._queue_depth >= capacity
            ):
                if policy is OverflowPolicy.DROP_NEWEST:
                    self._count_forced_drops(stop - start)
                    return
                self._make_room()
            depth = self._queue_depth
            take = min(stop - start, max(1, capacity - depth))
            self._push(self._queue, columns, start, start + take)
            start += take
            self._queue_depth = top = depth + take
            self._enqueue_seq += take
            stats.events_buffered += take
            if top > stats.max_queue_depth:
                stats.max_queue_depth = top
            if self._tel is not None:
                self._m_events.inc(take)
                self._m_depth.set(top)
            self._update_backpressure(depth + 1)
            if not self._backpressure and top >= self._high_watermark:
                self._update_backpressure(
                    max(depth + 1, self._high_watermark)
                )
            if policy is OverflowPolicy.BLOCK and top >= capacity:
                self.drain(self.drain_batch)

    @staticmethod
    def _push(queue: Deque[list], columns: EventColumns, lo: int, hi: int) -> None:
        """Append a slice, extending the newest segment when contiguous."""
        if queue:
            last = queue[-1]
            if last[0] is columns and last[2] == lo:
                last[2] = hi
                return
        queue.append([columns, lo, hi])

    @staticmethod
    def _pop(queue: Deque[list], count: int) -> List[tuple]:
        """Remove the oldest ``count`` events; returns them as slices."""
        taken = []
        while count:
            segment = queue[0]
            columns, lo, hi = segment
            step = min(count, hi - lo)
            taken.append((columns, lo, lo + step))
            if lo + step == hi:
                queue.popleft()
            else:
                segment[1] = lo + step
            count -= step
        return taken

    def _count_forced_drops(self, count: int) -> None:
        self.stats.forced_drops += count
        if self._tel is not None:
            self._m_forced_drops.inc(count)
            for _ in range(count):
                self._tel.event("forced_drop", policy=self.policy.value)

    def _make_room(self) -> None:
        """Free FIFO space: DROP_OLDEST loses one event, SPILL moves a burst."""
        if self.policy is OverflowPolicy.DROP_OLDEST:
            self._pop(self._queue, 1)
            self._queue_depth -= 1
            self._retired_seq += 1
            self._count_forced_drops(1)
            return
        # SPILL: burst-write the oldest drain_batch events to main memory.
        burst = min(self.drain_batch, self._queue_depth)
        for columns, lo, hi in self._pop(self._queue, burst):
            self._push(self._spill, columns, lo, hi)
        self._queue_depth -= burst
        self._spill_depth += burst
        self.stats.spilled_events += burst
        if self._tel is not None:
            self._m_spilled.inc(burst)
            self._tel.event(
                "spill", events=burst, spill_depth=self._spill_depth
            )

    def _update_backpressure(self, depth: Optional[int] = None) -> None:
        if depth is None:
            depth = self._queue_depth
        if not self._backpressure and depth >= self._high_watermark:
            self._backpressure = True
            self.stats.backpressure_engagements += 1
            if self._tel is not None:
                self._m_backpressure.inc()
                self._tel.event("backpressure_on", depth=depth)
            if self._on_backpressure is not None:
                self._on_backpressure(True)
        elif self._backpressure and depth <= self._low_watermark:
            self._backpressure = False
            if self._tel is not None:
                self._tel.event("backpressure_off", depth=depth)
            if self._on_backpressure is not None:
                self._on_backpressure(False)

    def taint_source(
        self,
        address_range: AddressRange,
        pid: int = 0,
        colour: Optional[str] = None,
    ) -> None:
        """Source registration is synchronous (it is rare — paper §3.3).

        ``colour`` labels the source on a coloured tracker; it is
        rejected on a plain one (silently dropping a label would make
        attribution lie by omission).
        """
        self.drain_all()
        if self._coloured:
            self.tracker.taint_source(address_range, pid=pid, colour=colour)
        elif colour is not None:
            raise ValueError(
                "colour labels need a coloured tracker; pass colours="
                "ColourSpace() when building BufferedPIFT"
            )
        else:
            self.tracker.taint_source(address_range, pid=pid)

    # -- draining -------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queue_depth

    @property
    def spill_depth(self) -> int:
        """Events waiting in the secondary (main-memory) spill queue."""
        return self._spill_depth

    @property
    def backpressure(self) -> bool:
        """True while the FIFO sits above the high watermark."""
        return self._backpressure

    @property
    def degraded(self) -> bool:
        """True once taint information was lost — to the overflow policy
        (forced drops) or to a lossy fault (event drop, address
        corruption, state drop, eviction storm)."""
        if self.stats.forced_drops:
            return True
        injector = self._injector
        return injector is not None and injector.stats.information_lost

    @property
    def fault_stats(self):
        """The injector's :class:`~repro.core.faults.FaultStats`, or None."""
        return self._injector.stats if self._injector is not None else None

    def drain(self, batch: Optional[int] = None) -> int:
        """Process up to ``batch`` queued events (all of them if None).

        Spilled events are worked through first — they are the oldest,
        and FIFO order must hold for reconciliation.  Each segment slice
        reaches the tracker in one ``observe_columns`` call.
        """
        available = self._spill_depth + self._queue_depth
        limit = available if batch is None else min(batch, available)
        started = time.perf_counter() if self._tel is not None else 0.0
        injector = self._injector
        tracker = self.tracker
        drained = 0
        try:
            while drained < limit:
                spilled = self._spill_depth > 0
                queue = self._spill if spilled else self._queue
                segment = queue[0]
                columns, lo, hi = segment
                step = min(limit - drained, hi - lo)
                if injector is None:
                    tracker.observe_columns(columns, lo, lo + step)
                else:
                    # Storage faults draw once per processed event.
                    events = columns.events
                    for i in range(lo, lo + step):
                        tracker.observe(events[i])
                        injector.state_faults(tracker, events[i].pid)
                # Retire the slice only once the tracker has taken it, so
                # an exception leaves every unprocessed event queued.
                if lo + step == hi:
                    queue.popleft()
                else:
                    segment[1] = lo + step
                if spilled:
                    self._spill_depth -= step
                else:
                    self._queue_depth -= step
                self._retired_seq += step
                drained += step
        finally:
            if drained:
                self.stats.drains += 1
                self.stats.events_drained += drained
            if self._tel is not None and drained:
                elapsed = time.perf_counter() - started
                self._m_drains.inc()
                self._m_drained.inc(drained)
                self._m_depth.set(self._queue_depth)
                self._m_drain_seconds.observe(elapsed)
                self._tel.event(
                    "drain",
                    events=drained,
                    remaining=self._queue_depth,
                    duration_us=round(elapsed * 1e6, 3),
                )
            self._update_backpressure()
            self._reconcile_immediate_checks()
        return drained

    def drain_all(self) -> int:
        return self.drain(None)

    # -- sink side ----------------------------------------------------------------------

    def check_blocking(self, address_range: AddressRange, pid: int = 0) -> bool:
        """Prevention semantics: wait for the buffer, then answer."""
        self.stats.blocking_checks += 1
        self.stats.blocking_drain_events += self._queue_depth + self._spill_depth
        self.drain_all()
        if self.degraded:
            self.stats.degraded_checks += 1
        return self.tracker.check(address_range, pid=pid)

    def check_blocking_colours(
        self, address_range: AddressRange, pid: int = 0
    ) -> Tuple[str, ...]:
        """Prevention semantics with attribution: drain, then name the
        contributing source colours (empty tuple = clean).  Coloured
        trackers only."""
        if not self._coloured:
            raise ValueError("check_blocking_colours needs a coloured tracker")
        self.check_blocking(address_range, pid=pid)
        return self.tracker.check_colours(address_range, pid=pid)

    def check_immediate(
        self, address_range: AddressRange, pid: int = 0, sink_name: str = ""
    ) -> bool:
        """Detection semantics: answer now from possibly-stale state.

        A 'clean' answer is provisional: if the drained events turn the
        range tainted, a :class:`LateDetection` is recorded.  See
        :meth:`check_immediate_verdict` for the degraded-confidence
        (known-loss) variant of the answer.
        """
        return self.check_immediate_verdict(
            address_range, pid=pid, sink_name=sink_name
        ).tainted

    def check_immediate_verdict(
        self, address_range: AddressRange, pid: int = 0, sink_name: str = ""
    ) -> ImmediateVerdict:
        """Like :meth:`check_immediate`, with loss-awareness attached."""
        self.stats.immediate_checks += 1
        degraded = self.degraded
        if degraded:
            self.stats.degraded_checks += 1
        colours: Tuple[str, ...] = ()
        if self._coloured:
            colours = self.tracker.check_colours(address_range, pid=pid)
            answer = bool(colours)
        else:
            answer = self.tracker.check(address_range, pid=pid)
        if not answer:
            behind = self._queue_depth + self._spill_depth
            self._pending_immediate.append(
                (sink_name, address_range, pid, behind, self._enqueue_seq)
            )
        injector = self._injector
        return ImmediateVerdict(
            tainted=answer,
            degraded=degraded,
            forced_drops=self.stats.forced_drops,
            fault_drops=injector.stats.events_dropped if injector else 0,
            colours=colours,
        )

    def _reconcile_immediate_checks(self) -> None:
        """Settle provisional 'clean' answers whose events have retired.

        A check recorded the enqueue ordinal it saw; once that many
        events have been drained *or force-dropped* (retirement is FIFO),
        everything that was in flight at answer time has been resolved
        and the answer can be settled — even on a partial drain.
        """
        if not self._pending_immediate:
            return
        retired = self._retired_seq
        still_pending: List[tuple] = []
        for pending in self._pending_immediate:
            sink_name, address_range, pid, behind, barrier = pending
            if barrier > retired:
                still_pending.append(pending)
                continue
            if self.tracker.check(address_range, pid=pid):
                self.stats.stale_negatives += 1
                colours: Tuple[str, ...] = ()
                if self._coloured:
                    colours = self.tracker.check_colours(
                        address_range, pid=pid
                    )
                self.late_detections.append(
                    LateDetection(
                        sink_name, address_range, behind,
                        degraded=self.degraded, colours=colours,
                    )
                )
            # Either way the provisional answer is now settled.
        self._pending_immediate = still_pending

    # -- checkpoint / restore ------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible checkpoint: tracker + queues + pending checks.

        Captures everything a faulted run needs to resume: the wrapped
        tracker (delegating to :meth:`PIFTTracker.snapshot`), the FIFO
        and spill contents, buffer stats, backpressure state, and the
        provisional immediate checks with their sequence barriers.
        """
        load, store = AccessKind.LOAD.value, AccessKind.STORE.value

        def pack(segments: Deque[list]) -> list:
            return [
                [
                    load if columns.is_loads[i] else store,
                    columns.starts[i],
                    columns.ends[i],
                    columns.indices[i],
                    columns.pids[i],
                ]
                for columns, lo, hi in segments
                for i in range(lo, hi)
            ]

        return {
            "tracker": self.tracker.snapshot(),
            "queue": pack(self._queue),
            "spill": pack(self._spill),
            "stats": self.stats.as_dict(),
            "pending": [
                [sink, rng.start, rng.end, pid, behind, barrier]
                for sink, rng, pid, behind, barrier in self._pending_immediate
            ],
            "late_detections": [
                # Colours ride along as an optional sixth element, so
                # snapshots written by colour-free builds stay loadable
                # (and byte-identical) either way.
                [d.sink_name, d.address_range.start, d.address_range.end,
                 d.events_behind, d.degraded]
                + ([list(d.colours)] if d.colours else [])
                for d in self.late_detections
            ],
            "backpressure": self._backpressure,
            "enqueue_seq": self._enqueue_seq,
            "retired_seq": self._retired_seq,
        }

    def restore(self, snapshot: dict) -> None:
        """Restore a :meth:`snapshot` exactly (construction params aside).

        Every field is checked before any state changes: the FIFO and
        spill rows go through the decoders' checks
        (:func:`~repro.core.events.checked_columns`), and the pending
        checks, late detections, stats and sequence numbers through the
        same int rules (exact ``int`` fields inside int64, a non-empty
        range, ``bool`` flags, colours as a list of strings).  The
        tracker checks its own snapshot before it replaces anything, and
        is restored last.  A malformed field raises :class:`ValueError`
        and leaves the buffer as it was.
        """
        snapshot = snapshot_section(snapshot, "buffer")
        queue = _unpack_events(snapshot["queue"], "queue")
        spill = _unpack_events(snapshot["spill"], "spill")
        pending = _unpack_pending(snapshot["pending"])
        late_detections = _unpack_late(snapshot["late_detections"])
        stats = BufferStats.from_dict(snapshot["stats"])
        backpressure = snapshot["backpressure"]
        if type(backpressure) is not bool:
            raise ValueError(
                f"snapshot backpressure must be a bool, got {backpressure!r}"
            )
        enqueue_seq = checked_int64(snapshot["enqueue_seq"],
                                    "snapshot enqueue_seq")
        retired_seq = checked_int64(snapshot["retired_seq"],
                                    "snapshot retired_seq")
        self.tracker.restore(snapshot["tracker"])
        self._queue, self._queue_depth = _segments(queue)
        self._spill, self._spill_depth = _segments(spill)
        self._tail = None
        self.stats = stats
        self._pending_immediate = pending
        self.late_detections = late_detections
        self._backpressure = backpressure
        self._enqueue_seq = enqueue_seq
        self._retired_seq = retired_seq


#: A snapshot row's kind (:class:`~repro.core.events.AccessKind` value)
#: as the decoders' ``l``/``s`` letter; anything else maps to ``?``.
_KIND_LETTERS = {AccessKind.LOAD.value: "l", AccessKind.STORE.value: "s"}


def _unpack_events(rows, name: str) -> EventColumns:
    """Snapshot rows ``[kind, start, end, index, pid]`` as checked columns."""
    rows = _rows(rows, name, (5,), "[kind, start, end, index, pid]")
    if rows:
        kinds, starts, ends, indices, pids = map(list, zip(*rows))
    else:
        kinds, starts, ends, indices, pids = [], [], [], [], []
    return checked_columns(
        "".join(_KIND_LETTERS.get(kind, "?") for kind in kinds),
        {"starts": starts, "ends": ends, "indices": indices, "pids": pids},
        _row_error(name),
    )


def _row_error(name: str) -> Callable[[str], ValueError]:
    return lambda message: ValueError(f"snapshot {name}: {message}")


def _rows(rows, name: str, lengths: Tuple[int, ...], shape: str) -> list:
    """``rows`` if it is a list of lists whose lengths are in ``lengths``,
    each starting with a string (an access kind or a sink name)."""
    if type(rows) is not list or not all(
        type(row) is list and len(row) in lengths and type(row[0]) is str
        for row in rows
    ):
        raise _row_error(name)(f"rows must be {shape} lists")
    return rows


def _span(start, end, what: str, error) -> AddressRange:
    """An inclusive ``start``/``end`` pair under the decoders' range rule."""
    checked_int64(start, f"{what} start", error)
    checked_int64(end, f"{what} end", error)
    return checked_range(start, end - start + 1, what, error)


def _unpack_pending(rows) -> List[tuple]:
    """Snapshot rows ``[sink, start, end, pid, behind, barrier]``."""
    error = _row_error("pending")
    return [
        (
            sink,
            _span(start, end, "check", error),
            checked_int64(pid, "pid", error),
            checked_int64(behind, "events behind", error),
            checked_int64(barrier, "barrier", error),
        )
        for sink, start, end, pid, behind, barrier in _rows(
            rows, "pending", (6,), "[sink, start, end, pid, behind, barrier]"
        )
    ]


def _unpack_late(rows) -> List[LateDetection]:
    """Snapshot rows ``[sink, start, end, behind, degraded(, colours)]``."""
    error = _row_error("late_detections")
    detections = []
    for row in _rows(rows, "late_detections", (5, 6),
                     "[sink, start, end, behind, degraded(, colours)]"):
        colours = row[5] if len(row) > 5 else []
        if type(row[4]) is not bool:
            raise error(f"degraded must be a bool, got {row[4]!r}")
        if type(colours) is not list or not all(
            type(colour) is str for colour in colours
        ):
            raise error(f"colours must be a list of strings, got {colours!r}")
        detections.append(LateDetection(
            row[0],
            _span(row[1], row[2], "detection", error),
            checked_int64(row[3], "events behind", error),
            degraded=row[4],
            colours=tuple(colours),
        ))
    return detections


def _segments(columns: EventColumns) -> Tuple[Deque[list], int]:
    """A restored queue: one segment over ``columns``, and its depth."""
    count = len(columns)
    return deque([[columns, 0, count]] if count else []), count
