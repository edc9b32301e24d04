"""Tracker shards — the unit of state, placement, and migration.

A shard owns the complete PIFT state of one ``(device_id, pid)`` pair: a
:class:`~repro.core.buffered.BufferedPIFT` (whose wrapped tracker is a
:class:`~repro.core.tracker.PIFTTracker`, or a
:class:`~repro.core.tracker.ColourTracker` on a coloured daemon) plus
the ingest accounting the service layers report.  Sharding on
``(device, pid)`` is parity-safe by construction: Algorithm 1's taint
state, tainting windows, and instruction counters are all per-PID
already, so splitting PIDs across shards cannot change any verdict.

Shards are deliberately synchronous — every method runs to completion
without awaiting — so the async layers above (one event loop, many
tasks) get atomicity for free: a snapshot can never observe a shard
mid-mutation.

Migration is the :meth:`snapshot` / :meth:`TrackerShard.restore` pair
riding the PR 2 checkpoint machinery: the snapshot captures the wrapped
tracker (taint states, windows, colour space), the event FIFO and spill
queue, pending immediate checks with their sequence barriers, and the
buffer stats — everything needed for a different worker (or process) to
continue the stream with bit-identical verdicts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.buffered import BufferedPIFT
from repro.core.colours import ColourSpace
from repro.core.config import OverflowPolicy, PIFTConfig
from repro.core.events import EventColumns
from repro.core.ranges import AddressRange

#: One shard key: the (device_id, pid) pair the router hashes on.
ShardKey = Tuple[str, int]

SHARD_SNAPSHOT_VERSION = 1


class ShardError(RuntimeError):
    """A shard operation that cannot be honoured (bad snapshot, ...)."""


class TrackerShard:
    """One device-process's live taint state behind a bounded FIFO."""

    __slots__ = (
        "key", "config", "coloured", "buffered",
        "events_ingested", "checks_answered", "sources_registered",
        "restores",
    )

    def __init__(
        self,
        key: ShardKey,
        config: PIFTConfig,
        capacity: int = 1024,
        drain_batch: int = 256,
        policy: OverflowPolicy = OverflowPolicy.BLOCK,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        coloured: bool = False,
        telemetry=None,
        on_backpressure=None,
    ) -> None:
        self.key = key
        self.config = config
        self.coloured = coloured
        self.buffered = BufferedPIFT(
            config,
            capacity=capacity,
            drain_batch=drain_batch,
            policy=policy,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
            colours=ColourSpace() if coloured else None,
            telemetry=telemetry,
            on_backpressure=(
                (lambda engaged: on_backpressure(self, engaged))
                if on_backpressure is not None else None
            ),
        )
        self.events_ingested = 0
        self.checks_answered = 0
        self.sources_registered = 0
        self.restores = 0

    # -- ingest ----------------------------------------------------------

    def register_source(
        self, address_range: AddressRange, colour: Optional[str] = None
    ) -> None:
        """Synchronous source registration (drains first, like batch)."""
        device, pid = self.key
        if self.coloured:
            self.buffered.taint_source(address_range, pid=pid, colour=colour)
        else:
            self.buffered.taint_source(address_range, pid=pid)
        self.sources_registered += 1

    def ingest(self, columns: EventColumns) -> int:
        """Enqueue one decoded chunk of this shard's events; returns the
        count.  The FIFO keeps the chunk itself (no per-event objects)."""
        self.buffered.on_columns(columns)
        count = len(columns)
        self.events_ingested += count
        return count

    def check(self, address_range: AddressRange, immediate: bool = False):
        """Answer one sink check.

        Blocking mode (the default — prevention semantics, and the mode
        under which fleet parity is proven) drains the FIFO first, so
        the verdict equals a batch replay's at the same stream position.
        Immediate mode answers from possibly-stale state and lets the
        reconciler log a late detection if the drain flips it.

        Returns ``(tainted, colours, degraded)``.
        """
        device, pid = self.key
        buffered = self.buffered
        self.checks_answered += 1
        if immediate:
            verdict = buffered.check_immediate_verdict(address_range, pid=pid)
            return verdict.tainted, list(verdict.colours), verdict.degraded
        if self.coloured:
            colours = buffered.check_blocking_colours(address_range, pid=pid)
            return bool(colours), list(colours), buffered.degraded
        tainted = buffered.check_blocking(address_range, pid=pid)
        return tainted, [], buffered.degraded

    # -- service plumbing ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self.buffered.queue_depth + self.buffered.spill_depth

    @property
    def backpressure(self) -> bool:
        return self.buffered.backpressure

    def drain(self, batch: Optional[int] = None) -> int:
        """Process up to ``batch`` queued events (worker drain loop)."""
        return self.buffered.drain(batch)

    def late_detections(self) -> List[dict]:
        """The reconciler's late-detection log, JSON-ready."""
        return [
            {
                "sink": d.sink_name,
                "start": d.address_range.start,
                "size": d.address_range.size,
                "events_behind": d.events_behind,
                "degraded": d.degraded,
                "colours": list(d.colours),
            }
            for d in self.buffered.late_detections
        ]

    def stats(self) -> dict:
        device, pid = self.key
        buffer_stats = self.buffered.stats
        return {
            "device": device,
            "pid": pid,
            "coloured": self.coloured,
            "events_ingested": self.events_ingested,
            "sources_registered": self.sources_registered,
            "checks_answered": self.checks_answered,
            "queue_depth": self.queue_depth,
            "backpressure": self.backpressure,
            "backpressure_engagements": buffer_stats.backpressure_engagements,
            "forced_drops": buffer_stats.forced_drops,
            "degraded": self.buffered.degraded,
            "restores": self.restores,
        }

    # -- migration -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-compatible checkpoint of everything the stream needs."""
        device, pid = self.key
        return {
            "version": SHARD_SNAPSHOT_VERSION,
            "device": device,
            "pid": pid,
            "coloured": self.coloured,
            "buffered": self.buffered.snapshot(),
            "counters": {
                "events_ingested": self.events_ingested,
                "checks_answered": self.checks_answered,
                "sources_registered": self.sources_registered,
                "restores": self.restores,
            },
        }

    def restore(self, snapshot: dict) -> None:
        """Adopt a :meth:`snapshot` taken from a same-shaped shard."""
        if snapshot.get("version") != SHARD_SNAPSHOT_VERSION:
            raise ShardError(
                f"shard snapshot version {snapshot.get('version')!r}, "
                f"expected {SHARD_SNAPSHOT_VERSION}"
            )
        if bool(snapshot.get("coloured")) != self.coloured:
            raise ShardError(
                "snapshot colour mode does not match this daemon "
                f"(snapshot coloured={snapshot.get('coloured')}, "
                f"daemon coloured={self.coloured})"
            )
        if (snapshot.get("device"), int(snapshot.get("pid", -1))) != self.key:
            raise ShardError(
                f"snapshot is for shard {snapshot.get('device')}/"
                f"{snapshot.get('pid')}, not {self.key[0]}/{self.key[1]}"
            )
        self.buffered.restore(snapshot["buffered"])
        counters = snapshot.get("counters", {})
        self.events_ingested = int(counters.get("events_ingested", 0))
        self.checks_answered = int(counters.get("checks_answered", 0))
        self.sources_registered = int(counters.get("sources_registered", 0))
        self.restores = int(counters.get("restores", 0)) + 1
