"""Shard routing: placement, drain workers, backpressure, migration.

The daemon's state plane.  A :class:`ShardRouter` owns every live
:class:`~repro.serve.shard.TrackerShard`, assigns each new ``(device,
pid)`` key to a :class:`ShardWorker` (round-robin placement), and keeps
the per-device verdict log the query API serves.

Workers are the *decoupled tracking engines* of the PIFT story: each is
an asyncio task that drains its shards' FIFOs in batches while the
connection handlers keep reading sockets.  Everything runs on one event
loop, so "worker" here is an ownership + scheduling unit (the thing a
shard migrates *between*), not an OS thread — the state-plane contract
(snapshot / restore / parked keys) is exactly what a multi-process
deployment would need, which is why the fleet harness can prove
migration is verdict-invisible.

Backpressure is watermark-driven read-pause: every shard's
:class:`~repro.core.buffered.BufferedPIFT` gets an ``on_backpressure``
hook that clears the shard's *writability gate* when the FIFO crosses
its high watermark.  Connection handlers ``await`` that gate before
reading more frames for the shard, so a slow tracker propagates as TCP
backpressure to the device instead of silent loss.  (Under a drop
policy the gate still pauses reads; forced drops only happen when the
device keeps pushing within one already-read frame.)

Migration ("drain" in the admin vocabulary) parks the key, snapshots
the shard — FIFO contents included, nothing is flushed first — and
removes it.  ``restore`` revives the shard on any worker and wakes every
handler parked on the key.  Between the two, frames for the key wait;
order is preserved, so verdicts are bit-identical to an unmigrated run.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.core.config import OverflowPolicy, PIFTConfig, checked_buffer_params
from repro.core.events import checked_int64
from repro.core.tracker import snapshot_section
from repro.serve.shard import ShardError, ShardKey, TrackerShard


class ShardWorker:
    """One drain engine: owns a set of shard keys and a drain task."""

    def __init__(self, worker_id: int, drain_batch: int) -> None:
        self.id = worker_id
        self.drain_batch = drain_batch
        self.keys: set = set()
        self.wake = asyncio.Event()
        self.alive = True
        self.events_drained = 0
        self.drain_passes = 0
        self._task: Optional[asyncio.Task] = None

    def start(self, router: "ShardRouter") -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run(router), name=f"pift-shard-worker-{self.id}"
        )

    async def stop(self) -> None:
        self.alive = False
        self.wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def _run(self, router: "ShardRouter") -> None:
        """Drain owned shards until stopped; sleep when everything is dry."""
        while self.alive:
            self.wake.clear()
            progressed = self._drain_pass(router)
            if progressed:
                # Yield to the readers between passes so ingest and
                # tracking interleave instead of starving each other.
                await asyncio.sleep(0)
            elif self.alive and not self.wake.is_set():
                await self.wake.wait()

    def _drain_pass(self, router: "ShardRouter") -> bool:
        progressed = False
        for key in list(self.keys):
            shard = router.shards.get(key)
            if shard is None or not shard.queue_depth:
                continue
            self.events_drained += shard.drain(self.drain_batch)
            progressed = True
        if progressed:
            self.drain_passes += 1
        return progressed


class ShardRouter:
    """Key -> shard placement, verdict log, and the migration verbs."""

    def __init__(
        self,
        config: PIFTConfig,
        workers: int = 2,
        capacity: int = 1024,
        drain_batch: int = 256,
        policy: OverflowPolicy = OverflowPolicy.BLOCK,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        coloured: bool = False,
        telemetry=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # Every shard's FIFO would reject these; refuse them up front.
        checked_buffer_params(capacity, drain_batch, high_watermark,
                              low_watermark)
        self.config = config
        self.capacity = capacity
        self.drain_batch = drain_batch
        self.policy = policy
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.coloured = coloured
        self.telemetry = telemetry
        self.shards: Dict[ShardKey, TrackerShard] = {}
        self.workers: List[ShardWorker] = [
            ShardWorker(i, drain_batch) for i in range(workers)
        ]
        self.placement: Dict[ShardKey, int] = {}
        self.migrations = 0
        self._next_worker = 0
        self._gates: Dict[ShardKey, asyncio.Event] = {}
        self._parked: Dict[ShardKey, asyncio.Event] = {}
        self._verdicts: Dict[str, List[dict]] = {}
        self._started = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        for worker in self.workers:
            worker.start(self)
        self._started = True

    async def stop(self) -> None:
        for worker in self.workers:
            await worker.stop()
        self._started = False

    # -- placement and lookup -------------------------------------------

    def _live_workers(self) -> List[ShardWorker]:
        alive = [w for w in self.workers if w.alive]
        if not alive:
            raise ShardError("no live shard workers")
        return alive

    def _place(self, key: ShardKey, worker_id: Optional[int] = None) -> int:
        alive = self._live_workers()
        if worker_id is None:
            worker = alive[self._next_worker % len(alive)]
            self._next_worker += 1
        else:
            worker = next((w for w in alive if w.id == worker_id), None)
            if worker is None:
                raise ShardError(f"no live worker {worker_id}")
        worker.keys.add(key)
        self.placement[key] = worker.id
        return worker.id

    def _build_shard(self, key: ShardKey) -> TrackerShard:
        return TrackerShard(
            key,
            self.config,
            capacity=self.capacity,
            drain_batch=self.drain_batch,
            policy=self.policy,
            high_watermark=self.high_watermark,
            low_watermark=self.low_watermark,
            coloured=self.coloured,
            telemetry=self.telemetry,
            on_backpressure=self._on_backpressure,
        )

    async def shard_for(self, device: str, pid: int) -> TrackerShard:
        """The live shard for ``(device, pid)``; waits out a migration."""
        key: ShardKey = (device, pid)
        while True:
            parked = self._parked.get(key)
            if parked is not None:
                await parked.wait()
                continue
            shard = self.shards.get(key)
            if shard is not None:
                return shard
            shard = self._build_shard(key)
            self.shards[key] = shard
            self._gates[key] = asyncio.Event()
            self._gates[key].set()
            self._place(key)
            return shard

    def notify_ingest(self, shard: TrackerShard) -> None:
        """Wake the owning worker after events were enqueued."""
        worker_id = self.placement.get(shard.key)
        if worker_id is not None:
            self.workers[worker_id].wake.set()

    # -- backpressure ----------------------------------------------------

    def _on_backpressure(self, shard: TrackerShard, engaged: bool) -> None:
        gate = self._gates.get(shard.key)
        if gate is None:
            return
        if engaged:
            gate.clear()
            self.notify_ingest(shard)  # the drainer is the way out
        else:
            gate.set()

    async def wait_writable(self, shard: TrackerShard) -> None:
        """Block (pausing the caller's socket reads) while engaged."""
        gate = self._gates.get(shard.key)
        if gate is not None and not gate.is_set():
            self.notify_ingest(shard)
            await gate.wait()

    # -- verdict log (query API) ----------------------------------------

    def record_verdict(self, device: str, verdict: dict) -> None:
        self._verdicts.setdefault(device, []).append(verdict)

    def device_verdicts(self, device: str) -> List[dict]:
        return list(self._verdicts.get(device, ()))

    def device_attribution(self, device: str) -> List[dict]:
        """Colour -> sink-hit fold over the device's verdict log."""
        hits: Dict[str, dict] = {}
        order: List[str] = []
        for verdict in self._verdicts.get(device, ()):
            for colour in verdict.get("colours") or ():
                if colour not in hits:
                    hits[colour] = {"colour": colour, "sink_hits": 0,
                                    "channels": set()}
                    order.append(colour)
                hits[colour]["sink_hits"] += 1
                hits[colour]["channels"].add(verdict.get("channel", ""))
        return [
            {
                "colour": colour,
                "sink_hits": hits[colour]["sink_hits"],
                "channels": sorted(hits[colour]["channels"]),
            }
            for colour in order
        ]

    def devices(self) -> List[str]:
        names = set(self._verdicts)
        names.update(device for device, _pid in self.shards)
        names.update(device for device, _pid in self._parked)
        return sorted(names)

    # -- reset (next run / app restart) ---------------------------------

    def reset_device(self, device: str) -> int:
        """Drop the device's shards (verdict log is kept).  Parked shards
        cannot be reset — a migration is in flight; finish it first."""
        keys = [key for key in self.shards if key[0] == device]
        for key in keys:
            if key in self._parked:
                raise ShardError(
                    f"shard {key[0]}/{key[1]} is parked mid-migration"
                )
        for key in keys:
            self._remove(key)
        return len(keys)

    def _remove(self, key: ShardKey) -> None:
        self.shards.pop(key, None)
        self._gates.pop(key, None)
        worker_id = self.placement.pop(key, None)
        if worker_id is not None:
            self.workers[worker_id].keys.discard(key)

    # -- migration (the PR 2 snapshot machinery, live) -------------------

    def drain_shard(self, device: str, pid: int) -> dict:
        """Snapshot + park ``(device, pid)``; returns the snapshot.

        Nothing is flushed first: the FIFO travels inside the snapshot,
        so the migrated shard resumes from the exact byte the donor
        stopped at.  Until :meth:`restore_shard`, frames for the key
        wait on the parked event.
        """
        key: ShardKey = (device, pid)
        shard = self.shards.get(key)
        if shard is None:
            raise ShardError(f"no live shard {device}/{pid}")
        snapshot = shard.snapshot()
        self._parked[key] = asyncio.Event()
        # Release any reader paused on the backpressure gate before the
        # gate is dropped — it will re-park on the key, and the restored
        # shard's gate re-engages if the FIFO is still above watermark.
        gate = self._gates.get(key)
        if gate is not None:
            gate.set()
        self._remove(key)
        return snapshot

    def restore_shard(
        self, snapshot: dict, worker_id: Optional[int] = None
    ) -> int:
        """Revive a drained shard (optionally on a named worker)."""
        snapshot = snapshot_section(snapshot, "shard")
        key: ShardKey = (
            str(snapshot.get("device")),
            checked_int64(snapshot.get("pid"), "snapshot pid"),
        )
        if key in self.shards:
            raise ShardError(f"shard {key[0]}/{key[1]} is already live")
        shard = self._build_shard(key)
        shard.restore(snapshot)
        self.shards[key] = shard
        gate = asyncio.Event()
        # Re-derive the gate from the restored FIFO depth: the snapshot
        # carries the backpressure flag, and a paused reader must stay
        # paused until the new worker drains below the low watermark.
        if not shard.backpressure:
            gate.set()
        self._gates[key] = gate
        placed = self._place(key, worker_id)
        self.migrations += 1
        parked = self._parked.pop(key, None)
        if parked is not None:
            parked.set()
        self.notify_ingest(shard)
        return placed

    async def stop_worker(self, worker_id: int) -> List[ShardKey]:
        """Kill one worker, migrating its shards to the survivors.

        The chaos verb the fleet harness leans on: drains every shard the
        worker owns (snapshot + park), stops the drain task, then
        restores each shard on the remaining workers — mid-stream, with
        readers waiting on the parked keys, and bit-identical verdicts
        after.
        """
        worker = next((w for w in self.workers if w.id == worker_id), None)
        if worker is None or not worker.alive:
            raise ShardError(f"no live worker {worker_id}")
        if len(self._live_workers()) < 2:
            raise ShardError("cannot stop the last live worker")
        keys = sorted(worker.keys)
        snapshots = [self.drain_shard(device, pid) for device, pid in keys]
        await worker.stop()
        for snapshot in snapshots:
            self.restore_shard(snapshot)
        return keys

    # -- accounting ------------------------------------------------------

    def stats(self) -> dict:
        return {
            "shards": len(self.shards),
            "parked": len(self._parked),
            "devices": len(self.devices()),
            "migrations": self.migrations,
            "coloured": self.coloured,
            "events_ingested": sum(
                s.events_ingested for s in self.shards.values()
            ),
            "checks_answered": sum(
                s.checks_answered for s in self.shards.values()
            ),
            "queue_depth": sum(s.queue_depth for s in self.shards.values()),
            "backpressure_engagements": sum(
                s.buffered.stats.backpressure_engagements
                for s in self.shards.values()
            ),
            "forced_drops": sum(
                s.buffered.stats.forced_drops for s in self.shards.values()
            ),
            "workers": [
                {
                    "id": worker.id,
                    "alive": worker.alive,
                    "shards": len(worker.keys),
                    "events_drained": worker.events_drained,
                    "drain_passes": worker.drain_passes,
                }
                for worker in self.workers
            ],
        }
