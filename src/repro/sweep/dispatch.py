"""The lease dispatcher that runs every ``jobs > 1`` sweep.

Worker processes can die mid-cell (SIGKILL, OOM, a segfaulting native
dependency) or hang.  The dispatcher does not trust them; it leases:

* the parent assigns one cell at a time to each worker process over a
  private duplex pipe, granting a TTL **lease**
  (:class:`~repro.sweep.leases.LeaseSupervisor`) at assignment;
* workers heartbeat over the same pipe, and each heartbeat renews the
  lease; with ``stall_timeout`` set, a leased worker quiet for that long
  is reported once per quiet spell (``on_stall``);
* with telemetry on, each worker's spans and metric deltas ride its
  ``result`` message on the same pipe and merge into the parent hub
  (:mod:`repro.telemetry.relay`), so a worker has one channel and one
  liveness model;
* a dead worker (process exit) or an expired lease (hung/SIGSTOPped
  process, which the parent then SIGKILLs) requeues the cell with
  exponential backoff + deterministic jitter and respawns a replacement
  worker, up to ``max_worker_restarts``;
* a cell that fails ``max_retries + 1`` attempts is quarantined as a
  **poison cell**: journaled, counted, reported — the sweep completes
  with an explicit machine-readable hole instead of crashing.

Because cells are pure functions of ``(cell, cache)``, re-running a lost
attempt reproduces the identical result, so a sweep with workers dying
and joining mid-run is bit-identical to a fault-free serial run — the
chaos harness (:mod:`repro.sweep.chaos`) and
``benchmarks/bench_queue_resilience.py`` hold that bar.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, List, Optional

from repro.sweep.chaos import ChaosInjector, ChaosPlan
from repro.sweep.leases import BackoffPolicy, LeaseSupervisor, PoisonedCell
from repro.telemetry.hub import active
from repro.telemetry.relay import merge_worker_telemetry, worker_hub

#: Seconds between worker control-plane heartbeats (lease renewals).
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Parent poll granularity while waiting for worker messages.
_POLL_INTERVAL = 0.05

#: How long shutdown waits for a worker to honor a "stop" before SIGKILL.
_STOP_GRACE = 1.0


class DispatchError(RuntimeError):
    """The dispatcher cannot make progress (workers exhausted)."""


@dataclass
class DispatchStats:
    """What the dispatcher did beyond evaluating cells."""

    retries: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    poisoned: List[PoisonedCell] = field(default_factory=list)


# -- worker side -------------------------------------------------------------


def _queue_worker_main(
    conn,
    worker_id: int,
    cache_payload: dict,
    telemetered: bool,
    chaos_payload: Optional[dict],
    heartbeat_interval: float,
) -> None:
    """Long-lived worker loop: recv cell, claim, evaluate, ship result.

    The worker rebuilds the trace cache once, from ``cache_payload``, and
    with ``telemetered`` its own hub (:func:`~repro.telemetry.relay
    .worker_hub`); what the hub gathered since the previous result rides
    the next ``result``.  Its cells share one
    :class:`~repro.sweep.engine.ReplayTable`.  All sends share one lock
    (the heartbeat thread and the main thread write the same pipe); a
    vanished parent turns sends into no-ops and the next ``recv`` ends
    the loop.
    """
    from repro.sweep.cache import TraceCache
    from repro.sweep.engine import ReplayTable, run_cell

    telemetry = worker_hub(worker_id) if telemetered else None
    cache = TraceCache.from_payload(cache_payload, telemetry=telemetry)
    replays = ReplayTable()

    def evaluate(cell):
        result = run_cell(cell, cache, telemetry=telemetry, replays=replays)
        if telemetry is None:
            return result, None
        return result, telemetry.writer.take(telemetry.metrics)

    chaos = ChaosPlan.from_payload(chaos_payload)
    injector = ChaosInjector(chaos) if chaos is not None else None
    send_lock = threading.Lock()
    current_cell: List[Optional[int]] = [None]
    stop = threading.Event()

    def send(message) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                stop.set()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            send(("heartbeat", current_cell[0]))

    if heartbeat_interval:
        threading.Thread(
            target=beat, name="dispatch-heartbeat", daemon=True
        ).start()
    try:
        while not stop.is_set():
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            _, cell, attempt = message
            current_cell[0] = cell.index
            send(("claim", cell.index, attempt))
            try:
                if injector is not None:
                    result, shipped = injector.run(
                        cell.index, attempt, lambda: evaluate(cell)
                    )
                else:
                    result, shipped = evaluate(cell)
            except Exception as error:
                current_cell[0] = None
                send(
                    ("error", cell.index, f"{type(error).__name__}: {error}")
                )
                continue
            current_cell[0] = None
            send(("result", cell.index, result, shipped))
    finally:
        stop.set()


# -- parent side -------------------------------------------------------------


class _WorkerHandle:
    """One worker process slot: pipe, process, current lease, liveness."""

    def __init__(self, ident: int, process, conn) -> None:
        self.ident = ident
        self.process = process
        self.conn = conn
        self.lease = None
        self.dead = False

    @property
    def worker_id(self) -> int:
        """The id telemetry names this worker by (0 is the parent)."""
        return self.ident + 1

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def idle(self) -> bool:
        return not self.dead and self.lease is None


class QueueBackend:
    """The lease dispatcher :func:`~repro.sweep.run_sweep` builds for
    every ``jobs > 1`` sweep.

    Each :meth:`run` starts from no workers and zeroed :attr:`stats`, so
    one instance may run several batches in turn.

    Args:
        jobs: worker process count (replacements stay under this cap).
        lease_timeout: seconds a cell may go un-heartbeated before its
            holder is declared dead and the cell requeues.
        max_retries: failed attempts beyond the first before a cell is
            quarantined as poison.
        max_worker_restarts: replacement workers spawned across the run
            (default ``4 * jobs``); exhaustion with live cells raises
            :class:`DispatchError` rather than hanging.
        backoff: requeue delay policy (defaults to
            :class:`~repro.sweep.leases.BackoffPolicy`).
        chaos: a :class:`~repro.sweep.chaos.ChaosPlan` injected into
            workers (tests/CI only).
        heartbeat_interval: worker heartbeat cadence.
        stall_timeout: seconds a leased worker may go unheard before it
            is reported stalled (``None``: never).  Each quiet spell is
            reported once, as a ``worker_stall`` event and a
            ``sweep.worker.stalls`` increment when telemetry is on, and
            as ``on_stall(worker_id, cell_index, quiet_seconds)``; the
            next renewal re-arms it.
        telemetry: the parent hub.  When enabled, every worker builds
            its own hub, each completed cell's worker telemetry merges
            here, and each claim or heartbeat emits a ``heartbeat``
            event.
        on_retry / on_poison / on_death / on_stall: observer callbacks
            the engine uses for journaling and telemetry events.
    """

    def __init__(
        self,
        jobs: int,
        lease_timeout: float = 30.0,
        max_retries: int = 3,
        max_worker_restarts: Optional[int] = None,
        backoff: Optional[BackoffPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stall_timeout: Optional[float] = None,
        telemetry=None,
        on_retry: Optional[Callable[[int, int, str], None]] = None,
        on_poison: Optional[Callable[[PoisonedCell], None]] = None,
        on_death: Optional[Callable[[int, Optional[int]], None]] = None,
        on_stall: Optional[Callable[[int, int, float], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(
                f"stall_timeout must be positive, got {stall_timeout}"
            )
        self.jobs = jobs
        #: Where workers start: fork where the platform has it.
        self.context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self.lease_timeout = lease_timeout
        self.max_retries = max_retries
        self.max_worker_restarts = (
            max_worker_restarts if max_worker_restarts is not None else 4 * jobs
        )
        self.backoff = backoff
        self.chaos = chaos
        self.heartbeat_interval = heartbeat_interval
        self.stall_timeout = stall_timeout
        self.telemetry = active(telemetry)
        self.on_retry = on_retry
        self.on_poison = on_poison
        self.on_death = on_death
        self.on_stall = on_stall
        self.stats = DispatchStats()

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        ident = self._next_ident
        self._next_ident += 1
        process = self.context.Process(
            target=_queue_worker_main,
            args=(
                child_conn,
                ident + 1,
                self._cache_payload,
                self.telemetry is not None,
                self.chaos.as_payload() if self.chaos is not None else None,
                self.heartbeat_interval,
            ),
            name=f"sweep-queue-worker-{ident}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(ident, process, parent_conn)
        self._workers.append(handle)
        return handle

    def _handle_death(
        self, handle: _WorkerHandle, supervisor: LeaseSupervisor, now: float
    ) -> None:
        """A worker died (or was killed for lease expiry): fail its lease,
        requeue or poison the cell, respawn a replacement if allowed."""
        if handle.dead:
            return
        handle.dead = True
        handle.lease = None
        self.stats.worker_deaths += 1
        if self.on_death is not None:
            self.on_death(handle.ident, handle.pid)
        if handle.process.is_alive():
            handle.process.kill()
        try:
            handle.conn.close()
        except OSError:
            pass
        for outcome in supervisor.worker_lost(handle.ident, now):
            if isinstance(outcome, PoisonedCell):
                self._note_poison(outcome)
        self._maybe_respawn(supervisor)

    def _maybe_respawn(self, supervisor: LeaseSupervisor) -> None:
        alive = [h for h in self._workers if not h.dead]
        wanted = min(self.jobs, supervisor.outstanding())
        while len(alive) < wanted:
            if self.stats.worker_restarts >= self.max_worker_restarts:
                break
            self.stats.worker_restarts += 1
            alive.append(self._spawn_worker())

    def _note_poison(self, poisoned: PoisonedCell) -> None:
        self.stats.poisoned.append(poisoned)
        if self.on_poison is not None:
            self.on_poison(poisoned)

    def _note_retry(self, cell_index: int, attempt: int, reason: str) -> None:
        if self.on_retry is not None:
            self.on_retry(cell_index, attempt, reason)

    # -- message pump ------------------------------------------------------

    def _handle_message(
        self,
        handle: _WorkerHandle,
        message,
        supervisor: LeaseSupervisor,
        note,
        now: float,
    ) -> None:
        kind = message[0]
        if kind == "heartbeat" or kind == "claim":
            supervisor.heartbeat(handle.ident, now)
            if self.telemetry is not None:
                self._heartbeats.inc()
                self.telemetry.event(
                    "heartbeat",
                    worker_id=handle.worker_id,
                    pid=handle.pid,
                    cell_index=message[1],
                )
        elif kind == "result":
            _, cell_index, result, shipped = message
            supervisor.heartbeat(handle.ident, now)
            if handle.lease is not None and handle.lease.cell_index == cell_index:
                handle.lease = None
            if supervisor.complete(cell_index):
                if self.telemetry is not None:
                    self._events_merged.inc(merge_worker_telemetry(
                        self.telemetry, handle.worker_id, handle.pid, shipped
                    ))
                note(result)
        elif kind == "error":
            _, cell_index, error = message
            attempt = supervisor.attempts(cell_index)
            if handle.lease is not None and handle.lease.cell_index == cell_index:
                handle.lease = None
            outcome = supervisor.fail(cell_index, now, error)
            if isinstance(outcome, PoisonedCell):
                self._note_poison(outcome)
            elif cell_index not in supervisor.completed:
                self._note_retry(cell_index, attempt, error)

    def _drain(
        self, supervisor: LeaseSupervisor, note, timeout: float
    ) -> None:
        conns = {
            handle.conn: handle
            for handle in self._workers
            if not handle.dead
        }
        if not conns:
            time.sleep(min(timeout, _POLL_INTERVAL))
            return
        for ready in connection.wait(list(conns), timeout):
            handle = conns[ready]
            while True:
                try:
                    if not ready.poll():
                        break
                    message = ready.recv()
                except (EOFError, OSError):
                    # Pipe torn mid-message: the process is (or is about
                    # to be) dead; the death sweep requeues its cell.
                    break
                self._handle_message(
                    handle, message, supervisor, note, time.monotonic()
                )

    # -- main loop ---------------------------------------------------------

    def run(self, pending, cache_payload: dict, note) -> DispatchStats:
        """Evaluate ``pending`` cells; returns dispatch accounting.

        Cells are leased in the order ``pending`` gives them (the engine
        passes them by falling ``(NI, NT)``); retries re-enter after
        their backoff.  ``note`` is called exactly once per completed
        cell, in completion order (the engine returns results in
        submission order).  Raises
        :class:`DispatchError` only when every retry avenue is exhausted
        with cells still outstanding.
        """
        pending = list(pending)
        # A fresh start: a reused backend must never send cells to the
        # workers its previous run stopped.
        self.stats = DispatchStats()
        self._workers: List[_WorkerHandle] = []
        self._next_ident = 0
        self._cache_payload = cache_payload
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            self._events_merged = metrics.counter(
                "sweep.relay.events_merged",
                "worker telemetry records merged into the parent hub",
            )
            self._heartbeats = metrics.counter(
                "sweep.relay.heartbeats", "worker claims and heartbeats received"
            )
        now = time.monotonic()
        supervisor = LeaseSupervisor(
            pending,
            lease_timeout=self.lease_timeout,
            max_retries=self.max_retries,
            backoff=self.backoff
            or BackoffPolicy(seed=getattr(self.chaos, "seed", 0)),
            now=now,
        )
        for _ in range(min(self.jobs, len(pending))):
            self._spawn_worker()
        try:
            while not supervisor.done():
                now = time.monotonic()
                self._assign(supervisor, now)
                self._drain(supervisor, note, self._wait_budget(supervisor, now))
                now = time.monotonic()
                self._reap(supervisor, now)
                self._report_stalls(supervisor, now)
                self._expire(supervisor, now)
                self._check_progress(supervisor)
        finally:
            self._shutdown()
        self.stats.retries = supervisor.retries
        return self.stats

    def _assign(self, supervisor: LeaseSupervisor, now: float) -> None:
        for handle in self._workers:
            if not handle.idle():
                continue
            cell = supervisor.next_ready(now)
            if cell is None:
                return
            lease = supervisor.grant(cell.index, handle.ident, now)
            try:
                handle.conn.send(("cell", cell, lease.attempt))
                handle.lease = lease
            except (BrokenPipeError, OSError):
                self._handle_death(handle, supervisor, now)

    def _wait_budget(self, supervisor: LeaseSupervisor, now: float) -> float:
        """Sleep no further than the next backoff release or poll tick."""
        budget = _POLL_INTERVAL
        ready_at = supervisor.next_ready_at()
        if ready_at is not None and ready_at > now:
            budget = min(budget, ready_at - now)
        return max(budget, 0.001)

    def _reap(self, supervisor: LeaseSupervisor, now: float) -> None:
        for handle in self._workers:
            if not handle.dead and not handle.process.is_alive():
                self._note_lost_lease(handle, supervisor)
                self._handle_death(handle, supervisor, now)

    def _report_stalls(self, supervisor: LeaseSupervisor, now: float) -> None:
        if self.stall_timeout is None:
            return
        for lease in supervisor.stalled_leases(now, self.stall_timeout):
            handle = next(
                handle for handle in self._workers
                if handle.ident == lease.worker
            )
            quiet = now - lease.heard_at
            if self.telemetry is not None:
                self.telemetry.metrics.counter(
                    "sweep.worker.stalls", "workers gone quiet mid-cell"
                ).inc()
                self.telemetry.event(
                    "worker_stall",
                    worker_id=handle.worker_id,
                    pid=handle.pid,
                    cell_index=lease.cell_index,
                    quiet_seconds=round(quiet, 3),
                )
            if self.on_stall is not None:
                self.on_stall(handle.worker_id, lease.cell_index, quiet)

    def _expire(self, supervisor: LeaseSupervisor, now: float) -> None:
        for lease in supervisor.expired_leases(now):
            for handle in self._workers:
                if handle.ident == lease.worker and not handle.dead:
                    # Quiet past the TTL: dead, frozen, or wedged.  Kill
                    # it (SIGKILL works on SIGSTOPped processes too) and
                    # let the death path requeue + respawn.
                    handle.process.kill()
                    self._note_lost_lease(handle, supervisor)
                    self._handle_death(handle, supervisor, now)

    def _note_lost_lease(
        self, handle: _WorkerHandle, supervisor: LeaseSupervisor
    ) -> None:
        lease = handle.lease
        if lease is not None and lease.cell_index not in supervisor.completed:
            if lease.attempt <= self.max_retries:
                self._note_retry(lease.cell_index, lease.attempt, "worker lost")

    def _check_progress(self, supervisor: LeaseSupervisor) -> None:
        if supervisor.done():
            return
        if any(not handle.dead for handle in self._workers):
            return
        if self.stats.worker_restarts >= self.max_worker_restarts:
            raise DispatchError(
                f"dispatcher out of workers: {supervisor.outstanding()} "
                f"cells outstanding, {self.stats.worker_deaths} worker "
                f"deaths, restart budget {self.max_worker_restarts} spent"
            )
        self._maybe_respawn(supervisor)

    def _shutdown(self) -> None:
        for handle in self._workers:
            if handle.dead:
                continue
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + _STOP_GRACE
        for handle in self._workers:
            if handle.dead:
                continue
            handle.process.join(max(deadline - time.monotonic(), 0.05))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(_STOP_GRACE)
            try:
                handle.conn.close()
            except OSError:
                pass
