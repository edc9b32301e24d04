"""The parallel experiment engine: fan sweep cells across a process pool.

``run_sweep`` takes an iterable of :class:`~repro.sweep.specs.SweepCell`
(or a :class:`~repro.sweep.specs.GridSpec`) and evaluates every cell,
either inline (``jobs=1``) or across a ``multiprocessing`` pool.  The
contract is *bit-identical results at any worker count*: cells are pure
functions of ``(cell, trace cache)``, the cache is recorded once in the
parent, per-cell seeds are fixed in the specs, and results are collected
in submission order — so ``--jobs 8`` may only change wall-clock time,
never a verdict, a stat, or a fault draw.

Worker-side evaluation mirrors :func:`repro.analysis.degradation
.degradation_curve`'s per-point logic exactly (the rewired analysis entry
points delegate here), with one fast path: a cell whose fault plan cannot
fire replays through the batched
:func:`~repro.analysis.replay.replay` instead of the per-event injector
loop — parity between the two is covered by
``tests/unit/test_faults.py`` and ``tests/property/test_batch_parity.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Union

from repro.core.config import PIFTConfig
from repro.core.faults import FaultPlan, FaultRates, FaultStats
from repro.sweep.cache import TraceCache
from repro.sweep.specs import GridSpec, SweepCell, resolve_state_factory

ProgressCallback = Callable[["CellResult", int, int], None]


@dataclass
class CellResult:
    """Everything one cell produced.

    ``as_dict`` contains only the deterministic payload — verdicts,
    stats, fault draws — and is what serial-vs-parallel equality checks
    compare.  Timing fields (``duration_seconds``, ``worker``) vary run
    to run and are reported separately.
    """

    index: int
    config: PIFTConfig
    rate: float
    site: str
    seed: int
    state_spec: str
    report: Optional[object] = None  # AccuracyReport
    malware_detected: Optional[int] = None
    malware_total: Optional[int] = None
    #: Per-source attribution payload (SuiteAttribution.as_dict()) when
    #: the cell asked for colours; None otherwise.  Deterministic — the
    #: coloured replay registers colour bits in recorded instruction
    #: order — so it participates in serial-vs-parallel equality.
    colours: Optional[dict] = None
    fault_stats: FaultStats = field(default_factory=FaultStats)
    events_tracked: int = 0
    operations: int = 0
    duration_seconds: float = 0.0
    worker: int = 0

    @property
    def accuracy(self) -> Optional[float]:
        return self.report.accuracy if self.report is not None else None

    def as_dict(self) -> dict:
        payload: dict = {
            "index": self.index,
            "ni": self.config.window_size,
            "nt": self.config.max_propagations,
            "untainting": self.config.untainting,
            "vectorized": self.config.vectorized,
            "rate": self.rate,
            "site": self.site,
            "seed": self.seed,
            "state_spec": self.state_spec,
            "events_tracked": self.events_tracked,
            "operations": self.operations,
            "faults": self.fault_stats.as_dict(),
        }
        if self.report is not None:
            payload["accuracy"] = self.report.accuracy
            payload["report"] = self.report.as_dict()
        if self.malware_total is not None:
            payload["malware_detected"] = self.malware_detected
            payload["malware_total"] = self.malware_total
        if self.colours is not None:
            payload["colours"] = self.colours
        return payload


@dataclass
class SweepResult:
    """All cell results plus run-level engine accounting."""

    cells: List[CellResult]
    jobs: int
    wall_seconds: float
    #: Cells served from a resume journal instead of being evaluated
    #: (bookkeeping only — the deterministic payload is unaffected).
    resumed: int = 0
    #: Cells quarantined after exhausting their retry budget (queue
    #: backend only): explicit machine-readable holes in the grid, each
    #: ``{"index", "attempts", "error"}``.
    poisoned: List[dict] = field(default_factory=list)
    #: Queue-backend fault accounting (zeros under the pool backend).
    retries: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0

    def as_dict(self) -> dict:
        """Deterministic payload only (timings live in :meth:`timings`)."""
        return {
            "cells": [cell.as_dict() for cell in self.cells],
            "poisoned": list(self.poisoned),
        }

    def timings(self) -> dict:
        """Non-deterministic run accounting: wall clock and per-worker load."""
        per_worker: dict = {}
        for cell in self.cells:
            row = per_worker.setdefault(
                cell.worker, {"cells": 0, "events": 0, "busy_seconds": 0.0}
            )
            row["cells"] += 1
            row["events"] += cell.events_tracked
            row["busy_seconds"] += cell.duration_seconds
        for row in per_worker.values():
            row["events_per_second"] = (
                row["events"] / row["busy_seconds"]
                if row["busy_seconds"] > 0
                else 0.0
            )
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cells": len(self.cells),
            "resumed": self.resumed,
            "events_tracked": sum(c.events_tracked for c in self.cells),
            "workers": per_worker,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "poisoned": len(self.poisoned),
        }


def run_cell(
    cell: SweepCell, cache: TraceCache, telemetry=None
) -> CellResult:
    """Evaluate one cell against the cached recordings (pure, per-seed).

    ``telemetry`` instruments at **cell granularity** only: a
    ``sweep.cell`` span plus tracker counters derived from the replayed
    stats after the fact.  The hub is deliberately *not* passed into
    ``replay``/``faulted_replay``: a faulted replay feeds events one at
    a time through the fault injector, which emits a JSONL event per
    injection.
    """
    from contextlib import nullcontext

    from repro.analysis.accuracy import AccuracyReport
    from repro.analysis.degradation import _accumulate, faulted_replay
    from repro.analysis.replay import replay
    from repro.telemetry.hub import active

    tel = active(telemetry)
    started = time.perf_counter()
    state_factory = resolve_state_factory(cell.state_spec)
    plan = FaultPlan(
        seed=cell.seed, rates=cell.base_rates or FaultRates()
    ).with_rates(**{cell.site: cell.rate})
    result = CellResult(
        index=cell.index,
        config=cell.config,
        rate=cell.rate,
        site=cell.site,
        seed=cell.seed,
        state_spec=cell.state_spec,
    )

    def track(recorded):
        if plan.enabled:
            replayed, stats = faulted_replay(
                recorded, cell.config, plan, state_factory=state_factory
            )
        else:
            replayed = replay(recorded, cell.config, state_factory=state_factory)
            stats = None
        result.events_tracked += (
            replayed.stats.loads_observed + replayed.stats.stores_observed
        )
        result.operations += replayed.stats.total_operations
        if tel is not None:
            m = tel.metrics
            m.counter("tracker.loads").inc(replayed.stats.loads_observed)
            m.counter("tracker.stores").inc(replayed.stats.stores_observed)
            m.counter("tracker.events").inc(
                replayed.stats.loads_observed + replayed.stats.stores_observed
            )
            m.counter("tracker.taint_ops").inc(
                replayed.stats.taint_operations
            )
            m.counter("tracker.untaint_ops").inc(
                replayed.stats.untaint_operations
            )
        return replayed, stats

    span = (
        tel.span(
            "sweep.cell",
            cell_index=cell.index,
            ni=cell.config.window_size,
            nt=cell.config.max_propagations,
            rate=cell.rate,
            site=cell.site,
        )
        if tel is not None
        else nullcontext()
    )
    with span:
        if cell.droidbench:
            report = AccuracyReport()
            for app in cache.droidbench_runs():
                replayed, stats = track(app.recorded)
                if stats is not None:
                    _accumulate(result.fault_stats, stats)
                report.record(app.name, app.leaks, replayed.alarm)
            result.report = report
            if cell.colours:
                # Attribution pass: coloured replay over the pristine
                # recordings.  Fault plans apply to the *verdict* replay
                # above only — attribution answers "which source fed
                # this flow", a property of the recorded run, not of a
                # particular fault draw.
                from repro.analysis.provenance import attribute_suite

                result.colours = attribute_suite(
                    cache.droidbench_runs(), cell.config
                ).as_dict()
        if cell.malware:
            runs = cache.malware_runs()
            detected = 0
            for run in runs:
                replayed, stats = track(run.recorded)
                detected += int(replayed.alarm)
                if stats is not None and not cell.droidbench:
                    _accumulate(result.fault_stats, stats)
            result.malware_detected = detected
            result.malware_total = len(runs)
    result.duration_seconds = time.perf_counter() - started
    result.worker = os.getpid()
    return result


# -- pool plumbing -----------------------------------------------------------

_WORKER_CACHE: Optional[TraceCache] = None
_WORKER_TELEMETRY = None


def _init_worker(payload: dict, relay_payload: Optional[dict] = None) -> None:
    global _WORKER_CACHE, _WORKER_TELEMETRY
    _WORKER_TELEMETRY = None
    if relay_payload is not None:
        from repro.telemetry.relay import init_worker_telemetry

        _WORKER_TELEMETRY = init_worker_telemetry(relay_payload)
    _WORKER_CACHE = TraceCache.from_payload(
        payload, telemetry=_WORKER_TELEMETRY
    )


def _run_cell_in_worker(cell: SweepCell) -> CellResult:
    assert _WORKER_CACHE is not None, "worker initializer did not run"
    tel = _WORKER_TELEMETRY
    if tel is None:
        return run_cell(cell, _WORKER_CACHE)
    client = tel.relay_client
    client.current_cell = cell.index
    client.heartbeat()  # mark the cell busy before any work happens
    try:
        result = run_cell(cell, _WORKER_CACHE, telemetry=tel)
    finally:
        client.current_cell = None
    client.ship_snapshot(tel.metrics, cell.index)
    return result


def _pool_context() -> multiprocessing.context.BaseContext:
    method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    return multiprocessing.get_context(method)


class PoolBackend:
    """The classic ``multiprocessing.Pool`` execution backend.

    Fast and simple, but fragile: a worker dying mid-cell kills the
    sweep.  :class:`~repro.sweep.dispatch.QueueBackend` implements the
    same ``run(pending, cache_payload, note, relay_payload)`` interface
    with leases, retries, and poison-cell quarantine.
    """

    name = "pool"

    def __init__(self, jobs: int, chunksize: int = 1, context=None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.chunksize = chunksize
        self.context = context if context is not None else _pool_context()

    def run(
        self, pending, cache_payload, note, relay_payload=None
    ) -> None:
        pending = list(pending)
        with self.context.Pool(
            processes=min(self.jobs, len(pending)),
            initializer=_init_worker,
            initargs=(cache_payload, relay_payload),
        ) as pool:
            for result in pool.imap(
                _run_cell_in_worker, pending, chunksize=self.chunksize
            ):
                note(result)


def _resolve_backend(backend, jobs: int, chunksize: int, backend_options):
    """Turn ``backend`` (None / name / instance) into a backend object."""
    if backend is None or backend == "pool":
        if backend_options:
            raise ValueError(
                "backend_options only apply to the queue backend; "
                "pass backend='queue'"
            )
        return PoolBackend(jobs=jobs, chunksize=chunksize)
    if backend == "queue":
        from repro.sweep.dispatch import QueueBackend

        return QueueBackend(jobs=jobs, **(backend_options or {}))
    if hasattr(backend, "run"):
        return backend
    raise ValueError(
        f"unknown sweep backend {backend!r}; known: 'pool', 'queue'"
    )


def _wire_queue_hooks(backend, journal, telemetry) -> None:
    """Attach journaling + telemetry observers to a queue backend.

    Composes with (rather than clobbers) hooks the caller already set on
    a hand-built :class:`~repro.sweep.dispatch.QueueBackend`.  Counters
    are created lazily at first increment so fault-free runs expose the
    same metric set as the pool backend.
    """
    user_retry = backend.on_retry
    user_poison = backend.on_poison
    user_death = backend.on_death
    observing = telemetry is not None and telemetry.enabled

    def on_retry(cell_index: int, attempt: int, reason: str) -> None:
        if journal is not None:
            journal.append_attempt(cell_index, attempt, reason)
        if observing:
            telemetry.metrics.counter(
                "sweep.cell.retries",
                "cell attempts requeued after a lost worker or error",
            ).inc()
            telemetry.event(
                "sweep_cell_retry",
                index=cell_index,
                attempt=attempt,
                reason=reason,
            )
        if user_retry is not None:
            user_retry(cell_index, attempt, reason)

    def on_poison(poisoned) -> None:
        if journal is not None:
            journal.append_poison(
                poisoned.cell_index, poisoned.attempts, poisoned.error
            )
        if observing:
            telemetry.metrics.counter(
                "sweep.cells.poisoned",
                "cells quarantined after exhausting their retry budget",
            ).inc()
            telemetry.event(
                "sweep_cell_poisoned",
                index=poisoned.cell_index,
                attempts=poisoned.attempts,
                error=poisoned.error,
            )
        if user_poison is not None:
            user_poison(poisoned)

    def on_death(ident: int, pid) -> None:
        if observing:
            telemetry.metrics.counter(
                "sweep.worker.deaths", "worker processes lost mid-sweep"
            ).inc()
            telemetry.event("sweep_worker_death", worker=ident, pid=pid)
        if user_death is not None:
            user_death(ident, pid)

    backend.on_retry = on_retry
    backend.on_poison = on_poison
    backend.on_death = on_death


class _EngineInstruments:
    """Parent-side telemetry for a sweep run.

    Workers report back through :class:`repro.telemetry.relay
    .TelemetryRelay` when one is attached; these instruments cover what
    only the parent sees (completion order, journal resume, run wall
    time).  Per-cell durations land twice: once in the aggregate
    ``sweep.cell.duration_seconds`` histogram and once in a
    ``worker_id``-labelled series per worker process.
    """

    _CELL_DURATION_HELP = "per-cell evaluation wall time"

    def __init__(self, telemetry) -> None:
        m = telemetry.metrics
        self.telemetry = telemetry
        self.cells = m.counter("sweep.cells", "sweep cells completed")
        self.events = m.counter(
            "sweep.events_tracked", "events re-tracked across all cells"
        )
        self.cell_duration = m.histogram(
            "sweep.cell.duration_seconds", self._CELL_DURATION_HELP
        )
        self.workers = m.gauge("sweep.jobs", "worker processes in use")
        self.resumed = m.counter(
            "sweep.resumed_cells", "cells served from a resume journal"
        )

    def observe_cell(self, result: "CellResult") -> None:
        self.cell_duration.observe(result.duration_seconds)
        self.telemetry.metrics.histogram(
            "sweep.cell.duration_seconds",
            self._CELL_DURATION_HELP,
            labels={"worker_id": str(result.worker)},
        ).observe(result.duration_seconds)


def run_sweep(
    work: Union[GridSpec, Iterable[SweepCell]],
    cache: Optional[TraceCache] = None,
    jobs: int = 1,
    telemetry=None,
    progress: Optional[ProgressCallback] = None,
    chunksize: int = 1,
    journal=None,
    stall_timeout: Optional[float] = None,
    on_stall=None,
    heartbeat_interval: Optional[float] = None,
    backend=None,
    backend_options: Optional[dict] = None,
) -> SweepResult:
    """Evaluate every cell of ``work``; identical results at any ``jobs``.

    The trace cache is primed (suites recorded, replay plans built) in
    the parent before any worker exists, then shipped to workers once via
    the pool initializer.  Results stream back in submission order, so
    ``progress`` / telemetry see cells as they finish and the returned
    list is deterministically ordered.

    With a ``journal`` (:class:`repro.store.RunJournal`) every finished
    cell is checkpointed — flushed and fsync'd — before it is reported,
    and cells the journal already holds are *not* re-evaluated: their
    recorded results splice back in at their grid positions, so a
    killed-then-resumed run returns a result bit-identical to an
    uninterrupted one.  The journal must have been created for this
    exact grid (fingerprint-checked; :class:`repro.store.JournalError`
    otherwise).

    With telemetry enabled and ``jobs > 1``, a
    :class:`~repro.telemetry.relay.TelemetryRelay` is attached: every
    worker gets its own hub whose spans and metric deltas ship back over
    a queue and merge here with ``worker_id``/``cell_index``
    attribution.  ``stall_timeout`` arms the relay's straggler detector:
    a worker quiet for longer than that many seconds mid-cell raises a
    ``worker_stall`` telemetry event and calls ``on_stall(worker_id,
    cell_index, quiet_seconds)``.  ``heartbeat_interval`` overrides the
    worker liveness cadence.  All of it is observational — results stay
    bit-identical to a telemetry-off run.

    ``backend`` selects the parallel execution strategy: ``"pool"`` (the
    default ``multiprocessing.Pool``), ``"queue"`` (the fault-tolerant
    lease dispatcher, :class:`~repro.sweep.dispatch.QueueBackend` —
    tune it via ``backend_options``, e.g. ``{"lease_timeout": 10.0,
    "max_retries": 2}``), or a pre-built backend instance.  Under the
    queue backend a cell that exhausts its retry budget is quarantined
    instead of crashing the sweep: it appears in ``SweepResult.poisoned``
    (and the journal) and its slot is simply absent from ``cells``.
    Because cells are pure, any surviving grid is still bit-identical to
    a fault-free run's values at those indexes.
    """
    cells = list(work.cells() if isinstance(work, GridSpec) else work)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if len({cell.index for cell in cells}) != len(cells):
        raise ValueError("cell indexes must be unique within one sweep")
    done = {}
    if journal is not None:
        journal.check_matches(cells)
        done = journal.completed_results()
    pending = [cell for cell in cells if cell.index not in done]
    cache = cache or TraceCache()
    if pending:
        # A fully-journaled grid needs no recordings at all.
        cache.prime(
            droidbench=any(c.droidbench for c in pending),
            malware=any(c.malware for c in pending),
        )
        cache.prime_replay_state()
    instruments = None
    if telemetry is not None and telemetry.enabled:
        instruments = _EngineInstruments(telemetry)
        instruments.workers.set(jobs)
        if done:
            instruments.resumed.inc(len(done))
    started = time.perf_counter()
    finished = 0

    def note(result: CellResult) -> None:
        nonlocal finished
        if journal is not None:
            journal.append(result)
        done[result.index] = result
        finished += 1
        if instruments is not None:
            instruments.cells.inc()
            instruments.events.inc(result.events_tracked)
            instruments.observe_cell(result)
            instruments.telemetry.event(
                "sweep_cell",
                index=result.index,
                ni=result.config.window_size,
                nt=result.config.max_propagations,
                rate=result.rate,
                accuracy=result.accuracy,
                events=result.events_tracked,
                worker=result.worker,
                duration_us=round(result.duration_seconds * 1e6, 3),
            )
        if progress is not None:
            progress(result, len(done), len(cells))

    exec_backend = None
    if pending and (backend is not None or (jobs > 1 and len(pending) > 1)):
        exec_backend = _resolve_backend(backend, jobs, chunksize, backend_options)
    dispatch_stats = None
    if exec_backend is not None:
        is_queue = hasattr(exec_backend, "renew_lease_by_pid")
        if is_queue:
            _wire_queue_hooks(exec_backend, journal, telemetry)
        relay = None
        relay_payload = None
        if instruments is not None:
            from repro.telemetry.relay import TelemetryRelay

            relay_kwargs = {
                "stall_timeout": stall_timeout,
                "on_stall": on_stall,
            }
            if heartbeat_interval is not None:
                relay_kwargs["heartbeat_interval"] = heartbeat_interval
            if is_queue:
                # Relay heartbeats double as lease renewals: a worker
                # deep in a long cell stays leased as long as it keeps
                # talking to the telemetry relay.
                relay_kwargs["on_heartbeat"] = exec_backend.renew_lease_by_pid
            relay = TelemetryRelay(
                telemetry, exec_backend.context, **relay_kwargs
            )
            relay_payload = relay.worker_payload()
            relay.start()
        try:
            dispatch_stats = exec_backend.run(
                pending, cache.payload(), note, relay_payload
            )
        finally:
            if relay is not None:
                relay.stop()
    else:
        for cell in pending:
            note(run_cell(cell, cache, telemetry=telemetry))
    wall = time.perf_counter() - started
    poisoned_dicts: List[dict] = []
    retries = worker_deaths = worker_restarts = 0
    if dispatch_stats is not None:
        poisoned_dicts = [p.as_dict() for p in dispatch_stats.poisoned]
        retries = dispatch_stats.retries
        worker_deaths = dispatch_stats.worker_deaths
        worker_restarts = dispatch_stats.worker_restarts
    if instruments is not None:
        instruments.telemetry.event(
            "sweep_done",
            cells=finished,
            resumed=len(cells) - len(pending),
            jobs=jobs,
            duration_us=round(wall * 1e6, 3),
        )
    return SweepResult(
        cells=[done[cell.index] for cell in cells if cell.index in done],
        jobs=jobs,
        wall_seconds=wall,
        resumed=len(cells) - len(pending),
        poisoned=poisoned_dicts,
        retries=retries,
        worker_deaths=worker_deaths,
        worker_restarts=worker_restarts,
    )
