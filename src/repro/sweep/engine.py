"""The parallel experiment engine: evaluate sweep cells inline or across
worker processes.

``run_sweep`` takes an iterable of :class:`~repro.sweep.specs.SweepCell`
(or a :class:`~repro.sweep.specs.GridSpec`) and evaluates every cell,
either inline (``jobs=1``) or across the lease dispatcher
(:class:`~repro.sweep.dispatch.QueueBackend`, ``jobs > 1``), which
survives worker deaths.  The contract is *bit-identical results at any
worker count*: cells are pure functions of ``(cell, trace cache)``, the
cache is recorded once in the parent, per-cell seeds are fixed in the
specs, and results are returned in submission order — so ``--jobs 8``
may only change wall-clock time, never a verdict, a stat, or a fault
draw.  Cells are *evaluated* by falling ``(NI, NT)``, inline and in the
dispatcher's lease order, so the journal, ``progress`` callbacks and
``sweep_cell`` events follow that order, not the submission order.

Worker-side evaluation mirrors :func:`repro.analysis.degradation
.degradation_curve`'s per-point logic exactly (the rewired analysis entry
points delegate here), with two fast paths: a cell whose fault plan
cannot fire replays through the batched
:func:`~repro.analysis.replay.replay` instead of the per-event injector
loop — parity between the two is covered by
``tests/unit/test_faults.py`` and ``tests/property/test_batch_parity.py``
— and such a replay is skipped altogether when a :class:`ReplayTable`
already holds one whose decision box covers the cell's ``(NI, NT)``.
A box reaches from its replay's ``(NI, NT)`` down in ``NI`` and down in
``NT`` (up as well, when the cap never bound), which is why cells are
evaluated by falling ``(NI, NT)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.config import PIFTConfig
from repro.core.faults import FaultPlan, FaultRates, FaultStats
from repro.sweep.cache import TraceCache
from repro.sweep.dispatch import DispatchError, DispatchStats, QueueBackend
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
    #: Replays this cell took from its sweep's :class:`ReplayTable`
    #: instead of running.  Timing bookkeeping, like
    #: ``duration_seconds``: it depends on which cells the same worker
    #: evaluated first, never on the cell's payload.
    replays_reused: int = 0

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
    #: Cells quarantined after exhausting their retry budget (``jobs >
    #: 1`` only): explicit machine-readable holes in the grid, each
    #: ``{"index", "attempts", "error"}``.
    poisoned: List[dict] = field(default_factory=list)
    #: Dispatcher fault accounting (zeros when run inline).
    retries: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0

    def complete_cells(self) -> List[CellResult]:
        """:attr:`cells`, for callers that read them by grid position.

        A poisoned cell is a hole such a caller would silently misread
        (a shifted slice, a zero, a missing point), so any poisoning
        raises :class:`~repro.sweep.dispatch.DispatchError` instead.
        """
        if self.poisoned:
            raise DispatchError(
                "sweep cell {index} poisoned after {attempts} attempts: "
                "{error}".format(**self.poisoned[0])
            )
        return self.cells

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
            "replays_reused": sum(c.replays_reused for c in self.cells),
            "workers": per_worker,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "poisoned": len(self.poisoned),
        }


class ReplayTable:
    """One sweep's fault-free replays, each with the ``(NI, NT)`` box its
    store decisions hold over (:meth:`~repro.core.tracker.PIFTTracker
    .decision_box`).

    Rows are keyed by the recorded run, the config's other fields
    (``untainting``, ``vectorized``) and the ``state_spec``.  Inside a
    row's box the replay's sink outcomes and stats repeat exactly, so
    :meth:`replay` answers any config there from the row instead of
    replaying.  Every cell answered from a row shares its result
    object, so callers only read it.  :func:`run_sweep` keeps one table
    per call: one for the inline loop, one per dispatcher worker.
    """

    def __init__(self) -> None:
        # key -> (the recorded run, so its id stays its own; the rows)
        self._rows: Dict[tuple, Tuple[object, list]] = {}

    def replay(self, recorded, config: PIFTConfig, state_spec: str,
               state_factory) -> Tuple[object, bool]:
        """``(ReplayResult, reused)`` for ``recorded`` under ``config``."""
        from repro.analysis.replay import replay

        key = (id(recorded), config.untainting, config.vectorized, state_spec)
        held = self._rows.setdefault(key, (recorded, []))
        for result in held[1]:
            if result.box.contains(config):
                return result, True
        result = replay(recorded, config, state_factory=state_factory)
        held[1].append(result)
        return result, False


def run_cell(
    cell: SweepCell, cache: TraceCache, telemetry=None,
    replays: Optional[ReplayTable] = None,
) -> CellResult:
    """Evaluate one cell against the cached recordings (pure, per-seed).

    A fault-free replay comes from ``replays`` (a fresh table when
    ``None``) when a row's box covers the cell; faulted replays and the
    colour attribution pass always run.  Either way the cell's
    :meth:`CellResult.as_dict` is the same.

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
    from repro.telemetry.hub import active

    tel = active(telemetry)
    started = time.perf_counter()
    if replays is None:
        replays = ReplayTable()
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

    faulted = plan.enabled

    def track(recorded):
        if faulted:
            replayed, stats = faulted_replay(
                recorded, cell.config, plan, state_factory=state_factory
            )
        else:
            replayed, reused = replays.replay(
                recorded, cell.config, cell.state_spec, state_factory
            )
            result.replays_reused += reused
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


def _dispatch_hooks(journal, telemetry) -> dict:
    """The dispatcher's observer callbacks for one sweep.

    Retries and poisoned cells go to the journal; with telemetry on,
    retries, poisonings and worker deaths are also counted and logged.
    Counters are created lazily at first increment, so a fault-free run
    exposes the same metric set as an inline one.
    """
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

    def on_death(ident: int, pid) -> None:
        if observing:
            telemetry.metrics.counter(
                "sweep.worker.deaths", "worker processes lost mid-sweep"
            ).inc()
            telemetry.event("sweep_worker_death", worker=ident, pid=pid)

    return {"on_retry": on_retry, "on_poison": on_poison, "on_death": on_death}


class _EngineInstruments:
    """Parent-side telemetry for a sweep run.

    Dispatcher workers' own telemetry merges through
    :func:`repro.telemetry.relay.merge_worker_telemetry`; these
    instruments cover what only the parent sees (completion order,
    journal resume, run wall time).  Per-cell durations land twice: once in the aggregate
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
    journal=None,
    stall_timeout: Optional[float] = None,
    on_stall=None,
    backend_options: Optional[dict] = None,
) -> SweepResult:
    """Evaluate every cell of ``work``; identical results at any ``jobs``.

    At ``jobs=1`` the cells run inline.  At ``jobs > 1`` they run on the
    lease dispatcher (:class:`~repro.sweep.dispatch.QueueBackend`): the
    trace cache is primed (suites recorded, replay plans built) in the
    parent before any worker exists and shipped to each worker once; a
    worker that dies or goes quiet loses its lease, and its cell is
    retried on a replacement.  ``backend_options`` are the dispatcher's
    keyword arguments, e.g. ``{"lease_timeout": 10.0, "max_retries":
    2}`` or a ``chaos`` plan; passing any (or ``stall_timeout``) at
    ``jobs=1`` raises :class:`ValueError`, since no dispatcher runs
    there.  A cell that
    exhausts its retry budget is quarantined instead of crashing the
    sweep: it appears in ``SweepResult.poisoned`` (and the journal) and
    its slot is simply absent from ``cells``.  Because cells are pure,
    any surviving grid is still bit-identical to a fault-free run's
    values at those indexes, and the returned list is in submission
    order whatever order cells finish in.

    Cells are evaluated by falling ``(NI, NT)`` (a stable sort, so equal
    points keep submission order), inline and in the dispatcher's lease
    order: a replay's decision box reaches only downward from its own
    point, so each cell then comes after every cell that dominates it in
    both axes and reuses its replays.  Journal lines, ``progress`` calls
    and ``sweep_cell`` events follow evaluation order (at ``jobs > 1``,
    completion order); no payload depends on it.

    With a ``journal`` (:class:`repro.store.RunJournal`) every finished
    cell is checkpointed — flushed and fsync'd — before it is reported,
    and cells the journal already holds are *not* re-evaluated: their
    recorded results splice back in at their grid positions, so a
    killed-then-resumed run returns a result bit-identical to an
    uninterrupted one.  The journal must have been created for this
    exact grid (fingerprint-checked; :class:`repro.store.JournalError`
    otherwise).

    With telemetry enabled and ``jobs > 1``, every dispatcher worker
    gets its own hub whose spans and metric deltas ride each cell's
    result over the worker's pipe and merge here with ``worker_id``/
    ``cell_index`` attribution.  ``stall_timeout`` has the dispatcher
    report a leased worker quiet for longer than that many seconds: a
    ``worker_stall`` telemetry event (with a hub) and a call to
    ``on_stall(worker_id, cell_index, quiet_seconds)``.  All of it is
    observational — results stay bit-identical to a telemetry-off run.
    """
    cells = list(work.cells() if isinstance(work, GridSpec) else work)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    dispatcher_only = sorted(backend_options or {}) + (
        ["stall_timeout"] if stall_timeout is not None else []
    )
    if dispatcher_only and jobs == 1:
        raise ValueError(
            f"{dispatcher_only} configure the worker dispatcher, which "
            "runs only at jobs > 1"
        )
    if len({cell.index for cell in cells}) != len(cells):
        raise ValueError("cell indexes must be unique within one sweep")
    done = {}
    if journal is not None:
        journal.check_matches(cells)
        done = journal.completed_results()
    # Evaluation order, falling (NI, NT): each replay's decision box is
    # then in the table before the cells it covers.
    pending = sorted(
        (cell for cell in cells if cell.index not in done),
        key=lambda cell: (-cell.config.window_size,
                          -cell.config.max_propagations),
    )
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

    stats = DispatchStats()
    if jobs > 1 and pending:
        backend = QueueBackend(
            jobs=jobs,
            stall_timeout=stall_timeout,
            telemetry=telemetry,
            on_stall=on_stall,
            **_dispatch_hooks(journal, telemetry),
            **(backend_options or {}),
        )
        stats = backend.run(pending, cache.payload(), note)
    else:
        replays = ReplayTable()
        for cell in pending:
            note(run_cell(cell, cache, telemetry=telemetry, replays=replays))
    wall = time.perf_counter() - started
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
        poisoned=[poisoned.as_dict() for poisoned in stats.poisoned],
        retries=stats.retries,
        worker_deaths=stats.worker_deaths,
        worker_restarts=stats.worker_restarts,
    )
