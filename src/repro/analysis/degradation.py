"""Graceful-degradation analysis: PIFT accuracy under injected faults.

The paper's evaluation assumes a lossless event path; this module asks
the robustness question a hardware deployment actually faces: *how does
detection accuracy decay when the load/store stream is lossy, reordered,
corrupted, or the taint storage misbehaves?*  A :class:`~repro.core
.faults.FaultPlan` perturbs recorded runs deterministically, so the
whole sweep is replayable bit-for-bit:

* :func:`faulted_replay` — one recorded run, one config, one plan;
* :func:`degradation_curve` — DroidBench accuracy (and/or malware
  detections) as a function of a fault rate, sweeping one fault site;
* :func:`degradation_grid` — the same curve across several ``(NI, NT)``
  cells;
* :func:`detection_latency_table` — the buffered design point under
  loss: how late are detections, and how many leaks are missed outright,
  per overflow policy and fault rate.

Because fault draws are coupled across rates (common random numbers —
see :mod:`repro.core.faults`), the event set lost at a lower rate is a
subset of the set lost at a higher rate, which keeps the curves smooth
and (empirically) monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.buffered import BufferedPIFT
from repro.core.config import OverflowPolicy, PIFTConfig
from repro.core.faults import FaultPlan, FaultRates, FaultStats
from repro.core.ranges import RangeSet
from repro.core.tracker import PIFTTracker, StateFactory
from repro.android.device import RecordedRun
from repro.analysis.accuracy import AccuracyReport, AppRun
from repro.analysis.replay import ReplayResult, SinkOutcome, replay

#: The loss rates the acceptance sweep runs (log-spaced, plus zero).
DEFAULT_RATES: Tuple[float, ...] = (0.0, 1e-4, 1e-3, 1e-2, 1e-1)


def faulted_replay(
    recorded: RecordedRun,
    config: PIFTConfig,
    plan: FaultPlan,
    state_factory: StateFactory = RangeSet,
    telemetry=None,
) -> Tuple[ReplayResult, FaultStats]:
    """Replay a recorded run with the event stream fed through a fault plan.

    Source registrations and sink checks fire at their *recorded*
    instruction indices and PIDs — the software stack's view is pristine;
    only the hardware event stream between the front end and the tracker
    is perturbed, which is where the fault sites physically live.
    """
    tracker = PIFTTracker(config, state_factory=state_factory, telemetry=telemetry)
    injector = plan.injector(telemetry=telemetry)
    result = ReplayResult(config=config, stats=tracker.stats)
    sources = sorted(recorded.sources, key=lambda s: s.instruction_index)
    checks = sorted(recorded.sink_checks, key=lambda c: c.instruction_index)
    source_i = 0
    check_i = 0

    def drain_pending(upto_index: int) -> None:
        nonlocal source_i, check_i
        while (
            source_i < len(sources)
            and sources[source_i].instruction_index <= upto_index
        ):
            source = sources[source_i]
            tracker.taint_source(source.address_range, pid=source.pid)
            source_i += 1
        while (
            check_i < len(checks)
            and checks[check_i].instruction_index <= upto_index
        ):
            check = checks[check_i]
            result.sink_outcomes.append(
                SinkOutcome(
                    sink_name=check.sink_name,
                    channel=check.channel,
                    instruction_index=check.instruction_index,
                    tainted=tracker.check(check.address_range, pid=check.pid),
                    pid=check.pid,
                )
            )
            check_i += 1

    for event in recorded.trace:
        drain_pending(event.instruction_index)
        for delivered in injector.feed(event):
            tracker.observe(delivered)
            injector.state_faults(tracker, delivered.pid)
    for delivered in injector.flush():
        tracker.observe(delivered)
        injector.state_faults(tracker, delivered.pid)
    drain_pending(recorded.instruction_count)
    return result, injector.stats


_STAT_FIELDS = (
    "events_seen", "events_dropped", "events_duplicated",
    "events_reordered", "addresses_corrupted",
    "state_entries_dropped", "eviction_storms",
    "stall_events", "stall_cycles",
)


def _accumulate(total: FaultStats, stats: FaultStats) -> None:
    for name in _STAT_FIELDS:
        setattr(total, name, getattr(total, name) + getattr(stats, name))


def evaluate_suite_with_faults(
    apps: Sequence[AppRun], config: PIFTConfig, plan: FaultPlan
) -> Tuple[AccuracyReport, FaultStats]:
    """Confusion matrix over a suite with every replay under one plan.

    Each app gets a *fresh* injector from the same plan, so per-app
    perturbations are independent of suite order.  The returned
    :class:`FaultStats` aggregates all apps.
    """
    report = AccuracyReport()
    total = FaultStats()
    for app in apps:
        result, stats = faulted_replay(app.recorded, config, plan)
        _accumulate(total, stats)
        report.record(app.name, app.leaks, result.alarm)
    return report, total


def record_malware_runs(work: int = 16, config: Optional[PIFTConfig] = None) -> List[AppRun]:
    """Record all seven malware samples once for offline faulted replays."""
    from repro.core.config import PAPER_MALWARE_MINIMUM
    from repro.apps.malware.samples import SAMPLES, run_sample

    runs: List[AppRun] = []
    for sample in SAMPLES:
        device = run_sample(sample, config=config or PAPER_MALWARE_MINIMUM, work=work)
        runs.append(
            AppRun(
                name=sample.name,
                recorded=device.recorded,
                leaks=True,
                category=sample.kind,
            )
        )
    return runs


def degradation_cells(
    apps: Sequence[AppRun],
    config: PIFTConfig,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 1,
    site: str = "event_loss",
    base_rates: Optional[FaultRates] = None,
    malware_runs: Optional[Sequence[AppRun]] = None,
) -> List:
    """The exact sweep cells :func:`degradation_curve` evaluates.

    Exposed separately so a caller that journals the run (the ``faults``
    CLI with ``--store``) can fingerprint the same cells the curve will
    submit — the journal's grid check then binds resume to this precise
    parameterisation.
    """
    from repro.sweep import SweepCell

    return [
        SweepCell(
            index=index,
            config=config,
            rate=rate,
            site=site,
            seed=seed,
            base_rates=base_rates,
            droidbench=bool(apps),
            malware=bool(malware_runs),
        )
        for index, rate in enumerate(rates)
    ]


@dataclass
class DegradationPoint:
    """One cell of a degradation curve: a fault rate and what it cost."""

    rate: float
    config: PIFTConfig
    report: Optional[AccuracyReport] = None
    malware_detected: Optional[int] = None
    malware_total: Optional[int] = None
    fault_stats: FaultStats = field(default_factory=FaultStats)

    @property
    def accuracy(self) -> Optional[float]:
        return self.report.accuracy if self.report is not None else None

    def as_dict(self) -> dict:
        payload: dict = {
            "rate": self.rate,
            "ni": self.config.window_size,
            "nt": self.config.max_propagations,
            "faults": self.fault_stats.as_dict(),
        }
        if self.report is not None:
            payload["accuracy"] = self.report.accuracy
            payload["report"] = self.report.as_dict()
        if self.malware_total is not None:
            payload["malware_detected"] = self.malware_detected
            payload["malware_total"] = self.malware_total
        return payload


@dataclass
class DegradationCurve:
    """Accuracy (and/or malware detections) as a function of a fault rate."""

    config: PIFTConfig
    site: str
    seed: int
    points: List[DegradationPoint] = field(default_factory=list)

    def accuracy_non_increasing(self, tolerance: float = 0.0) -> bool:
        """True when accuracy never *rises* as the fault rate grows."""
        values = [p.accuracy for p in self.points if p.accuracy is not None]
        return all(
            later <= earlier + tolerance
            for earlier, later in zip(values, values[1:])
        )

    def malware_non_increasing(self) -> bool:
        values = [
            p.malware_detected
            for p in self.points
            if p.malware_detected is not None
        ]
        return all(b <= a for a, b in zip(values, values[1:]))

    def as_dict(self) -> dict:
        return {
            "ni": self.config.window_size,
            "nt": self.config.max_propagations,
            "untainting": self.config.untainting,
            "site": self.site,
            "seed": self.seed,
            "points": [point.as_dict() for point in self.points],
        }


def degradation_curve(
    apps: Sequence[AppRun],
    config: PIFTConfig,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 1,
    site: str = "event_loss",
    base_rates: Optional[FaultRates] = None,
    malware_runs: Optional[Sequence[AppRun]] = None,
    jobs: int = 1,
    telemetry=None,
    progress=None,
    cache=None,
    journal=None,
    stall_timeout: Optional[float] = None,
    on_stall=None,
) -> DegradationCurve:
    """Sweep one fault site's rate; evaluate the suite at each point.

    ``site`` names any rate field of :class:`FaultRates` (``event_loss``
    by default); ``base_rates`` seeds the other sites (all-zero when
    omitted).  When ``malware_runs`` is given, each point also counts how
    many of those (all-leaky) runs still raise an alarm.

    Points are evaluated by the :mod:`repro.sweep` engine — pass
    ``jobs > 1`` to fan rates across worker processes; results are
    identical at any worker count.  (A zero-rate point replays through
    the batched fast path instead of the fault injector, so its
    ``fault_stats`` report zero events seen — injections are impossible
    at rate 0 either way.)

    ``cache`` overrides the internally-built :class:`TraceCache` (the
    CLI passes a store-backed one so recordings persist across
    invocations); ``journal`` (:class:`repro.store.RunJournal`)
    checkpoints each point and resumes a killed sweep; ``stall_timeout``
    / ``on_stall`` arm the telemetry relay's straggler detector — all
    forwarded to :func:`repro.sweep.run_sweep`.
    """
    from repro.sweep import TraceCache, run_sweep

    cells = degradation_cells(
        apps, config, rates=rates, seed=seed, site=site,
        base_rates=base_rates, malware_runs=malware_runs,
    )
    if cache is None:
        cache = TraceCache(
            droidbench=list(apps) if apps else None,
            malware=list(malware_runs) if malware_runs else None,
        )
    result = run_sweep(
        cells, cache=cache, jobs=jobs, telemetry=telemetry,
        progress=progress, journal=journal,
        stall_timeout=stall_timeout, on_stall=on_stall,
    )
    curve = DegradationCurve(config=config, site=site, seed=seed)
    for cell in result.cells:
        curve.points.append(
            DegradationPoint(
                rate=cell.rate,
                config=config,
                report=cell.report,
                malware_detected=cell.malware_detected,
                malware_total=cell.malware_total,
                fault_stats=cell.fault_stats,
            )
        )
    return curve


def degradation_grid(
    apps: Sequence[AppRun],
    configs: Sequence[PIFTConfig],
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 1,
    site: str = "event_loss",
    jobs: int = 1,
    telemetry=None,
) -> Dict[Tuple[int, int], DegradationCurve]:
    """One degradation curve per ``(NI, NT)`` cell.

    The whole ``configs × rates`` product is flattened into a single
    sweep, so ``jobs`` parallelises across cells of *all* curves at once.
    """
    from repro.sweep import SweepCell, TraceCache, run_sweep

    configs = list(configs)
    rates = list(rates)
    cells = [
        SweepCell(
            index=index,
            config=config,
            rate=rate,
            site=site,
            seed=seed,
        )
        for index, (config, rate) in enumerate(
            (config, rate) for config in configs for rate in rates
        )
    ]
    result = run_sweep(
        cells, cache=TraceCache(droidbench=list(apps)), jobs=jobs,
        telemetry=telemetry,
    )
    grid: Dict[Tuple[int, int], DegradationCurve] = {}
    for position, config in enumerate(configs):
        curve = DegradationCurve(config=config, site=site, seed=seed)
        for cell in result.cells[
            position * len(rates):(position + 1) * len(rates)
        ]:
            curve.points.append(
                DegradationPoint(
                    rate=cell.rate,
                    config=config,
                    report=cell.report,
                    fault_stats=cell.fault_stats,
                )
            )
        grid[(config.window_size, config.max_propagations)] = curve
    return grid


@dataclass
class LatencyRow:
    """Detection latency of the buffered design point at one fault rate."""

    rate: float
    policy: str
    oracle_positives: int  # sink checks tainted in the fault-free replay
    immediate_positives: int  # answered tainted at check time
    late_detections: int  # caught at a later drain (stale negatives)
    missed: int  # oracle-positive checks never reported at all
    mean_events_behind: float
    max_events_behind: int
    forced_drops: int
    degraded_checks: int

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "policy": self.policy,
            "oracle_positives": self.oracle_positives,
            "immediate_positives": self.immediate_positives,
            "late_detections": self.late_detections,
            "missed": self.missed,
            "mean_events_behind": self.mean_events_behind,
            "max_events_behind": self.max_events_behind,
            "forced_drops": self.forced_drops,
            "degraded_checks": self.degraded_checks,
        }


def detection_latency_table(
    recorded: RecordedRun,
    config: PIFTConfig,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 1,
    site: str = "event_loss",
    base_rates: Optional[FaultRates] = None,
    policy: OverflowPolicy = OverflowPolicy.BLOCK,
    capacity: int = 256,
    drain_batch: int = 64,
) -> List[LatencyRow]:
    """Detection-latency-under-loss for one recorded run (paper §1 trade).

    The run is replayed through :class:`BufferedPIFT` with immediate
    (detection-semantics) sink checks; the fault-free :func:`replay`
    serves as the oracle for which checks *should* be positive.  Late
    detections' ``events_behind`` is the latency; oracle positives that
    neither the immediate answer nor a late detection report are counted
    as missed.
    """
    oracle = replay(recorded, config)
    oracle_positives = sum(1 for o in oracle.sink_outcomes if o.tainted)
    sources = sorted(recorded.sources, key=lambda s: s.instruction_index)
    checks = sorted(recorded.sink_checks, key=lambda c: c.instruction_index)
    rows: List[LatencyRow] = []
    for rate in rates:
        plan = FaultPlan(
            seed=seed, rates=base_rates or FaultRates()
        ).with_rates(**{site: rate})
        buffered = BufferedPIFT(
            config,
            capacity=capacity,
            drain_batch=drain_batch,
            policy=policy,
            faults=plan if plan.enabled else None,
        )
        source_i = check_i = 0
        immediate_positives = 0

        def drain_pending(upto_index: int) -> None:
            nonlocal source_i, check_i, immediate_positives
            while (
                source_i < len(sources)
                and sources[source_i].instruction_index <= upto_index
            ):
                source = sources[source_i]
                buffered.taint_source(source.address_range, pid=source.pid)
                source_i += 1
            while (
                check_i < len(checks)
                and checks[check_i].instruction_index <= upto_index
            ):
                check = checks[check_i]
                verdict = buffered.check_immediate_verdict(
                    check.address_range, pid=check.pid,
                    sink_name=check.sink_name,
                )
                immediate_positives += int(verdict.tainted)
                check_i += 1

        # Feed the trace in column slices that end just before the next
        # event reaching a pending source or check: inside a slice the
        # per-event drain_pending calls would all be no-ops.
        columns = recorded.trace.columns()
        indices = columns.indices
        position = 0
        while position < len(indices):
            drain_pending(indices[position])
            barrier = min(
                sources[source_i].instruction_index
                if source_i < len(sources) else math.inf,
                checks[check_i].instruction_index
                if check_i < len(checks) else math.inf,
            )
            stop = position + 1
            while stop < len(indices) and indices[stop] < barrier:
                stop += 1
            buffered.on_columns(columns, position, stop)
            position = stop
        buffered.drain_all()
        drain_pending(recorded.instruction_count)
        buffered.drain_all()

        behind = [late.events_behind for late in buffered.late_detections]
        rows.append(
            LatencyRow(
                rate=rate,
                policy=policy.value,
                oracle_positives=oracle_positives,
                immediate_positives=immediate_positives,
                late_detections=len(behind),
                missed=max(
                    0, oracle_positives - immediate_positives - len(behind)
                ),
                mean_events_behind=(
                    sum(behind) / len(behind) if behind else 0.0
                ),
                max_events_behind=max(behind) if behind else 0,
                forced_drops=buffered.stats.forced_drops,
                degraded_checks=buffered.stats.degraded_checks,
            )
        )
    return rows
