"""Offline replay: re-run a recorded execution under any PIFT configuration.

The paper's methodology (§5): app executions are traced once on the
simulator, and "the PIFT analysis code" consumes the trace together with
the source/sink address ranges.  That makes parameter sweeps cheap — the
200-point Figure 11/14/17 grids re-run the *tracker*, not the app.

Replay is the sweep hot path, so it is batched: a :class:`ReplayPlan`
(computed once per recorded run, cached on the run) pre-segments the event
stream at the instruction indices where source registrations or sink
checks interleave, and each segment is fed through
:meth:`~repro.core.tracker.PIFTTracker.observe_columns` over the trace's
cached column encoding.  Re-tracking the same run under another
``(NI, NT)`` cell reuses both the plan and the columns — record once,
replay many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import PIFTConfig
from repro.core.ranges import RangeSet
from repro.core.tracker import (
    ColourTracker,
    DecisionBox,
    PIFTTracker,
    StateFactory,
    TrackerStats,
)
from repro.android.device import RecordedRun


@dataclass(frozen=True)
class SinkOutcome:
    """The tracker's verdict for one recorded sink check."""

    sink_name: str
    channel: str
    instruction_index: int
    tainted: bool
    pid: int = 0
    #: Contributing source colours, in colour-registration order.  Always
    #: empty under the plain (single-bit) replay; filled by
    #: :func:`replay_coloured`.  ``tainted`` is exactly ``bool(colours)``
    #: there — the union projection.
    colours: Tuple[str, ...] = ()


@dataclass
class ReplayResult:
    """Outcome of replaying one recorded run under one configuration."""

    config: PIFTConfig
    stats: TrackerStats
    sink_outcomes: List[SinkOutcome] = field(default_factory=list)
    #: The ``(NI, NT)`` configs under which this replay's sink outcomes
    #: and stats repeat exactly (:meth:`PIFTTracker.decision_box`);
    #: ``None`` for a faulted replay, whose outcome depends on its draws.
    box: Optional[DecisionBox] = None

    @property
    def alarm(self) -> bool:
        """Did any sink check come back tainted (the app-level verdict)?"""
        return any(outcome.tainted for outcome in self.sink_outcomes)


@dataclass(frozen=True)
class ReplayPlan:
    """Config-independent segmentation of a recorded run.

    ``boundaries`` holds ``(event_position, sources_due, checks_due)``
    triples: before observing the event at ``event_position``, drain that
    many pending source registrations and sink checks (both in recorded
    instruction order, sources first — exactly the order the per-event
    replay loop used).  ``final_sources`` / ``final_checks`` drain after
    the last event, bounded by the run's total instruction count.
    """

    sources: Tuple
    checks: Tuple
    boundaries: Tuple[Tuple[int, int, int], ...]
    final_sources: int
    final_checks: int


def build_replay_plan(recorded: RecordedRun) -> ReplayPlan:
    """Segment ``recorded`` once; every config replays the same plan."""
    sources = tuple(
        sorted(recorded.sources, key=lambda s: s.instruction_index)
    )
    checks = tuple(
        sorted(recorded.sink_checks, key=lambda c: c.instruction_index)
    )
    # Instruction indices at which each source/check falls due, each
    # list closed by an infinite sentinel so the scans need no bounds.
    source_at = [s.instruction_index for s in sources] + [math.inf]
    check_at = [c.instruction_index for c in checks] + [math.inf]
    boundaries: List[Tuple[int, int, int]] = []
    source_i = check_i = 0
    due = min(source_at[0], check_at[0])
    for position, upto in enumerate(recorded.trace.columns().indices):
        if upto < due:
            continue
        sources_due = checks_due = 0
        while source_at[source_i] <= upto:
            sources_due += 1
            source_i += 1
        while check_at[check_i] <= upto:
            checks_due += 1
            check_i += 1
        if sources_due or checks_due:
            boundaries.append((position, sources_due, checks_due))
        due = min(source_at[source_i], check_at[check_i])
    upto = recorded.instruction_count
    final_sources = final_checks = 0
    while source_at[source_i] <= upto:
        final_sources += 1
        source_i += 1
    while check_at[check_i] <= upto:
        final_checks += 1
        check_i += 1
    return ReplayPlan(
        sources=sources,
        checks=checks,
        boundaries=tuple(boundaries),
        final_sources=final_sources,
        final_checks=final_checks,
    )


def replay_plan_for(recorded: RecordedRun) -> ReplayPlan:
    """The run's cached plan, rebuilt if the run grew since last use."""
    cached = getattr(recorded, "_replay_plan", None)
    key = (
        len(recorded.sources),
        len(recorded.sink_checks),
        len(recorded.trace),
    )
    if cached is None or cached[0] != key:
        recorded._replay_plan = (key, build_replay_plan(recorded))
        cached = recorded._replay_plan
    return cached[1]


def replay_with_provenance(
    recorded: RecordedRun, config: PIFTConfig
) -> Dict[int, frozenset]:
    """Replay with per-source labels: which sources reach each sink check?

    Returns a mapping from each sink check's position in
    ``recorded.sink_checks`` to the frozenset of source names whose taint
    reaches it (empty set = clean) — the Raksha-style multi-label view
    (see :mod:`repro.core.provenance`).
    """
    from repro.core.provenance import ProvenanceTracker

    tracker = ProvenanceTracker(config)
    sources = sorted(recorded.sources, key=lambda s: s.instruction_index)
    order = {id(check): i for i, check in enumerate(recorded.sink_checks)}
    checks = sorted(recorded.sink_checks, key=lambda c: c.instruction_index)
    outcomes: Dict[int, frozenset] = {}
    source_i = check_i = 0

    def drain(upto_index: int) -> None:
        nonlocal source_i, check_i
        while (
            source_i < len(sources)
            and sources[source_i].instruction_index <= upto_index
        ):
            source = sources[source_i]
            tracker.taint_source(
                source.source_name, source.address_range, pid=source.pid
            )
            source_i += 1
        while (
            check_i < len(checks)
            and checks[check_i].instruction_index <= upto_index
        ):
            check = checks[check_i]
            outcomes[order[id(check)]] = tracker.check(
                check.address_range, pid=check.pid, sink_name=check.sink_name
            )
            check_i += 1

    for event in recorded.trace:
        drain(event.instruction_index)
        tracker.observe(event)
    drain(recorded.instruction_count)
    return outcomes


def _replay_segments(tracker, recorded: RecordedRun, plan: ReplayPlan,
                     register, verdict) -> List[SinkOutcome]:
    """The plan-segment loop shared by :func:`replay` and
    :func:`replay_coloured`.

    Feeds each event segment between drain boundaries through
    ``tracker.observe_columns`` and, at each boundary, hands the due
    source registrations to ``register(source)`` and the due sink checks
    to ``verdict(check)``, which answers ``(tainted, colours)``.
    """
    sources = plan.sources
    checks = plan.checks
    outcomes: List[SinkOutcome] = []
    source_i = check_i = 0

    def drain(sources_due: int, checks_due: int) -> None:
        nonlocal source_i, check_i
        for source in sources[source_i:source_i + sources_due]:
            register(source)
        source_i += sources_due
        for check in checks[check_i:check_i + checks_due]:
            tainted, colours = verdict(check)
            outcomes.append(
                SinkOutcome(
                    sink_name=check.sink_name,
                    channel=check.channel,
                    instruction_index=check.instruction_index,
                    tainted=tainted,
                    pid=check.pid,
                    colours=colours,
                )
            )
        check_i += checks_due

    columns = recorded.trace.columns()
    position = 0
    for boundary, sources_due, checks_due in plan.boundaries:
        if boundary > position:
            tracker.observe_columns(columns, position, boundary)
            position = boundary
        drain(sources_due, checks_due)
    tracker.observe_columns(columns, position, len(columns))
    drain(plan.final_sources, plan.final_checks)
    return outcomes


def replay(
    recorded: RecordedRun,
    config: PIFTConfig,
    state_factory: StateFactory = RangeSet,
    record_timeline: bool = False,
    telemetry=None,
) -> ReplayResult:
    """Feed a recorded run through a fresh tracker in instruction order.

    Source registrations and sink checks interleave with the memory-event
    stream at the instruction indices (and PIDs) they originally occurred
    at; the event segments between them run through the batched column
    path.  The result's ``box`` names every ``(NI, NT)`` under which the
    same run replays to the same outcomes and stats.
    """
    tracker = PIFTTracker(
        config,
        state_factory=state_factory,
        record_timeline=record_timeline,
        telemetry=telemetry,
    )
    outcomes = _replay_segments(
        tracker, recorded, replay_plan_for(recorded),
        register=lambda source: tracker.taint_source(
            source.address_range, pid=source.pid
        ),
        verdict=lambda check: (
            tracker.check(check.address_range, pid=check.pid), ()
        ),
    )
    return ReplayResult(config=config, stats=tracker.stats,
                        sink_outcomes=outcomes, box=tracker.decision_box())


def source_colour(source) -> str:
    """The provenance colour of a source registration: its explicit
    ``colour`` when set, else its source name — so DroidBench apps get
    per-source attribution (imei vs location vs phone_number) with no
    recording changes."""
    return source.colour if source.colour is not None else source.source_name


def replay_coloured(
    recorded: RecordedRun,
    config: PIFTConfig,
    record_timeline: bool = False,
) -> ReplayResult:
    """:func:`replay` over the coloured tracker: same plan, same batched
    column path, but every sink outcome additionally names the
    contributing source colours.

    The union projection is exact: each outcome's ``tainted`` equals the
    plain replay's verdict bit for bit (enforced by the parity suite), so
    this is an *attribution* pass, never a second opinion on verdicts.
    Colour bits are pre-registered in recorded instruction order, making
    mask assignment — and therefore attribution tuples — deterministic.
    """
    tracker = ColourTracker(config, record_timeline=record_timeline)
    plan = replay_plan_for(recorded)
    for source in plan.sources:
        tracker.colours.register(source_colour(source))

    def register(source) -> None:
        tracker.taint_source(
            source.address_range, pid=source.pid, colour=source_colour(source)
        )

    def verdict(check) -> Tuple[bool, Tuple[str, ...]]:
        mask = tracker.check_mask(check.address_range, pid=check.pid)
        return bool(mask), tracker.colours.names_for(mask)

    outcomes = _replay_segments(tracker, recorded, plan, register, verdict)
    return ReplayResult(config=config, stats=tracker.stats,
                        sink_outcomes=outcomes, box=tracker.decision_box())
