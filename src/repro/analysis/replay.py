"""Offline replay: re-run a recorded execution under any PIFT configuration.

The paper's methodology (§5): app executions are traced once on the
simulator, and "the PIFT analysis code" consumes the trace together with
the source/sink address ranges.  That makes parameter sweeps cheap — the
200-point Figure 11/14/17 grids re-run the *tracker*, not the app.

One rule interleaves a run's events with its source registrations and
sink checks, and a :class:`ReplayPlan` (computed once per recorded run,
cached on the run) states it as steps: feed an event slice, then
register the sources and answer the checks that fall due.  Every consumer
of a recorded run walks those steps — :func:`replay`,
:func:`replay_coloured` and :func:`replay_with_provenance` here, the
faulted and buffered replays of :mod:`repro.analysis.degradation`, and
the device frames of :func:`repro.serve.protocol.run_to_frames`.
Replay is the sweep hot path, so each slice goes through
:meth:`~repro.core.tracker.PIFTTracker.observe_columns` over the trace's
cached column encoding.  Re-tracking the same run under another
``(NI, NT)`` cell reuses both the plan and the columns — record once,
replay many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

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

    @classmethod
    def of(cls, check, tainted: bool,
           colours: Tuple[str, ...] = ()) -> "SinkOutcome":
        """The outcome of the recorded ``check`` (a ``SinkCheck``)."""
        return cls(
            sink_name=check.sink_name,
            channel=check.channel,
            instruction_index=check.instruction_index,
            tainted=tainted,
            pid=check.pid,
            colours=colours,
        )


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


class ReplayStep(NamedTuple):
    """Feed events ``[lo, hi)``, then register ``sources``, then answer
    ``checks`` (both in recorded instruction order)."""

    lo: int
    hi: int
    sources: Tuple
    checks: Tuple


@dataclass(frozen=True)
class ReplayPlan:
    """Config-independent walk over a recorded run.

    A recorded source, then a sink check, takes effect before the first
    event whose instruction index reaches its own; whatever is left takes
    effect after the last event, up to the run's instruction count (and
    never, past it).  ``steps`` holds that order: consecutive event
    slices covering the trace, each followed by the sources and checks
    due at its end; only the first slice can be empty, and the last
    ends at the end of the trace.  ``sources`` lists every recorded
    source in instruction order (the coloured replay pre-registers
    their colours from it).
    """

    sources: Tuple
    steps: Tuple[ReplayStep, ...]


def build_replay_plan(
    indices: Sequence[int],
    sources: Iterable,
    checks: Iterable,
    instruction_count: int,
) -> ReplayPlan:
    """The plan over an event stream whose instruction indices are
    ``indices``, for ``sources`` and ``checks`` (each with an
    ``instruction_index``) in a run of ``instruction_count``
    instructions.  A recorded run's plan is :func:`replay_plan_for`'s;
    any other per-instruction stream (the full-DIFT baseline's
    execution records) walks this same rule."""
    sources = tuple(sorted(sources, key=lambda s: s.instruction_index))
    checks = tuple(sorted(checks, key=lambda c: c.instruction_index))
    # Instruction indices at which each source/check falls due, each
    # list closed by an infinite sentinel so the scans need no bounds.
    source_at = [s.instruction_index for s in sources] + [math.inf]
    check_at = [c.instruction_index for c in checks] + [math.inf]
    steps: List[ReplayStep] = []
    lo = source_i = check_i = 0

    def close(hi: int, upto: int) -> None:
        nonlocal lo, source_i, check_i
        first_source, first_check = source_i, check_i
        while source_at[source_i] <= upto:
            source_i += 1
        while check_at[check_i] <= upto:
            check_i += 1
        steps.append(ReplayStep(
            lo, hi, sources[first_source:source_i],
            checks[first_check:check_i],
        ))
        lo = hi

    due = min(source_at[0], check_at[0])
    for position, upto in enumerate(indices):
        if upto >= due:
            close(position, upto)
            due = min(source_at[source_i], check_at[check_i])
    close(len(indices), instruction_count)
    return ReplayPlan(sources=sources, steps=tuple(steps))


def replay_plan_for(recorded: RecordedRun) -> ReplayPlan:
    """The run's cached plan, rebuilt if the run grew since last use."""
    cached = getattr(recorded, "_replay_plan", None)
    key = (
        len(recorded.sources),
        len(recorded.sink_checks),
        len(recorded.trace),
    )
    if cached is None or cached[0] != key:
        recorded._replay_plan = (key, build_replay_plan(
            recorded.trace.columns().indices, recorded.sources,
            recorded.sink_checks, recorded.instruction_count,
        ))
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
    order = {id(check): i for i, check in enumerate(recorded.sink_checks)}
    outcomes: Dict[int, frozenset] = {}
    columns = recorded.trace.columns()
    for lo, hi, sources, checks in replay_plan_for(recorded).steps:
        tracker.observe_columns(columns, lo, hi)
        for source in sources:
            tracker.taint_source(
                source.source_name, source.address_range, pid=source.pid
            )
        for check in checks:
            outcomes[order[id(check)]] = tracker.check(
                check.address_range, pid=check.pid, sink_name=check.sink_name
            )
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
    outcomes: List[SinkOutcome] = []
    columns = recorded.trace.columns()
    for lo, hi, sources, checks in replay_plan_for(recorded).steps:
        tracker.observe_columns(columns, lo, hi)
        for source in sources:
            tracker.taint_source(source.address_range, pid=source.pid)
        for check in checks:
            outcomes.append(SinkOutcome.of(
                check, tracker.check(check.address_range, pid=check.pid)
            ))
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
    outcomes: List[SinkOutcome] = []
    columns = recorded.trace.columns()
    for lo, hi, sources, checks in plan.steps:
        tracker.observe_columns(columns, lo, hi)
        for source in sources:
            tracker.taint_source(
                source.address_range, pid=source.pid,
                colour=source_colour(source),
            )
        for check in checks:
            mask = tracker.check_mask(check.address_range, pid=check.pid)
            outcomes.append(SinkOutcome.of(
                check, bool(mask), tracker.colours.names_for(mask)
            ))
    return ReplayResult(config=config, stats=tracker.stats,
                        sink_outcomes=outcomes, box=tracker.decision_box())
