"""Deterministic fault injection for the PIFT event path.

The paper's hardware design is only credible under loss: the taint cache
is bounded (LRU-evict-to-secondary or drop, §3.3), and the §1 buffered
design point explicitly trades prevention for detection when the event
FIFO lags.  Related DIFT-coprocessor work stresses that real tag
pipelines drop, stall, and desynchronize.  This module makes those
failure modes *reproducible*: a :class:`FaultPlan` (seed + per-site
rates) builds :class:`FaultInjector` instances that perturb the
load/store event stream and the taint storage in a fully deterministic
way, so a degradation sweep can be replayed bit-for-bit.

Fault sites
-----------

* **event loss** — an event is silently dropped before the tracker sees
  it (a full front-end FIFO, a lost bus beat);
* **event duplication** — an event is delivered twice (replayed bus
  transaction);
* **bounded event reordering** — an event is held back and released up
  to ``reorder_window`` events late (out-of-order delivery across
  banked FIFOs);
* **address-bit corruption** — one of the low ``corrupt_bits`` address
  bits of the event's range flips (single-event upset on the address
  lines);
* **taint-state entry drop** — a random tainted range is discarded from
  the taint storage (the §3.3 drop policy firing spuriously);
* **eviction storm** — ``storm_size`` LRU entries are evicted at once
  (context-switch write-back pressure on the range cache);
* **secondary-storage stall** — a lookup hits the spilled state in main
  memory and stalls for ``stall_cycles`` (accounted, not simulated in
  wall time).

Determinism contract
--------------------

Every Bernoulli draw is a pure hash of ``(seed, site, ordinal)`` — not a
sequential RNG — so the set of events lost at rate ``r1`` is a *subset*
of the set lost at rate ``r2 > r1`` for the same seed (common-random-
numbers coupling).  Degradation curves are therefore smooth in the rate,
and a zero-rate plan perturbs nothing: the no-fault path is parity-tested
to be byte-identical to a run with no plan at all
(``tests/unit/test_faults.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.events import MemoryAccess
from repro.core.ranges import AddressRange

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.tracker import PIFTTracker
    from repro.telemetry import Telemetry

_MASK64 = (1 << 64) - 1

# Site identifiers feeding the hash; values are arbitrary but frozen,
# because changing them changes every seeded run.
_SITE_LOSS = 1
_SITE_DUPLICATION = 2
_SITE_REORDER = 3
_SITE_CORRUPT = 4
_SITE_STATE_DROP = 5
_SITE_STORM = 6
_SITE_STALL = 7
_SITE_VALUES = 99


def _mix(seed: int, site: int, ordinal: int) -> int:
    """SplitMix64-style finalizer over (seed, site, ordinal)."""
    x = (
        seed * 0x9E3779B97F4A7C15
        + site * 0xBF58476D1CE4E5B9
        + ordinal * 0x94D049BB133111EB
        + 0x2545F4914F6CDD1D
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _chance(seed: int, site: int, ordinal: int) -> float:
    """Uniform [0, 1) draw, a pure function of its arguments."""
    return _mix(seed, site, ordinal) / 2.0**64


def chance64(seed: int, stream: int, ordinal: int) -> float:
    """Uniform [0, 1) draw from the public splitmix64 stream over
    (seed, stream, ordinal).

    Other subsystems (sweep retry-backoff jitter, the chaos harness)
    draw from the same generator family as the fault injector so every
    kill/retry decision is a pure function of its inputs and a seeded
    run replays bit-for-bit.
    """
    return _chance(seed, stream, ordinal)


@dataclass(frozen=True)
class FaultRates:
    """Per-site fault probabilities and shape parameters.

    All ``*_rate``-like fields are per-event probabilities in [0, 1];
    the integer fields shape the injected fault (reorder distance,
    corrupted bit width, storm size, stall length).
    """

    event_loss: float = 0.0
    event_duplication: float = 0.0
    event_reorder: float = 0.0
    reorder_window: int = 4
    address_corruption: float = 0.0
    corrupt_bits: int = 12
    state_drop: float = 0.0
    eviction_storm: float = 0.0
    storm_size: int = 8
    storage_stall: float = 0.0
    stall_cycles: int = 200

    def __post_init__(self) -> None:
        for name in (
            "event_loss",
            "event_duplication",
            "event_reorder",
            "address_corruption",
            "state_drop",
            "eviction_storm",
            "storage_stall",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("reorder_window", "corrupt_bits", "storm_size", "stall_cycles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def any_active(self) -> bool:
        return any(
            getattr(self, name) > 0.0
            for name in (
                "event_loss",
                "event_duplication",
                "event_reorder",
                "address_corruption",
                "state_drop",
                "eviction_storm",
                "storage_stall",
            )
        )


#: CLI spec key -> (FaultRates field, parser).
_SPEC_KEYS = {
    "loss": ("event_loss", float),
    "dup": ("event_duplication", float),
    "reorder": ("event_reorder", float),
    "window": ("reorder_window", int),
    "corrupt": ("address_corruption", float),
    "bits": ("corrupt_bits", int),
    "drop": ("state_drop", float),
    "storm": ("eviction_storm", float),
    "storm_size": ("storm_size", int),
    "stall": ("storage_stall", float),
    "stall_cycles": ("stall_cycles", int),
}


def parse_fault_spec(spec: str) -> FaultRates:
    """Parse a ``--faults`` spec like ``"loss=1e-3,dup=1e-4,window=8"``.

    Keys: ``loss``, ``dup``, ``reorder``, ``window``, ``corrupt``,
    ``bits``, ``drop`` (taint-state entry drop), ``storm``,
    ``storm_size``, ``stall``, ``stall_cycles``.  An empty spec is the
    all-zero (fault-free) plan.
    """
    values = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad fault spec item {part!r} (expected key=value)")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ValueError(
                f"unknown fault site {key!r}; known: {', '.join(sorted(_SPEC_KEYS))}"
            )
        name, parse = _SPEC_KEYS[key]
        values[name] = parse(raw.strip())
    return FaultRates(**values)


@dataclass
class FaultStats:
    """What the injector actually did to one run."""

    events_seen: int = 0
    events_dropped: int = 0
    events_duplicated: int = 0
    events_reordered: int = 0
    addresses_corrupted: int = 0
    state_entries_dropped: int = 0
    eviction_storms: int = 0
    stall_events: int = 0
    stall_cycles: int = 0

    @property
    def total_injections(self) -> int:
        return (
            self.events_dropped
            + self.events_duplicated
            + self.events_reordered
            + self.addresses_corrupted
            + self.state_entries_dropped
            + self.eviction_storms
            + self.stall_events
        )

    @property
    def information_lost(self) -> bool:
        """True if any injection destroyed taint information.

        Duplication, bounded reorder, and stalls perturb timing but lose
        nothing; drops, corruption, and storms can erase or misplace
        taint, so downstream answers should carry a degraded flag.
        """
        return bool(
            self.events_dropped
            or self.addresses_corrupted
            or self.state_entries_dropped
            or self.eviction_storms
        )

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["total_injections"] = self.total_injections
        return d

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultStats":
        """Inverse of :meth:`as_dict` (derived keys are ignored)."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reusable recipe for perturbing a run.

    The plan itself is immutable; :meth:`injector` mints a fresh
    stateful :class:`FaultInjector` per run, so the same plan swept over
    many ``(NI, NT)`` cells perturbs each replay identically.
    """

    seed: int = 0
    rates: FaultRates = field(default_factory=FaultRates)

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, rates=parse_fault_spec(spec))

    @property
    def enabled(self) -> bool:
        """True when any site can actually fire."""
        return self.rates.any_active

    def with_rates(self, **changes) -> "FaultPlan":
        """A copy of this plan with some rate fields replaced."""
        return replace(self, rates=replace(self.rates, **changes))

    def injector(self, telemetry: Optional["Telemetry"] = None) -> "FaultInjector":
        return FaultInjector(self, telemetry=telemetry)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "rates": dataclasses.asdict(self.rates)}


class _InjectorInstruments:
    """Bound ``faults.*`` counters, built only for a live telemetry hub."""

    __slots__ = (
        "dropped", "duplicated", "reordered", "corrupted",
        "state_drops", "storms", "stalls",
    )

    def __init__(self, telemetry: "Telemetry") -> None:
        m = telemetry.metrics
        self.dropped = m.counter("faults.events_dropped", "events lost in flight")
        self.duplicated = m.counter(
            "faults.events_duplicated", "events delivered twice"
        )
        self.reordered = m.counter(
            "faults.events_reordered", "events released out of order"
        )
        self.corrupted = m.counter(
            "faults.addresses_corrupted", "events with a flipped address bit"
        )
        self.state_drops = m.counter(
            "faults.state_entries_dropped", "taint ranges discarded from storage"
        )
        self.storms = m.counter(
            "faults.eviction_storms", "bulk LRU evictions injected"
        )
        self.stalls = m.counter(
            "faults.stall_events", "secondary-storage stalls injected"
        )


class FaultInjector:
    """The stateful engine that applies one :class:`FaultPlan` to a run.

    Event-path faults go through :meth:`feed` (one input event, zero or
    more output events, in delivery order); taint-state faults go
    through :meth:`state_faults`, called once per event the consumer
    actually processes.  Call :meth:`flush` at end of stream to release
    any events still held by the reorder buffer.
    """

    def __init__(self, plan: FaultPlan, telemetry: Optional["Telemetry"] = None) -> None:
        self.plan = plan
        self.rates = plan.rates
        self.stats = FaultStats()
        self._seed = plan.seed
        self._event_ordinal = 0
        self._state_ordinal = 0
        self._value_ordinal = 0
        #: (remaining_delay, event) pairs held back by the reorder site.
        self._held: List[Tuple[int, MemoryAccess]] = []
        self._tel: Optional["Telemetry"] = None
        self._ins: Optional[_InjectorInstruments] = None
        if telemetry is not None and telemetry.enabled:
            self._tel = telemetry
            self._ins = _InjectorInstruments(telemetry)

    # -- deterministic draws ---------------------------------------------

    def _fires(self, site: int, ordinal: int, rate: float) -> bool:
        return rate > 0.0 and _chance(self._seed, site, ordinal) < rate

    def _value(self, bound: int) -> int:
        """Deterministic integer in [0, bound) for shaping a fault."""
        self._value_ordinal += 1
        return _mix(self._seed, _SITE_VALUES, self._value_ordinal) % bound

    # -- event path -------------------------------------------------------

    def feed(self, event: MemoryAccess) -> List[MemoryAccess]:
        """Perturb one event; returns the events to deliver, in order."""
        rates = self.rates
        n = self._event_ordinal
        self._event_ordinal += 1
        self.stats.events_seen += 1
        out: List[MemoryAccess] = []

        if self._fires(_SITE_LOSS, n, rates.event_loss):
            self.stats.events_dropped += 1
            if self._ins is not None:
                self._ins.dropped.inc()
                self._tel.event(
                    "fault_drop", index=event.instruction_index, pid=event.pid
                )
        else:
            if self._fires(_SITE_CORRUPT, n, rates.address_corruption):
                event = self._corrupt(event)
            if self._fires(_SITE_REORDER, n, rates.event_reorder):
                delay = 1 + self._value(rates.reorder_window)
                self._held.append((delay, event))
                self.stats.events_reordered += 1
                if self._ins is not None:
                    self._ins.reordered.inc()
            elif self._fires(_SITE_DUPLICATION, n, rates.event_duplication):
                out.extend((event, event))
                self.stats.events_duplicated += 1
                if self._ins is not None:
                    self._ins.duplicated.inc()
            else:
                out.append(event)

        if self._held:
            out.extend(self._tick_held())
        return out

    def flush(self) -> List[MemoryAccess]:
        """Release everything the reorder buffer still holds."""
        released = [event for _, event in self._held]
        self._held.clear()
        return released

    def _tick_held(self) -> List[MemoryAccess]:
        """Age the reorder buffer by one delivered slot; release expired."""
        released: List[MemoryAccess] = []
        survivors: List[Tuple[int, MemoryAccess]] = []
        for delay, held in self._held:
            if delay <= 1:
                released.append(held)
            else:
                survivors.append((delay - 1, held))
        self._held = survivors
        return released

    def _corrupt(self, event: MemoryAccess) -> MemoryAccess:
        bit = self._value(self.rates.corrupt_bits)
        flipped = AddressRange.from_base_size(
            event.address_range.start ^ (1 << bit), event.address_range.size
        )
        self.stats.addresses_corrupted += 1
        if self._ins is not None:
            self._ins.corrupted.inc()
            self._tel.event(
                "fault_corrupt",
                index=event.instruction_index,
                pid=event.pid,
                bit=bit,
                start=flipped.start,
            )
        return dataclasses.replace(event, address_range=flipped)

    # -- taint-storage path ------------------------------------------------

    def state_faults(self, tracker: "PIFTTracker", pid: int) -> None:
        """Maybe perturb the taint storage after one processed event."""
        rates = self.rates
        if not (rates.state_drop or rates.eviction_storm or rates.storage_stall):
            return
        m = self._state_ordinal
        self._state_ordinal += 1
        if self._fires(_SITE_STATE_DROP, m, rates.state_drop):
            self._drop_state_entry(tracker, pid)
        if self._fires(_SITE_STORM, m, rates.eviction_storm):
            state = tracker.state(pid)
            evict = getattr(state, "eviction_storm", None)
            if evict is not None and evict(rates.storm_size):
                self.stats.eviction_storms += 1
                if self._ins is not None:
                    self._ins.storms.inc()
        if self._fires(_SITE_STALL, m, rates.storage_stall):
            self.stats.stall_events += 1
            self.stats.stall_cycles += rates.stall_cycles
            if self._ins is not None:
                self._ins.stalls.inc()

    def _drop_state_entry(self, tracker: "PIFTTracker", pid: int) -> None:
        state = tracker.state(pid)
        drop = getattr(state, "drop_nth_entry", None) or getattr(
            state, "drop_nth_range", None
        )
        if drop is None:
            return
        count = state.range_count
        if not count:
            return
        victim = drop(self._value(count))
        if victim is None:
            return
        self.stats.state_entries_dropped += 1
        if self._ins is not None:
            self._ins.state_drops.inc()
            self._tel.event(
                "fault_state_drop",
                pid=pid,
                start=victim.start,
                size=victim.size,
            )
