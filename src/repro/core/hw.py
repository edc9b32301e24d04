"""The PIFT hardware module and CPU front-end logic (paper §3.3, Figure 5).

The *front end* sits in the CPU: it watches the instruction unit, keeps a
per-process instruction counter (indexed by PID / TTBR), and emits an event
to the PIFT hardware module for every memory-access instruction.  The
*hardware module* runs the taint-propagation heuristic against its taint
storage while the memory subsystem services the access, and exposes an
array of memory-mapped command ports through which the software stack
registers source ranges, queries sink ranges, and sets ``NI``/``NT``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Union

from repro.core.config import PIFTConfig
from repro.core.events import AccessKind, MemoryAccess
from repro.core.ranges import AddressRange, RangeSet
from repro.core.tracker import PIFTTracker, StateFactory, TrackerStats


class Command(enum.Enum):
    """Operations available on the module's memory-mapped command ports."""

    REGISTER = "register"  # taint a new address range (source)
    CHECK = "check"  # query a range's taint (sink)
    CONFIGURE = "configure"  # set tainting-window parameters


@dataclass(frozen=True)
class CommandRequest:
    """One command written to the module's port array."""

    command: Command
    pid: int = 0
    address_range: Optional[AddressRange] = None
    window_size: Optional[int] = None
    max_propagations: Optional[int] = None


@dataclass(frozen=True)
class CommandResponse:
    """The module's reply on the response port."""

    ok: bool
    tainted: Optional[bool] = None


class PIFTHardwareModule:
    """On-chip PIFT engine: taint storage + propagation controller.

    The module is deliberately passive — it only reacts to front-end memory
    events and software commands, mirroring the paper's observation that
    "the SW module does not interact with the HW module most of the time;
    taint lookup and propagation operations are transparent to the software
    side."
    """

    def __init__(
        self,
        config: PIFTConfig,
        state_factory: StateFactory = RangeSet,
        record_timeline: bool = False,
        telemetry=None,
    ) -> None:
        self._tracker = PIFTTracker(
            config,
            state_factory=state_factory,
            record_timeline=record_timeline,
            telemetry=telemetry,
        )

    @property
    def config(self) -> PIFTConfig:
        return self._tracker.config

    @property
    def stats(self) -> TrackerStats:
        return self._tracker.stats

    @property
    def tracker(self) -> PIFTTracker:
        return self._tracker

    def on_memory_event(self, event: MemoryAccess) -> None:
        """Front-end entry point: one load/store plus its metadata."""
        self._tracker.observe(event)

    def execute(self, request: CommandRequest) -> CommandResponse:
        """Software entry point: dispatch one memory-mapped command."""
        if request.command is Command.REGISTER:
            if request.address_range is None:
                return CommandResponse(ok=False)
            self._tracker.taint_source(request.address_range, pid=request.pid)
            return CommandResponse(ok=True)
        if request.command is Command.CHECK:
            if request.address_range is None:
                return CommandResponse(ok=False)
            tainted = self._tracker.check(request.address_range, pid=request.pid)
            return CommandResponse(ok=True, tainted=tainted)
        if request.command is Command.CONFIGURE:
            # Only the fields the request sets change; every other field
            # (untainting, vectorized) keeps its value.  A value the
            # config rejects leaves it unchanged.
            changes = {}
            if request.window_size is not None:
                changes["window_size"] = request.window_size
            if request.max_propagations is not None:
                changes["max_propagations"] = request.max_propagations
            try:
                config = replace(self._tracker.config, **changes)
            except ValueError:
                return CommandResponse(ok=False)
            self._tracker.reconfigure(config)
            return CommandResponse(ok=True)
        return CommandResponse(ok=False)


class PIFTFrontEnd:
    """CPU-side logic: per-process instruction counters and event generation.

    The hosting CPU calls :meth:`on_instruction` for every retired
    instruction; memory instructions additionally pass their access kind and
    address range.  The front end forwards a fully-formed
    :class:`MemoryAccess` to the hardware module.
    """

    def __init__(self, module: PIFTHardwareModule) -> None:
        self._module = module
        self._counters: Dict[int, int] = {}
        self._current_pid = 0

    @property
    def current_pid(self) -> int:
        return self._current_pid

    def context_switch(self, pid: int) -> None:
        """OS scheduled a different process; later events carry its PID."""
        self._current_pid = pid

    def instruction_count(self, pid: Optional[int] = None) -> int:
        """Retired-instruction count for ``pid`` (default: current)."""
        key = self._current_pid if pid is None else pid
        return self._counters.get(key, 0)

    def on_instruction(
        self,
        kind: Optional[AccessKind] = None,
        address_range: Optional[AddressRange] = None,
    ) -> int:
        """Record one retired instruction; emit an event if it was a memory op.

        Returns the instruction's per-process sequence number.
        """
        pid = self._current_pid
        index = self._counters.get(pid, 0)
        self._counters[pid] = index + 1
        if kind is not None:
            if address_range is None:
                raise ValueError("memory instruction requires an address range")
            self._module.on_memory_event(
                MemoryAccess(kind, address_range, index, pid)
            )
        return index
