"""The simulated Android device: CPU + PIFT stack + VM + framework.

``AndroidDevice`` assembles the full Figure 3 stack:

* the ISA CPU with the PIFT front-end observer attached,
* the PIFT hardware module (taint storage + Algorithm 1),
* the kernel module, native (address translation), and manager layers,
* the Dalvik VM with core and framework intrinsics,
* the framework's sources/sinks wired to the manager.

Every run also produces a :class:`RecordedRun` — the memory-event trace,
source registrations, and sink checks — so analysis code can replay the
same execution under many ``(NI, NT)`` configurations offline, exactly how
the paper feeds gem5 traces into "the PIFT analysis code" (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core import (
    AddressRange,
    EventTrace,
    MemoryAccess,
    PAPER_DEFAULT,
    PIFTConfig,
    PIFTHardwareModule,
    PIFTKernelModule,
    PIFTManager,
    PIFTNative,
)
from repro.core.tracker import StateFactory
from repro.core.ranges import RangeSet
from repro.isa.cpu import CPU, FullTraceRecorder
from repro.dalvik import DalvikVM, Method, VMArray, VMInstance, VMString
from repro.android.framework import (
    AndroidFramework,
    DeviceSecrets,
    FieldRef,
    SinkEvent,
)


@dataclass(frozen=True)
class SourceRegistration:
    """One tainted range, with the instruction index it appeared at.

    ``pid`` is the process the registration targeted; replay paths must
    forward it, or multi-process runs collapse onto PID 0's taint state.
    """

    address_range: AddressRange
    instruction_index: int
    source_name: str
    pid: int = 0
    #: Optional explicit provenance colour.  ``None`` means "colour by
    #: source name", which is what the coloured replay paths default to —
    #: set it only to group distinct sources under one label (or split
    #: one source into several).  Absent from v2/v3 tracefiles unless
    #: set, so existing fixtures stay byte-identical.
    colour: Optional[str] = None


@dataclass(frozen=True)
class SinkCheck:
    """One sink-side taint query, for offline replay."""

    address_range: AddressRange
    instruction_index: int
    sink_name: str
    channel: str
    pid: int = 0


@dataclass
class RecordedRun:
    """Everything needed to re-evaluate a run under a different config."""

    trace: EventTrace = field(default_factory=EventTrace)
    sources: List[SourceRegistration] = field(default_factory=list)
    sink_checks: List[SinkCheck] = field(default_factory=list)

    @property
    def instruction_count(self) -> int:
        return self.trace.instruction_count


class AndroidDevice:
    """A ready-to-run device. Install app methods, call entry points."""

    def __init__(
        self,
        config: PIFTConfig = PAPER_DEFAULT,
        secrets: Optional[DeviceSecrets] = None,
        state_factory: StateFactory = RangeSet,
        record_timeline: bool = False,
        keep_full_trace: bool = False,
        fused_dispatch: bool = False,
        telemetry=None,
    ) -> None:
        """``telemetry`` (a :class:`repro.telemetry.Telemetry`) is threaded
        into every layer — CPU batches, VM method spans, the tracker's
        mutation stream, and the manager's source/sink events all report
        to the same hub."""
        self.telemetry = telemetry
        self.cpu = CPU(telemetry=telemetry)
        self.hw = PIFTHardwareModule(
            config,
            state_factory=state_factory,
            record_timeline=record_timeline,
            telemetry=telemetry,
        )
        self.module = PIFTKernelModule(self.hw)
        self.native = PIFTNative(self.module)
        self.recorded = RecordedRun()
        self.full_trace = FullTraceRecorder() if keep_full_trace else None

        self.cpu.add_observer(self._on_instruction)
        self.vm = DalvikVM(self.cpu, fused_dispatch=fused_dispatch)
        self.secrets = secrets or DeviceSecrets()
        self.manager = self._recording_manager()
        self.framework = AndroidFramework(self.vm, self.manager, self.secrets)
        self.framework.register_all(self.vm)
        self._register_translators()

    # -- PIFT wiring ------------------------------------------------------------

    def _on_instruction(self, record, index: int, pid: int) -> None:
        # One event object per memory instruction: the hardware module
        # and the recorded trace share it (MemoryAccess is immutable).
        if record.is_memory:
            event = MemoryAccess(record.kind, record.address_range, index, pid)
            self.hw.on_memory_event(event)
            self.recorded.trace.append(event)
        else:
            self.recorded.trace.note_instruction(index, pid)
        if self.full_trace is not None:
            self.full_trace(record, index, pid)

    def _register_translators(self) -> None:
        self.native.register_translator(
            VMString, lambda value: [value.data_range()]
        )
        self.native.register_translator(
            VMArray, lambda value: [value.data_range()]
        )
        self.native.register_translator(
            VMInstance, lambda value: [value.data_range()]
        )
        self.native.register_translator(
            FieldRef,
            lambda ref: [ref.instance.field_range(ref.field_name)],
        )

    def _recording_manager(self) -> PIFTManager:
        """Wrap the manager so registrations/checks are also recorded."""
        device = self

        class RecordingManager(PIFTManager):
            def register_source(self, source_name, value, pid=0):
                ranges = self.native.translate(value)
                for address_range in ranges:
                    device.recorded.sources.append(
                        SourceRegistration(
                            address_range,
                            device.cpu.instruction_count(pid),
                            source_name,
                            pid=pid,
                        )
                    )
                super().register_source(source_name, value, pid=pid)

            def check_sink(self, sink_name, value, pid=0):
                for address_range in self.native.translate(value):
                    device.recorded.sink_checks.append(
                        SinkCheck(
                            address_range,
                            device.cpu.instruction_count(pid),
                            sink_name,
                            _channel_of(sink_name),
                            pid=pid,
                        )
                    )
                return super().check_sink(sink_name, value, pid=pid)

        return RecordingManager(self.native, telemetry=self.telemetry)

    # -- app surface -------------------------------------------------------------

    def define_class(self, name: str, fields: Sequence[Tuple[str, int]] = (),
                     superclass: Optional[str] = None):
        return self.vm.heap.define_class(name, fields, superclass=superclass)

    def install(self, methods: Iterable[Method]) -> None:
        for method in methods:
            self.vm.register_method(method)

    def run(self, entry: str, args: Sequence[int] = ()) -> int:
        return self.vm.call(entry, args)

    # -- results --------------------------------------------------------------------

    @property
    def config(self) -> PIFTConfig:
        return self.hw.config

    @property
    def leak_detected(self) -> bool:
        return any(event.pift_alarm for event in self.framework.sinks)

    @property
    def sinks(self) -> List[SinkEvent]:
        return self.framework.sinks

    @property
    def stats(self):
        return self.hw.stats


def _channel_of(sink_name: str) -> str:
    if "Sms" in sink_name:
        return "sms"
    if "Http" in sink_name or "URL" in sink_name:
        return "http"
    if "Log" in sink_name:
        return "log"
    return "other"
