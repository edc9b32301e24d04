"""The paper's primary contribution: the predictive taint tracker and the
hardware/software stack around it (paper §3).

Layering, top to bottom (Figure 3):

* :class:`~repro.core.manager.PIFTManager` — framework-level source/sink
  instrumentation,
* :class:`~repro.core.native.PIFTNative` — runtime-level value-to-address
  translation,
* :class:`~repro.core.module.PIFTKernelModule` — kernel driver speaking the
  hardware command ports,
* :class:`~repro.core.hw.PIFTHardwareModule` /
  :class:`~repro.core.hw.PIFTFrontEnd` — the on-chip engine and CPU hooks,
* :class:`~repro.core.tracker.PIFTTracker` — Algorithm 1 itself, over
  :class:`~repro.core.ranges.RangeSet` (whose ranges carry the colour
  masks of :class:`~repro.core.tracker.ColourTracker`) or a bounded
  :class:`~repro.core.taint_storage.BoundedRangeCache`.
"""

from repro.core.buffered import (
    BufferedPIFT,
    BufferStats,
    ImmediateVerdict,
    LateDetection,
)
from repro.core.colours import ColourSpace
from repro.core.config import (
    PAPER_DEFAULT,
    PAPER_MALWARE_MINIMUM,
    PAPER_PERFECT,
    OverflowPolicy,
    PIFTConfig,
)
from repro.core.events import (
    AccessKind,
    ColumnArrays,
    EventColumns,
    EventTrace,
    MemoryAccess,
    load,
    store,
)
from repro.core.faults import (
    FaultInjector,
    FaultPlan,
    FaultRates,
    FaultStats,
    parse_fault_spec,
)
from repro.core.hw import (
    Command,
    CommandRequest,
    CommandResponse,
    PIFTFrontEnd,
    PIFTHardwareModule,
)
from repro.core.manager import PIFTManager, SinkReport, SourceRecord
from repro.core.module import LeakEvent, PIFTKernelModule
from repro.core.native import AddressTranslationError, PIFTNative
from repro.core.provenance import (
    ColourProvenance,
    LabeledLeak,
    ProvenanceTracker,
)
from repro.core.ranges import AddressRange, RangeSet
from repro.core.taint_storage import (
    ENTRY_BYTES_WITH_PID,
    ENTRY_BYTES_WITHOUT_PID,
    BoundedRangeCache,
    EvictionPolicy,
    StorageStats,
    entry_capacity,
    paper_default_storage,
)
from repro.core.tracker import (
    ColourTracker,
    PIFTTracker,
    TimelinePoint,
    TrackerStats,
    track_trace,
)

__all__ = [
    "AccessKind",
    "AddressRange",
    "AddressTranslationError",
    "BoundedRangeCache",
    "BufferStats",
    "BufferedPIFT",
    "ColourProvenance",
    "ColourSpace",
    "ColourTracker",
    "ColumnArrays",
    "Command",
    "CommandRequest",
    "CommandResponse",
    "ENTRY_BYTES_WITHOUT_PID",
    "ENTRY_BYTES_WITH_PID",
    "EventColumns",
    "EventTrace",
    "EvictionPolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultRates",
    "FaultStats",
    "ImmediateVerdict",
    "LabeledLeak",
    "LateDetection",
    "LeakEvent",
    "MemoryAccess",
    "OverflowPolicy",
    "PAPER_DEFAULT",
    "PAPER_MALWARE_MINIMUM",
    "PAPER_PERFECT",
    "PIFTConfig",
    "PIFTFrontEnd",
    "PIFTHardwareModule",
    "PIFTKernelModule",
    "PIFTManager",
    "PIFTNative",
    "PIFTTracker",
    "ProvenanceTracker",
    "RangeSet",
    "SinkReport",
    "SourceRecord",
    "StorageStats",
    "TimelinePoint",
    "TrackerStats",
    "entry_capacity",
    "load",
    "paper_default_storage",
    "parse_fault_spec",
    "store",
    "track_trace",
]
