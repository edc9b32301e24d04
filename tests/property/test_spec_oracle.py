"""Spec oracle: every executor against Algorithm 1 transcribed from §3.1.

The parity suites prove the executors agree with each other; a bug in the
window logic that lives in every path at once passes them all.  This
oracle is written from the paper, not from the production data
structures: taint is a ``dict`` of byte -> colour mask per PID, and the
window is ``(last tainted load, propagations, mask)`` with both edges
checked.  It imports no ``RangeSet``, ``ColourRangeSet``, numpy or
``repro.core.vectorized``.

Hypothesis drives the plain and the coloured tracker through per-event
``observe``, ``observe_columns_scalar`` and ``observe_columns_vectorized``
on multi-PID streams of same-PID bursts whose per-PID indices can
regress, and compares the seven ``TrackerStats`` counters,
``instructions_observed``, the mask at each sink, and the final taint
state byte for byte.

The oracle also computes the ``(NI, NT)`` box its store decisions hold
over, which every executor must report (``decision_box``), and a run of
the oracle anywhere inside that box must repeat the original run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colours import ColourSpace
from repro.core.config import PIFTConfig
from repro.core.events import AccessKind, EventColumns, MemoryAccess
from repro.core.ranges import AddressRange
from repro.core.tracker import ColourTracker, PIFTTracker

COUNTERS = (
    "instructions_observed", "loads_observed", "stores_observed",
    "tainted_loads", "taint_operations", "untaint_operations",
    "max_tainted_bytes", "max_range_count",
)
COLOURS = ("imei", "location", "phone_number")


class SpecPIFT:
    """Algorithm 1 (§3.1) over per-PID byte -> colour-mask dicts."""

    def __init__(self, config: PIFTConfig) -> None:
        self.ni, self.nt = config.window_size, config.max_propagations
        self.untainting = config.untainting
        self.taint = {}    # pid -> {byte: mask}
        self.window = {}   # pid -> (last tainted load, propagations, mask)
        self.retired = {}  # pid -> highest instruction index + 1
        self.runs = {}     # pid -> ranges (maximal equal-mask byte runs)
        self.stats = dict.fromkeys(COUNTERS, 0)
        self.reach = 0     # A: widest k - last tainted load of a taint
        self.most = 0      # B: most stores one window tainted

    def mask(self, start, end, pid):
        taint = self.taint.get(pid, {})
        mask = 0
        for byte in range(start, end + 1):
            mask |= taint.get(byte, 0)
        return mask

    def source(self, start, end, pid, mask):
        taint = self.taint.setdefault(pid, {})
        for byte in range(start, end + 1):
            taint[byte] = taint.get(byte, 0) | mask
        self.mutated(pid)

    def step(self, is_load, start, end, k, pid):
        stats = self.stats
        retired = self.retired.get(pid, 0)
        if k >= retired:
            stats["instructions_observed"] += k + 1 - retired
            self.retired[pid] = k + 1
        if is_load:
            stats["loads_observed"] += 1
            mask = self.mask(start, end, pid)
            if mask:
                self.window[pid] = (k, 0, mask)
                stats["tainted_loads"] += 1
            return
        stats["stores_observed"] += 1
        last, propagations, mask = self.window.get(pid, (None, 0, 0))
        taint = self.taint.setdefault(pid, {})
        if (last is not None and last <= k <= last + self.ni
                and propagations < self.nt):
            self.window[pid] = (last, propagations + 1, mask)
            self.reach = max(self.reach, k - last)
            self.most = max(self.most, propagations + 1)
            for byte in range(start, end + 1):
                taint[byte] = taint.get(byte, 0) | mask
            stats["taint_operations"] += 1
        elif self.untainting and self.mask(start, end, pid):
            for byte in range(start, end + 1):
                taint.pop(byte, None)
            stats["untaint_operations"] += 1
        else:
            return
        self.mutated(pid)

    def box(self):
        """``(ni_min, ni_max, nt_min, nt_max)`` of the configs that decide
        every store as this run did: a taint needs NI >= A and NT >= B;
        a capped store (which makes B = NT) needs NT <= NT; an
        out-of-window one needs NI <= NI."""
        return (max(self.reach, 1), self.ni, max(self.most, 1),
                self.nt if self.most == self.nt else None)

    def mutated(self, pid):
        taint, runs, previous = self.taint[pid], 0, None
        for byte in sorted(taint):
            if byte - 1 != previous or taint[byte] != taint[previous]:
                runs += 1
            previous = byte
        self.runs[pid] = runs
        stats = self.stats
        size = sum(len(bytes_) for bytes_ in self.taint.values())
        stats["max_tainted_bytes"] = max(stats["max_tainted_bytes"], size)
        count = sum(self.runs.values())
        stats["max_range_count"] = max(stats["max_range_count"], count)


# -- streams ------------------------------------------------------------------

events = st.tuples(
    st.booleans(),            # is_load
    st.integers(0, 160),      # start: sources live in [0, 96]
    st.integers(1, 8),        # size
    st.integers(-4, 6),       # per-PID index step; negative regresses
)
bursts = st.lists(
    st.tuples(st.integers(0, 2), st.lists(events, min_size=1, max_size=50)),
    max_size=8,
)
sources = st.lists(
    st.tuples(
        st.integers(0, len(COLOURS) - 1),
        st.integers(0, 80),
        st.integers(1, 16),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=4,
)
sinks = st.lists(
    st.tuples(
        st.integers(0, 400), st.integers(0, 160), st.integers(1, 32),
        st.integers(0, 2),
    ),
    max_size=6,
)
configs = st.builds(
    PIFTConfig, st.integers(1, 20), st.integers(1, 8), st.booleans()
)


def materialise(raw_bursts):
    cursors = {}
    stream = []
    for pid, burst in raw_bursts:
        for is_load, start, size, step in burst:
            cursors[pid] = max(0, cursors.get(pid, 0) + step)
            stream.append(
                MemoryAccess(
                    AccessKind.LOAD if is_load else AccessKind.STORE,
                    AddressRange.from_base_size(start, size),
                    cursors[pid],
                    pid,
                )
            )
    return stream


# -- harness ------------------------------------------------------------------


def byte_map(tracker, coloured):
    """``{pid: {byte: mask}}`` read from the tracker's state snapshot."""
    result = {}
    for pid, state in tracker.snapshot()["states"].items():
        masks = state["masks"] if coloured else [1] * len(state["starts"])
        taint = {}
        for start, end, mask in zip(state["starts"], state["ends"], masks):
            for byte in range(start, end + 1):
                taint[byte] = mask
        if taint:
            result[int(pid)] = taint
    return result


def new_tracker(config, coloured):
    if coloured:
        return ColourTracker(config, colours=ColourSpace(COLOURS))
    return PIFTTracker(config)


def run_tracker(config, coloured, how, stream, source_list, sink_list,
                keep=None):
    tracker = new_tracker(config, coloured)
    for colour, start, size, pid in source_list:
        extra = {"colour": COLOURS[colour]} if coloured else {}
        tracker.taint_source(
            AddressRange.from_base_size(start, size), pid=pid, **extra
        )
    columns = EventColumns.from_events(stream)
    position = 0
    observed = []
    for at, start, size, pid in sink_list:
        if how == "observe":
            for event in stream[position:at]:
                tracker.observe(event)
        elif how == "scalar":
            tracker.observe_columns_scalar(columns, position, at)
        else:
            tracker.observe_columns_vectorized(columns, position, at)
        position = at
        sink = AddressRange.from_base_size(start, size)
        if coloured:
            observed.append(tracker.check_mask(sink, pid=pid))
        else:
            observed.append(int(tracker.check(sink, pid=pid)))
    stats = tracker.stats.as_dict()
    counters = {name: stats[name] for name in COUNTERS}
    if keep is not None:
        keep.append(tracker)
    return counters, observed, byte_map(tracker, coloured)


def run_spec(config, coloured, stream, source_list, sink_list, keep=None):
    spec = SpecPIFT(config)
    if keep is not None:
        keep.append(spec)
    for colour, start, size, pid in source_list:
        spec.source(start, start + size - 1, pid,
                    1 << colour if coloured else 1)
    position = 0
    observed = []
    for at, start, size, pid in sink_list:
        for event in stream[position:at]:
            r = event.address_range
            spec.step(event.is_load, r.start, r.end,
                      event.instruction_index, event.pid)
        position = at
        observed.append(spec.mask(start, start + size - 1, pid))
    taint = {pid: bytes_ for pid, bytes_ in spec.taint.items() if bytes_}
    return spec.stats, observed, taint


@given(bursts, sources, sinks, configs, st.booleans())
@settings(max_examples=200, deadline=None)
def test_executors_match_the_spec(raw, source_list, sink_list, config,
                                  coloured):
    stream = materialise(raw)
    # Sinks fire between events; a final one covers every source.
    sink_list = sorted(
        (min(at, len(stream)), start, size, pid)
        for at, start, size, pid in sink_list
    ) + [(len(stream), 0, 200, pid) for pid in range(3)]
    expected = run_spec(config, coloured, stream, source_list, sink_list)
    for how in ("observe", "scalar", "vectorized"):
        assert run_tracker(
            config, coloured, how, stream, source_list, sink_list
        ) == expected, how


# -- the decision box ----------------------------------------------------------

#: Bursts repeated until the stream is at least this long, so the forced
#: kernel classifies whole blocks and the final slice is one long call.
LONG = 512

long_bursts = st.lists(
    st.tuples(st.integers(0, 2), st.lists(events, min_size=1, max_size=40)),
    min_size=1,
    max_size=6,
)


def as_box(box):
    return (box.ni_min, box.ni_max, box.nt_min, box.nt_max)


@given(long_bursts, sources, sinks, configs, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_decision_box_matches_the_spec(raw, source_list, sink_list, config,
                                       coloured, data):
    """Every executor reports the oracle's box; the oracle run anywhere
    inside it repeats the counters, sink masks and taint bytes; and a
    restored tracker reports only its own config."""
    length = sum(len(burst) for _, burst in raw)
    stream = materialise(raw * -(-LONG // length))
    # Sinks land at least LONG events before the end: the last slice is
    # one long observe_columns call.
    sink_list = sorted(
        (min(at, len(stream) - LONG), start, size, pid)
        for at, start, size, pid in sink_list
    ) + [(len(stream), 0, 200, pid) for pid in range(3)]
    specs = []
    expected = run_spec(config, coloured, stream, source_list, sink_list,
                        keep=specs)
    box = specs[0].box()
    for how in ("observe", "scalar", "vectorized"):
        trackers = []
        assert run_tracker(config, coloured, how, stream, source_list,
                           sink_list, keep=trackers) == expected, how
        reported = as_box(trackers[0].decision_box())
        assert reported == box, how
        restored = new_tracker(config, coloured)
        restored.restore(trackers[0].snapshot())
        own = (config.window_size, config.window_size,
               config.max_propagations, config.max_propagations)
        assert as_box(restored.decision_box()) == own, how

    # Both corners of the box and one point drawn inside it.
    ni_min, ni_max, nt_min, nt_max = box
    nt_top = nt_max if nt_max is not None else nt_min + 12
    drawn = (data.draw(st.integers(ni_min, ni_max), label="ni"),
             data.draw(st.integers(nt_min, nt_top), label="nt"))
    for ni, nt in ((ni_min, nt_min), (ni_max, nt_top), drawn):
        inside = PIFTConfig(ni, nt, config.untainting)
        assert run_spec(inside, coloured, stream, source_list,
                        sink_list) == expected, (ni, nt)
