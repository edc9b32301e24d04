"""Unit tests for the vectorised columnar kernel and its dispatch gates.

The property suite (``tests/property/test_batch_parity.py``) proves
observational equivalence on random streams; these tests pin the
*mechanics* — dispatcher gating, column/interval mirror caching, block
adaptation, and the bounded density bail-out with its re-probe — with
deterministic traces.
"""

import pickle

import pytest

from repro.core import vectorized
from repro.core.config import PIFTConfig
from repro.core.events import ColumnArrays, EventColumns, load, store
from repro.core.ranges import AddressRange, RangeSet
from repro.core.taint_storage import paper_default_storage
from repro.core.tracker import _VECTORIZED_MIN_EVENTS, PIFTTracker

SOURCE = AddressRange(0, 15)


def untainted_stream(count, start_index=0, pid=0):
    """Loads/stores far away from SOURCE: every event is irrelevant."""
    out = []
    for i in range(count):
        base = 10_000 + 16 * i
        maker = load if i % 2 == 0 else store
        out.append(maker(base, base + 3, start_index + i, pid))
    return out


def tainting_stream(count, start_index=0, pid=0):
    """Every load hits SOURCE: maximally relevant (dense) trace."""
    out = []
    for i in range(count):
        maker = load if i % 2 == 0 else store
        out.append(maker(0, 3, start_index + i, pid))
    return out


def churn_stream(count, start_index=0, pid=0):
    """Taint/untaint churn: every store is a content mutation.

    With ``window_size=50, max_propagations=1``: each triple is a hit
    load (reopens the window), a store tainting a fresh disjoint range
    (cap reached), then a store over the previous triple's range — past
    the cap and overlapping, so it untaints.  Every event is relevant,
    so the kernel skips nothing and the density bail-out engages.
    """
    out = []
    for i in range(count):
        k = start_index + i
        phase = i % 3
        if phase == 0:
            out.append(load(0, 3, k, pid))
        elif phase == 1:
            base = 20_000 + i * 8
            out.append(store(base, base + 3, k, pid))
        else:
            base = 20_000 + (i - 1) * 8
            out.append(store(base, base + 3, k, pid))
    return out


def make_tracker(vectorized_on=True, **kwargs):
    tracker = PIFTTracker(PIFTConfig(vectorized=vectorized_on), **kwargs)
    tracker.taint_source(SOURCE)
    return tracker


class TestDispatch:
    def test_long_rangeset_slice_uses_kernel(self, monkeypatch):
        calls = []
        real = vectorized.observe_columns
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: calls.append(a) or real(*a),
        )
        tracker = make_tracker()
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS)
            )
        )
        assert len(calls) == 1

    def test_short_slice_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used on short slice"),
        )
        tracker = make_tracker()
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS - 1)
            )
        )
        assert tracker.stats.loads_observed > 0

    def test_config_off_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used with vectorized=False"),
        )
        tracker = make_tracker(vectorized_on=False)
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS * 2)
            )
        )

    def test_bounded_backend_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used with bounded backend"),
        )
        tracker = PIFTTracker(
            PIFTConfig(vectorized=True), state_factory=paper_default_storage
        )
        tracker.taint_source(SOURCE)
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS * 2)
            )
        )

    def test_telemetry_hub_keeps_the_kernel(self, monkeypatch):
        """A live hub does not choose the route: a long slice still
        enters the kernel, and nothing is bound on the instance."""
        from repro.telemetry import Telemetry

        calls = []
        real = vectorized.observe_columns
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: calls.append(a[2:]) or real(*a),
        )
        tracker = PIFTTracker(
            PIFTConfig(vectorized=True), telemetry=Telemetry()
        )
        tracker.taint_source(SOURCE)
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS)
            )
        )
        assert calls == [(0, _VECTORIZED_MIN_EVENTS)]
        assert not {"observe", "taint_source", "check"} & set(
            tracker.__dict__
        )

    def test_forced_hook_runs_kernel_on_short_slices(self, monkeypatch):
        calls = []
        real = vectorized.observe_columns
        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: calls.append(a) or real(*a),
        )
        tracker = make_tracker()
        tracker.observe_columns_vectorized(
            EventColumns.from_events(untainted_stream(8))
        )
        assert len(calls) == 1


class TestColumnArrays:
    def test_arrays_cached_per_columns(self):
        columns = EventColumns.from_events(untainted_stream(10))
        first = columns.arrays()
        assert isinstance(first, ColumnArrays)
        assert columns.arrays() is first

    def test_arrays_match_columns(self):
        stream = untainted_stream(6, pid=3) + tainting_stream(
            6, start_index=6, pid=5
        )
        arrays = EventColumns.from_events(stream).arrays()
        assert arrays.starts.tolist() == [
            e.address_range.start for e in stream
        ]
        assert arrays.ends.tolist() == [e.address_range.end for e in stream]
        assert arrays.is_load.tolist() == [e.is_load for e in stream]
        assert arrays.indices.tolist() == [
            e.instruction_index for e in stream
        ]
        assert arrays.pids.tolist() == [e.pid for e in stream]
        assert arrays.pid_values == (3, 5)

    def test_pickle_carries_only_the_int_columns(self):
        stream = untainted_stream(6, pid=3) + tainting_stream(
            6, start_index=6, pid=5
        )
        columns = EventColumns.from_events(stream)
        columns.arrays()
        clone = pickle.loads(pickle.dumps(columns))
        assert clone._events is None and clone._arrays is None
        assert (clone.is_loads, clone.starts, clone.ends, clone.indices,
                clone.pids) == (columns.is_loads, columns.starts,
                                columns.ends, columns.indices, columns.pids)
        assert clone.events == stream

    def test_append_grows_objects_only_once_built(self):
        stream = untainted_stream(3)
        columns = EventColumns.empty()
        for event in stream[:2]:
            columns.append(event)
        assert columns._events is None
        assert columns.events == stream[:2]
        columns.append(stream[2])
        assert columns._events == stream


class TestRangeSetMirror:
    def test_mirror_matches_and_caches(self):
        rs = RangeSet()
        rs.add(AddressRange(10, 19))
        rs.add(AddressRange(40, 49))
        starts, ends = rs.as_arrays()
        assert starts.tolist() == [10, 40]
        assert ends.tolist() == [19, 49]
        again = rs.as_arrays()
        assert again[0] is starts and again[1] is ends

    def test_mirror_refreshes_on_mutation(self):
        rs = RangeSet()
        rs.add(AddressRange(10, 19))
        rs.as_arrays()
        rs.add(AddressRange(30, 39))
        starts, ends = rs.as_arrays()
        assert starts.tolist() == [10, 30]
        rs.remove(AddressRange(10, 19))
        starts, ends = rs.as_arrays()
        assert starts.tolist() == [30]
        assert ends.tolist() == [39]

    def test_total_size_incremental(self):
        rs = RangeSet()
        rs.add(AddressRange(0, 9))
        rs.add(AddressRange(20, 29))
        assert rs.total_size == 20
        rs.add(AddressRange(5, 24))  # merges everything into [0, 29]
        assert rs.total_size == 30
        rs.remove(AddressRange(10, 19))
        assert rs.total_size == 20
        rs.clear()
        assert rs.total_size == 0


class TestKernelMechanics:
    def test_skip_accounts_counters_exactly(self):
        stream = untainted_stream(2000)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(EventColumns.from_events(stream))
        tracker = make_tracker()
        tracker.observe_columns_vectorized(EventColumns.from_events(stream))
        assert tracker.stats.as_dict() == reference.stats.as_dict()

    def test_multi_pid_skip_accounting(self):
        stream = []
        for i in range(400):
            stream.extend(untainted_stream(1, start_index=i, pid=i % 3))
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(EventColumns.from_events(stream))
        tracker = make_tracker()
        tracker.observe_columns_vectorized(EventColumns.from_events(stream))
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        assert tracker.instructions_per_pid == reference.instructions_per_pid

    def test_churn_trace_bails_out_bounded_and_reprobes(self, monkeypatch):
        # Taint/untaint churn leaves nothing to skip (every event is
        # relevant), so the density bail-out engages — but in
        # bounded REPROBE_EVERY chunks, and once the sparse tail starts
        # the kernel re-probes and regains wholesale skipping.
        prefix = churn_stream(vectorized.BAILOUT_AFTER * 6)
        tail_start = len(prefix)
        stream = prefix + untainted_stream(
            vectorized.REPROBE_EVERY * 4, start_index=tail_start
        )
        columns = EventColumns.from_events(stream)
        config = PIFTConfig(window_size=50, max_propagations=1)
        tracker = PIFTTracker(config)
        tracker.taint_source(SOURCE)
        spans = []
        real = tracker.observe_columns_scalar

        def spy(cols, start=0, stop=None):
            spans.append((start, stop))
            return real(cols, start, stop)

        monkeypatch.setattr(tracker, "observe_columns_scalar", spy)
        tracker.observe_columns_vectorized(columns)
        assert spans, "churn prefix should force scalar spans"
        # Satellite: no span may hand the whole remainder to the scalar
        # loop — every bail-out chunk is bounded.
        assert all(
            stop - start <= vectorized.REPROBE_EVERY
            for start, stop in spans
        )
        # The sparse tail is re-probed and skipped, not nibbled scalar.
        tail_margin = tail_start + vectorized.REPROBE_EVERY
        assert all(start < tail_margin for start, _ in spans)
        reference = PIFTTracker(config)
        reference.taint_source(SOURCE)
        reference.observe_columns_scalar(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        assert tracker.snapshot() == reference.snapshot()

    def test_window_lower_edge_excludes_regressed_stores(self):
        # A store whose per-PID index regressed below the window-opening
        # load is outside the tainting window (the window is the NI
        # instructions *following* the load) — on all three paths.
        config = PIFTConfig(
            window_size=10, max_propagations=4, untainting=False
        )
        stream = [load(0, 3, 100)]  # opens the window at k=100
        stream += [store(5_000, 5_003, 50)]  # regressed: below the load
        stream += [store(6_000, 6_003, 105)]  # inside [100, 110]
        stream += untainted_stream(1200, start_index=200)
        columns = EventColumns.from_events(stream)
        trackers = []
        for _ in range(3):
            tracker = PIFTTracker(config)
            tracker.taint_source(SOURCE)
            trackers.append(tracker)
        for event in columns.events:
            trackers[0].observe(event)
        trackers[1].observe_columns_scalar(columns)
        trackers[2].observe_columns_vectorized(columns)
        for tracker in trackers:
            assert tracker.stats.taint_operations == 1
            assert not tracker.check(AddressRange(5_000, 5_003))
            assert tracker.check(AddressRange(6_000, 6_003))
        assert trackers[0].snapshot() == trackers[1].snapshot()
        assert trackers[1].snapshot() == trackers[2].snapshot()

    def test_mostly_untainted_trace_skips_wholesale(self, monkeypatch):
        stream = untainted_stream(vectorized.BLOCK_MIN * 8)
        columns = EventColumns.from_events(stream)
        tracker = make_tracker()
        monkeypatch.setattr(
            tracker,
            "observe_columns_scalar",
            lambda *a, **k: pytest.fail(
                "scalar loop used on fully-irrelevant trace"
            ),
        )
        tracker.observe_columns_vectorized(columns)
        assert tracker.stats.loads_observed == len(columns) // 2
        assert tracker.stats.stores_observed == len(columns) - (
            len(columns) // 2
        )

    def test_kernel_respects_slice_bounds(self):
        stream = untainted_stream(1500)
        columns = EventColumns.from_events(stream)
        tracker = make_tracker()
        tracker.observe_columns_vectorized(columns, 100, 900)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(columns, 100, 900)
        assert tracker.stats.as_dict() == reference.stats.as_dict()

    def test_window_relevance_catches_far_stores(self):
        # A tainted load opens a window; a store to a far-away address
        # inside the window must still be classified relevant (it gets
        # tainted), not skipped as "no overlap".
        config = PIFTConfig(window_size=10, max_propagations=2)
        stream = [load(0, 3, 0)]  # tainted load at SOURCE
        stream += [store(50_000 + 8 * i, 50_003 + 8 * i, 2 + i) for i in range(4)]
        stream += untainted_stream(1200, start_index=100)
        columns = EventColumns.from_events(stream)
        tracker = PIFTTracker(config)
        tracker.taint_source(SOURCE)
        tracker.observe_columns_vectorized(columns)
        reference = PIFTTracker(config)
        reference.taint_source(SOURCE)
        reference.observe_columns_scalar(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        assert tracker.snapshot() == reference.snapshot()
        assert tracker.stats.taint_operations >= 2
