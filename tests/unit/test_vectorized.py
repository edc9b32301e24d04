"""Unit tests for the vectorised columnar kernel and its dispatch gates.

The property suite (``tests/property/test_batch_parity.py``) proves
observational equivalence on random streams; these tests pin the
*mechanics* — dispatcher gating, column/interval mirror caching, block
adaptation, and the dense-trace bail-out — with deterministic traces.
"""

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
    the cap and overlapping, so it untaints.  The dense executor's
    mutation budget trips immediately, forcing the density bail-out.
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

    def test_telemetry_shadow_stays_per_event(self, monkeypatch):
        from repro.telemetry import Telemetry

        monkeypatch.setattr(
            vectorized,
            "observe_columns",
            lambda *a: pytest.fail("kernel used under telemetry shadow"),
        )
        tracker = PIFTTracker(
            PIFTConfig(vectorized=True), telemetry=Telemetry()
        )
        tracker.taint_source(SOURCE)
        tracker.observe_columns(
            EventColumns.from_events(
                untainted_stream(_VECTORIZED_MIN_EVENTS * 2)
            )
        )
        assert tracker.stats.loads_observed > 0

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


class TestAddSteps:
    """The dense executor's one taint commit, ``_add_steps``: sequential
    adds with per-step reports and the extent its mask patch relies on."""

    def test_extent_covers_every_touched_range(self):
        s = RangeSet(
            [AddressRange(0, 4), AddressRange(100, 104), AddressRange(300, 304)]
        )
        extent, steps = vectorized._add_steps(s, [(3, 10), (98, 99)], 1)
        # [0,4] merged with [3,10] -> [0,10]; [98,99] adjacent to [100,104]
        # -> [98,104]; [300,304] untouched.
        assert extent == (0, 104)
        assert steps == [(21, 3), (23, 3)]
        assert list(s) == [
            AddressRange(0, 10),
            AddressRange(98, 104),
            AddressRange(300, 304),
        ]

    def test_coloured_add_reports_per_step_counts(self):
        # One add spanning two gapped differently-masked ranges raises
        # the range count by 3 (splits at both colour boundaries) — no
        # static per-add budget bounds this, which is why the executor's
        # high-water bookkeeping folds the per-step counts.
        from repro.core.colours import ColourRangeSet

        imei, gps, sms = 0b001, 0b010, 0b100
        crs = ColourRangeSet()
        crs.add(AddressRange(1, 1), imei)
        crs.add(AddressRange(3, 3), gps)
        extent, steps = vectorized._add_steps(crs, [(0, 4)], sms)
        assert extent == (0, 4)
        assert steps == [(5, 5)]
        assert list(crs.items()) == [
            (0, 0, sms),
            (1, 1, imei | sms),
            (2, 2, sms),
            (3, 3, gps | sms),
            (4, 4, sms),
        ]


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

    def test_dense_trace_executes_vectorised(self, monkeypatch):
        # The taint-dense regime that used to bail out wholesale now runs
        # through the dense executor: window evolution and contained
        # taint-adds are bulk-committed, with no scalar spans at all.
        stream = tainting_stream(vectorized.BAILOUT_AFTER * 4)
        columns = EventColumns.from_events(stream)
        tracker = make_tracker()
        monkeypatch.setattr(
            tracker,
            "observe_columns_scalar",
            lambda *a, **k: pytest.fail("scalar loop used on dense trace"),
        )
        tracker.observe_columns_vectorized(columns)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()

    def test_churn_trace_bails_out_bounded_and_reprobes(self, monkeypatch):
        # Taint/untaint churn defeats the dense executor (every event is
        # a content mutation), so the density bail-out engages — but in
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

    def test_numpy_absence_falls_back_scalar_with_one_warning(
        self, monkeypatch
    ):
        stream = tainting_stream(600)
        columns = EventColumns.from_events(stream)
        monkeypatch.setattr(vectorized, "_np", None)
        monkeypatch.setattr(vectorized, "_numpy_fallback_warned", False)
        monkeypatch.setattr(
            EventColumns,
            "arrays",
            lambda self: pytest.fail("fallback must not build numpy arrays"),
        )
        tracker = make_tracker()
        with pytest.warns(RuntimeWarning, match="falling back"):
            tracker.observe_columns_vectorized(columns)
        reference = make_tracker(vectorized_on=False)
        reference.observe_columns_scalar(columns)
        assert tracker.stats.as_dict() == reference.stats.as_dict()
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # second call: no warning
            tracker.observe_columns_vectorized(columns)

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


class TestNumpyAbsentReplayDegradation:
    """Replay-level numpy degradation: with numpy gone, both the plain and
    the coloured replay must fall back to the scalar loop behind exactly
    one RuntimeWarning — and produce verdicts identical to the
    numpy-enabled run (the fallback is an execution strategy, never a
    semantics change)."""

    @staticmethod
    def _recorded_run():
        import random

        from repro.android.device import (
            RecordedRun, SinkCheck, SourceRegistration,
        )
        from repro.core.events import load as mk_load, store as mk_store

        rng = random.Random(7)
        run = RecordedRun()
        for slot, name in enumerate(("imei", "location")):
            lo = slot * 8192
            run.sources.append(
                SourceRegistration(AddressRange(lo, lo + 4095), 0, name)
            )
        index = 0
        for i in range(800):
            index += 1
            if i % 5 == 0:
                lo = (i // 5) % 2 * 8192
                a = lo + rng.randrange(0, 4080)
                run.trace.append(mk_load(a, a + 3, index))
            else:
                a = 1 << 16 | rng.randrange(0, 2040)
                run.trace.append(mk_store(a, a + 7, index))
        run.trace.note_instruction(index + 1)
        run.sink_checks.append(
            SinkCheck(
                AddressRange(1 << 16, (1 << 16) + 255),
                index + 1, "network", "socket",
            )
        )
        return run

    def test_replays_degrade_with_one_warning_and_identical_verdicts(
        self, monkeypatch
    ):
        import warnings

        from repro.analysis.replay import replay, replay_coloured
        from repro.core import PIFTConfig

        recorded = self._recorded_run()
        config = PIFTConfig(window_size=13, max_propagations=3)

        def verdicts(result):
            return [
                (o.sink_name, o.channel, o.instruction_index, o.pid,
                 o.tainted, o.colours)
                for o in result.sink_outcomes
            ]

        with_numpy_plain = verdicts(replay(recorded, config))
        with_numpy_coloured = verdicts(replay_coloured(recorded, config))

        monkeypatch.setattr(vectorized, "_np", None)
        monkeypatch.setattr(vectorized, "_numpy_fallback_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            without_numpy_plain = verdicts(replay(recorded, config))
            without_numpy_coloured = verdicts(replay_coloured(recorded, config))
        fallback_warnings = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "falling back" in str(w.message)
        ]
        assert len(fallback_warnings) == 1  # one-shot across both replays

        assert without_numpy_plain == with_numpy_plain
        assert without_numpy_coloured == with_numpy_coloured
        # The replay actually exercised taint: at least one tainted
        # verdict with attributed colours, or the parity claim is vacuous.
        assert any(v[4] for v in without_numpy_coloured)
        assert all(v[4] == bool(v[5]) for v in without_numpy_coloured)
