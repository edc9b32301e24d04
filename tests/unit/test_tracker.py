"""Unit tests for Algorithm 1 (the tainting-window heuristic)."""

import pytest

from repro.core.config import PIFTConfig
from repro.core.events import load, store
from repro.core.ranges import AddressRange
from repro.core.tracker import PIFTTracker, track_trace


SRC = AddressRange(0x1000, 0x1003)


def make_tracker(ni=5, nt=2, untainting=True, **kwargs):
    tracker = PIFTTracker(
        PIFTConfig(window_size=ni, max_propagations=nt, untainting=untainting),
        **kwargs,
    )
    tracker.taint_source(SRC)
    return tracker


class TestConfig:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            PIFTConfig(window_size=0)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            PIFTConfig(max_propagations=0)

    def test_aliases(self):
        cfg = PIFTConfig(window_size=13, max_propagations=3)
        assert cfg.ni == 13
        assert cfg.nt == 3

    def test_with_untainting(self):
        cfg = PIFTConfig().with_untainting(False)
        assert not cfg.untainting

    def test_str_mentions_parameters(self):
        assert "NI=13" in str(PIFTConfig(13, 3))


class TestTaintedLoadOpensWindow:
    def test_store_in_window_is_tainted(self):
        t = make_tracker(ni=5, nt=2)
        t.observe(load(0x1000, 0x1003, 0))  # tainted load at k=0
        t.observe(store(0x2000, 0x2003, 3))  # k=3 <= 0+5
        assert t.check(AddressRange(0x2000, 0x2003))

    def test_store_at_window_edge_is_tainted(self):
        # Algorithm 1 line 17: k <= LTLT + NI is inclusive.
        t = make_tracker(ni=5, nt=2)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 5))
        assert t.check(AddressRange(0x2000, 0x2003))

    def test_store_past_window_not_tainted(self):
        t = make_tracker(ni=5, nt=2)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 6))
        assert not t.check(AddressRange(0x2000, 0x2003))

    def test_untainted_load_does_not_open_window(self):
        t = make_tracker(ni=5, nt=2)
        t.observe(load(0x5000, 0x5003, 0))  # clean load
        t.observe(store(0x2000, 0x2003, 2))
        assert not t.check(AddressRange(0x2000, 0x2003))

    def test_partial_overlap_load_opens_window(self):
        t = make_tracker()
        t.observe(load(0x0FFE, 0x1001, 0))  # straddles the source start
        t.observe(store(0x2000, 0x2003, 2))
        assert t.check(AddressRange(0x2000, 0x2003))

    def test_window_restarts_on_new_tainted_load(self):
        t = make_tracker(ni=5, nt=1)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 2))  # consumes the only propagation
        t.observe(load(0x1000, 0x1003, 4))  # restart: nt resets to 0
        t.observe(store(0x3000, 0x3003, 6))
        assert t.check(AddressRange(0x3000, 0x3003))


class TestPropagationCap:
    def test_nt_limits_stores_tainted(self):
        t = make_tracker(ni=10, nt=2)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 1))
        t.observe(store(0x2010, 0x2013, 2))
        t.observe(store(0x2020, 0x2023, 3))  # third store: past NT cap
        assert t.check(AddressRange(0x2000, 0x2003))
        assert t.check(AddressRange(0x2010, 0x2013))
        assert not t.check(AddressRange(0x2020, 0x2023))

    def test_stats_count_taint_operations(self):
        t = make_tracker(ni=10, nt=2)
        t.observe(load(0x1000, 0x1003, 0))
        for i, base in enumerate((0x2000, 0x2010, 0x2020), start=1):
            t.observe(store(base, base + 3, i))
        assert t.stats.taint_operations == 2


class TestUntainting:
    def test_out_of_window_store_untaints(self):
        t = make_tracker(ni=5, nt=2, untainting=True)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 2))  # tainted
        assert t.check(AddressRange(0x2000, 0x2003))
        # Much later, a clean store overwrites the tainted region.
        t.observe(store(0x2000, 0x2003, 100))
        assert not t.check(AddressRange(0x2000, 0x2003))

    def test_untainting_disabled_keeps_taint(self):
        t = make_tracker(ni=5, nt=2, untainting=False)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 2))
        t.observe(store(0x2000, 0x2003, 100))
        assert t.check(AddressRange(0x2000, 0x2003))

    def test_untaint_op_counted_only_when_taint_removed(self):
        t = make_tracker(ni=5, nt=2, untainting=True)
        t.observe(store(0x9000, 0x9003, 50))  # never tainted: no-op
        assert t.stats.untaint_operations == 0
        t.observe(load(0x1000, 0x1003, 60))
        t.observe(store(0x9000, 0x9003, 61))
        t.observe(store(0x9000, 0x9003, 200))  # out of window: real untaint
        assert t.stats.untaint_operations == 1

    def test_over_cap_store_untaints_when_enabled(self):
        # Algorithm 1 line 20-22: the else branch covers both out-of-window
        # and past-NT stores.
        t = make_tracker(ni=10, nt=1, untainting=True)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 1))  # tainted (first)
        t.observe(load(0x1000, 0x1003, 2))  # window restarts, nt = 0
        t.observe(store(0x3000, 0x3003, 3))  # tainted (first of new window)
        t.observe(store(0x2000, 0x2003, 4))  # second store: past cap; untaint
        assert not t.check(AddressRange(0x2000, 0x2003))
        assert t.check(AddressRange(0x3000, 0x3003))


class TestSourceRegistrationAndCheck:
    def test_source_itself_is_tainted(self):
        t = make_tracker()
        assert t.check(SRC)
        assert t.check(AddressRange(0x1001, 0x1001))

    def test_clean_range_not_tainted(self):
        t = make_tracker()
        assert not t.check(AddressRange(0x9000, 0x9003))


class TestChainedPropagation:
    def test_taint_flows_through_copy_chain(self):
        """load src -> store A; load A -> store B; load B -> store C."""
        t = make_tracker(ni=3, nt=1)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 1))
        t.observe(load(0x2000, 0x2003, 10))
        t.observe(store(0x3000, 0x3003, 11))
        t.observe(load(0x3000, 0x3003, 20))
        t.observe(store(0x4000, 0x4003, 21))
        assert t.check(AddressRange(0x4000, 0x4003))

    def test_broken_chain_does_not_propagate(self):
        t = make_tracker(ni=3, nt=1)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 1))
        t.observe(load(0x5000, 0x5003, 10))  # clean load: no window
        t.observe(store(0x3000, 0x3003, 11))
        assert not t.check(AddressRange(0x3000, 0x3003))


class TestPerProcessIsolation:
    def test_taint_is_per_pid(self):
        t = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        t.taint_source(SRC, pid=1)
        assert t.check(SRC, pid=1)
        assert not t.check(SRC, pid=2)

    def test_window_state_is_per_pid(self):
        t = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        t.taint_source(SRC, pid=1)
        t.observe(load(0x1000, 0x1003, 0, pid=1))  # opens window for pid 1
        t.observe(store(0x2000, 0x2003, 1, pid=2))  # pid 2 has no window
        assert not t.check(AddressRange(0x2000, 0x2003), pid=2)
        t.observe(store(0x2000, 0x2003, 2, pid=1))
        assert t.check(AddressRange(0x2000, 0x2003), pid=1)


class TestMultiProcessAccounting:
    """§3.3: instruction counters are per-process, so totals must sum
    per-PID high-water marks — a single global high-water undercounts."""

    def test_two_pid_instructions_sum_not_max(self):
        t = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        t.observe(load(0x1000, 0x1003, 99, pid=1))   # pid 1 at k=99
        t.observe(load(0x5000, 0x5003, 99, pid=2))   # pid 2 also at k=99
        # 100 instructions retired in EACH process: the regression was
        # reporting max(100, 100) == 100 instead of 200.
        assert t.stats.instructions_observed == 200
        assert t.instructions_per_pid == {1: 100, 2: 100}

    def test_interleaved_pids_never_double_count(self):
        t = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        for k in range(10):
            t.observe(load(0x1000, 0x1003, k, pid=1))
            t.observe(load(0x5000, 0x5003, k, pid=2))
        assert t.stats.instructions_observed == 20
        # Replaying an already-retired index must not re-count it.
        t.observe(load(0x1000, 0x1003, 4, pid=1))
        assert t.stats.instructions_observed == 20

    def test_snapshot_restore_keeps_per_pid_counters(self):
        t = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        t.observe(load(0x1000, 0x1003, 7, pid=1))
        t.observe(load(0x5000, 0x5003, 3, pid=2))
        payload = t.snapshot()
        clone = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        clone.restore(payload)
        assert clone.instructions_per_pid == t.instructions_per_pid

    def test_event_trace_counts_sum_of_per_pid_maxima(self):
        from repro.core.events import EventTrace

        trace = EventTrace()
        trace.append(load(0x1000, 0x1003, 49, pid=1))
        trace.append(load(0x5000, 0x5003, 49, pid=2))
        assert trace.instruction_count == 100
        assert trace.per_pid_instruction_counts == {1: 50, 2: 50}

    def test_event_trace_note_instruction_and_floor(self):
        from repro.core.events import EventTrace

        trace = EventTrace()
        trace.note_instruction(9, pid=1)    # non-memory instructions
        trace.note_instruction(4, pid=2)
        assert trace.instruction_count == 15
        trace.instruction_count = 40        # legacy assignment is a floor
        assert trace.instruction_count == 40
        trace.note_instruction(59, pid=2)
        assert trace.instruction_count == 70

    def test_batch_path_accounts_like_observe(self):
        events = [
            load(0x1000, 0x1003, 99, pid=1),
            load(0x5000, 0x5003, 99, pid=2),
            store(0x2000, 0x2003, 100, pid=1),
        ]
        serial = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        for event in events:
            serial.observe(event)
        batched = PIFTTracker(PIFTConfig(window_size=5, max_propagations=2))
        batched.run(events)
        assert batched.stats.instructions_observed == 201
        assert (
            batched.stats.instructions_observed
            == serial.stats.instructions_observed
        )
        assert batched.instructions_per_pid == serial.instructions_per_pid


class TestStatsAndTimeline:
    def test_counters(self):
        t = make_tracker(ni=5, nt=2)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(load(0x8000, 0x8003, 1))
        t.observe(store(0x2000, 0x2003, 2))
        assert t.stats.loads_observed == 2
        assert t.stats.stores_observed == 1
        assert t.stats.tainted_loads == 1
        assert t.stats.instructions_observed == 3

    def test_max_tainted_bytes_high_water_mark(self):
        t = make_tracker(ni=50, nt=10, untainting=True)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x200F, 1))  # 16 bytes
        peak = t.stats.max_tainted_bytes
        t.observe(store(0x2000, 0x200F, 500))  # untaint later
        assert t.stats.max_tainted_bytes == peak
        assert t.tainted_bytes < peak

    def test_timeline_recorded_when_enabled(self):
        t = make_tracker(ni=5, nt=2, record_timeline=True)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 1))
        assert t.stats.timeline
        point = t.stats.timeline[-1]
        assert point.instruction_index == 1
        assert point.tainted_bytes == t.tainted_bytes
        assert point.cumulative_operations == 1

    def test_timeline_not_recorded_by_default(self):
        t = make_tracker(ni=5, nt=2)
        t.observe(load(0x1000, 0x1003, 0))
        t.observe(store(0x2000, 0x2003, 1))
        # Source registration may or may not log, but store ops must not.
        assert all(p.instruction_index == 0 for p in t.stats.timeline)


class TestTrackTraceHelper:
    def test_one_shot_run(self):
        events = [
            load(0x1000, 0x1003, 0),
            store(0x2000, 0x2003, 1),
        ]
        tracker = track_trace(
            events,
            sources=[(SRC, 0)],
            config=PIFTConfig(window_size=5, max_propagations=2),
        )
        assert tracker.check(AddressRange(0x2000, 0x2003))
