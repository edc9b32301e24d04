"""Wire protocol and the streaming suite loader for `repro serve`.

Covers frame encode/decode, the replay-plan-ordered ``run_to_frames``
framing (the ordering contract behind fleet parity), and the streaming
loader the fleet client feeds on: the incremental ``iter_suite_runs``
suite reader.
"""

import gzip

import pytest

from repro.analysis.accuracy import AppRun
from repro.analysis.replay import replay
from repro.analysis.tracefile import FORMAT_VERSION, TraceFormatError
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.config import PIFTConfig
from repro.core.events import EventTrace, load, store
from repro.core.ranges import AddressRange
from repro.serve import protocol
from repro.store.suitefile import (
    dump_suite_bytes,
    iter_suite_runs,
    load_suite_bytes,
)
from test_replay_walk import oracle_frames

CONFIG = PIFTConfig(5, 2)


def make_run(pids=(0,), rounds=6, leak=True):
    """A synthetic multi-PID recorded run with one check per PID."""
    events, sources, checks = [], [], []
    top = 0
    for i, pid in enumerate(pids):
        src = 0x1000 + 0x100000 * i
        dst = 0x8000 + 0x100000 * i
        sources.append(
            SourceRegistration(
                AddressRange(src, src + 0xF), 0, f"src-{pid}", pid=pid
            )
        )
        index = 1
        for r in range(rounds):
            events.append(load(src, src + 3, index, pid))
            if leak:
                events.append(
                    store(dst + 4 * r, dst + 4 * r + 3, index + 1, pid)
                )
            index += 3
        checks.append(
            SinkCheck(
                AddressRange(dst, dst + 4 * rounds - 1), index,
                f"sink-{pid}", "net", pid=pid,
            )
        )
        checks.append(
            SinkCheck(
                AddressRange(0xF0000, 0xF0003), index + 1,
                f"clean-{pid}", "sms", pid=pid,
            )
        )
        top += index + 2
    return RecordedRun(
        trace=EventTrace(events, instruction_count=top),
        sources=sources,
        sink_checks=checks,
    )


class TestFrames:
    def test_encode_decode_round_trip(self):
        frame = {"op": "hello", "device": "d", "n": 3}
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_encoding_is_one_sorted_compact_line(self):
        line = protocol.encode_frame({"b": 1, "a": 2, "op": "x"})
        assert line == b'{"a":2,"b":1,"op":"x"}\n'

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"[1,2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b'{"no_op":1}\n')

    def test_events_frame_round_trip(self):
        events = [
            load(0x10, 0x13, 1, 0), store(0x20, 0x23, 2, 7),
            store(0x30, 0x30, 3, 0),
        ]
        decoded = protocol.decode_columns(protocol.events_frame(events))
        # One chunk per PID, in first-appearance order, frame order within.
        assert list(decoded) == [0, 7]
        assert decoded[0].events == [events[0], events[2]]
        assert decoded[7].events == [events[1]]
        assert decoded[0].is_loads == [True, False]
        assert decoded[0].indices == [1, 3]
        assert decoded[0].pids == [0, 0]
        assert decoded[0].starts == [0x10, 0x30]
        assert decoded[0].ends == [0x13, 0x30]

    def test_empty_events_frame_decodes_to_nothing(self):
        assert protocol.decode_columns(protocol.events_frame([])) == {}

    def test_events_frame_length_mismatch_rejected(self):
        frame = protocol.events_frame([load(0x10, 0x13, 1, 0)])
        frame["pids"] = []
        with pytest.raises(protocol.ProtocolError, match="length"):
            protocol.decode_columns(frame)

    def test_frame_range_rejects_missing_fields(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_range({"op": "check"})


def good_events_frame():
    return protocol.events_frame([
        load(0x1000, 0x1003, 1, 3), store(0x2000, 0x2003, 2, 3),
        load(0x3000, 0x3007, 5, 4),
    ])


class TestMalformedFramesRejected:
    """Wrongly typed or out-of-range values fail loudly; nothing is
    truncated or coerced (a float start, a ``true`` index, a string PID
    or an unknown kind character used to be read as something else)."""

    @pytest.mark.parametrize("column, position, value", [
        ("starts", 0, 4096.7),   # would truncate to 4096
        ("starts", 2, 4096.0),   # an integral float is still a float
        ("sizes", 1, 4.9),       # would truncate to 4
        ("indices", 0, True),    # would read as 1
        ("indices", 2, None),
        ("pids", 1, "3"),        # would read as pid 3
        ("pids", 2, False),
        ("starts", 1, -1),       # no negative addresses
        ("sizes", 0, 0),         # a range covers at least one byte
        ("sizes", 2, -4),
        # Everything must fit the int64 arrays of the vectorised kernel.
        ("starts", 0, 2**63),
        ("starts", 0, 2**63 - 2),  # size 4: the end passes int64
        ("sizes", 1, 2**64),
        ("indices", 1, 2**63),
        ("indices", 1, -2**63 - 1),
        ("pids", 0, 2**63),
        ("pids", 2, -2**63 - 1),
    ])
    def test_bad_column_value(self, column, position, value):
        frame = good_events_frame()
        frame[column][position] = value
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_columns(frame)

    @pytest.mark.parametrize("kinds", ["lxl", "lsS", "l s", "ll"])
    def test_bad_kinds(self, kinds):
        frame = good_events_frame()
        frame["kinds"] = kinds  # "x" used to read as a store
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_columns(frame)

    @pytest.mark.parametrize("column, value", [
        ("starts", "4096"),
        ("starts", {"0": 4096}),
        ("pids", 3),
        ("indices", None),
        ("kinds", ["l", "s", "l"]),
    ])
    def test_column_of_the_wrong_type(self, column, value):
        frame = good_events_frame()
        frame[column] = value
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_columns(frame)

    @pytest.mark.parametrize("column", ["kinds", "starts", "sizes",
                                        "indices", "pids"])
    def test_missing_column(self, column):
        frame = good_events_frame()
        del frame[column]
        with pytest.raises(protocol.ProtocolError, match="missing"):
            protocol.decode_columns(frame)

    def test_int64_extremes_are_accepted(self):
        frame = good_events_frame()
        frame["starts"][0] = 2**63 - 4  # size 4: end is the int64 maximum
        frame["indices"][1] = 2**63 - 1
        frame["pids"][2] = -2**63
        decoded = protocol.decode_columns(frame)
        assert (decoded[3].starts[0], decoded[3].ends[0]) == (2**63 - 4,
                                                              2**63 - 1)
        for columns in decoded.values():
            columns.arrays()  # fits the kernel's int64 arrays

    def test_bad_value_in_a_later_pid_rejects_the_whole_frame(self):
        frame = good_events_frame()
        frame["sizes"][2] = 2.5  # pid 4's event; pid 3's are fine
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_columns(frame)

    @pytest.mark.parametrize("start, size", [
        (4096.9, 2.5),   # used to become [0x1000, 0x1001]
        (4096, 2.0),
        (True, 4),
        (4096, False),
        ("4096", 4),
        (None, 4),
        (-1, 4),
        (4096, 0),
        (2**63, 1),
        (2**63 - 2, 4),  # the end passes int64
    ])
    def test_frame_range_rejects_bad_values(self, start, size):
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_range({"op": "check", "start": start,
                                  "size": size})

    def test_frame_range_accepts_ints(self):
        assert protocol.frame_range({"start": 4096, "size": 2}) == (
            AddressRange(0x1000, 0x1001))
        assert protocol.frame_range({"start": 2**63 - 1, "size": 1}) == (
            AddressRange(2**63 - 1, 2**63 - 1))

    @pytest.mark.parametrize("pid", [True, 3.0, 3.7, "3", None, 2**63])
    def test_frame_pid_rejects_what_an_events_frame_would(self, pid):
        frame = good_events_frame()
        frame["pids"][0] = pid
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_columns(frame)
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_pid({"op": "check", "pid": pid})

    def test_frame_pid_accepts_ints(self):
        assert protocol.frame_pid({"op": "check"}) == 0
        assert protocol.frame_pid({"op": "check", "pid": 7}) == 7


class TestRunToFrames:
    def test_framing_matches_replay_plan_order(self):
        recorded = make_run(pids=(0, 3))
        frames = list(protocol.run_to_frames(recorded, chunk=4))

        # The frame sequence is the per-event interleaving oracle's,
        # byte for byte.
        assert [protocol.encode_frame(f) for f in frames] == (
            oracle_frames(recorded, 4))

        # The decoded chunks per PID (the unit a shard tracks) hold each
        # PID's events in recorded order.
        events = recorded.trace.events
        per_pid = {}
        for f in frames:
            if f["op"] == "events":
                for pid, columns in protocol.decode_columns(f).items():
                    per_pid.setdefault(pid, []).extend(columns.events)
        assert per_pid == {
            pid: [e for e in events if e.pid == pid]
            for pid in sorted({e.pid for e in events})
        }

    def test_chunking_bounds_frame_size(self):
        recorded = make_run(rounds=10)
        frames = list(protocol.run_to_frames(recorded, chunk=3))
        sizes = [
            len(f["starts"]) for f in frames if f["op"] == "events"
        ]
        assert sizes and max(sizes) <= 3
        with pytest.raises(ValueError):
            list(protocol.run_to_frames(recorded, chunk=0))

    def test_verdict_key_mirrors_outcome_key(self):
        recorded = make_run()
        result = replay(recorded, CONFIG)
        for outcome in result.sink_outcomes:
            verdict = {
                "sink": outcome.sink_name,
                "channel": outcome.channel,
                "index": outcome.instruction_index,
                "pid": outcome.pid,
                "tainted": outcome.tainted,
                "colours": list(outcome.colours),
            }
            assert (
                protocol.verdict_key(verdict)
                == protocol.outcome_key(outcome)
            )


def make_suite(count=3):
    return [
        AppRun(
            name=f"app-{i}",
            recorded=make_run(pids=(0, i + 1), rounds=3 + i),
            leaks=bool(i % 2),
            category="synthetic",
        )
        for i in range(count)
    ]


class TestStreamingSuiteIterator:
    def equivalent(self, left, right):
        assert left.name == right.name
        assert left.leaks == right.leaks
        assert left.category == right.category
        assert left.recorded.trace.events == right.recorded.trace.events
        assert (
            replay(left.recorded, CONFIG).sink_outcomes
            == replay(right.recorded, CONFIG).sink_outcomes
        )

    def test_streamed_equals_bulk_load(self, tmp_path):
        payload = dump_suite_bytes(make_suite())
        bulk = load_suite_bytes(payload)
        streamed = list(iter_suite_runs(payload))
        assert len(streamed) == len(bulk) == 3
        for left, right in zip(streamed, bulk):
            self.equivalent(left, right)
        # Path and file-object sources behave identically.
        path = tmp_path / "suite.gz"
        path.write_bytes(payload)
        assert [r.name for r in iter_suite_runs(str(path))] == [
            r.name for r in bulk
        ]

    def test_empty_suite_streams_empty(self):
        assert list(iter_suite_runs(dump_suite_bytes([]))) == []

    def test_truncated_payload_raises(self):
        payload = dump_suite_bytes(make_suite(2))
        raw = gzip.decompress(payload)
        truncated = gzip.compress(raw[: len(raw) // 2], mtime=0)
        with pytest.raises(TraceFormatError):
            list(iter_suite_runs(truncated))

    def test_non_canonical_document_rejected(self):
        raw = b'{"runs":[],"format":"pift-suite","version":3}'
        with pytest.raises(TraceFormatError, match="canonical"):
            list(iter_suite_runs(gzip.compress(raw, mtime=0)))

    def test_version_mismatch_detected_at_tail(self):
        payload = dump_suite_bytes(make_suite(2))
        raw = gzip.decompress(payload).replace(
            f'"version":{FORMAT_VERSION}'.encode(), b'"version":9999'
        )
        runs = []
        with pytest.raises(TraceFormatError, match="version"):
            for run in iter_suite_runs(gzip.compress(raw, mtime=0)):
                runs.append(run.name)
        # The canonical key order puts version at the tail, so the runs
        # themselves streamed before the mismatch surfaced.
        assert len(runs) == 2

