"""The migration primitive: mid-stream snapshot/restore round-trips.

`repro serve`'s drain/restore verbs promise that a shard checkpointed
mid-stream — events still queued, immediate checks still pending — and
revived elsewhere produces bit-identical verdicts.  These tests pin the
underlying machinery shard-by-shard: ``BufferedPIFT`` round-trips with a
non-empty FIFO, pending-verdict reconciliation survives the move,
``ColourTracker`` masks and colour spaces travel intact, and a paused
reader's backpressure flag travels with the FIFO.
"""

import json

import pytest

from repro.core.buffered import BufferedPIFT
from repro.core.colours import ColourSpace
from repro.core.config import OverflowPolicy, PIFTConfig
from repro.core.events import EventColumns, load, store
from repro.core.ranges import AddressRange
from repro.core.tracker import ColourTracker
from repro.serve.shard import ShardError, TrackerShard

CONFIG = PIFTConfig(5, 2)
SRC = AddressRange(0x1000, 0x100F)
DST = AddressRange(0x8000, 0x8003)
CLEAN = AddressRange(0xF000, 0xF003)


def leaky_events(rounds=8):
    """load-from-source / store-to-sink pairs, one taint per round."""
    events = []
    index = 1
    for r in range(rounds):
        events.append(load(0x1000, 0x1003, index))
        events.append(store(0x8000 + (r % 4), 0x8000 + (r % 4), index + 1))
        index += 3
    return events


class TestBufferedMidStreamRoundTrip:
    def migrated(self, events, split, coloured=False):
        """Feed ``events[:split]``, snapshot with the FIFO non-empty,
        restore into a *fresh* instance, feed the rest; return it."""
        def build():
            return BufferedPIFT(
                CONFIG, capacity=1024, drain_batch=4,
                colours=ColourSpace() if coloured else None,
            )

        donor = build()
        donor.taint_source(SRC, colour="imei" if coloured else None)
        for event in events[:split]:
            donor.on_memory_event(event)
        assert donor.queue_depth > 0  # the move happens mid-flight
        snapshot = donor.snapshot()

        heir = build()
        heir.restore(snapshot)
        for event in events[split:]:
            heir.on_memory_event(event)
        return heir

    def reference(self, events, coloured=False):
        buffered = BufferedPIFT(
            CONFIG, capacity=1024, drain_batch=4,
            colours=ColourSpace() if coloured else None,
        )
        buffered.taint_source(SRC, colour="imei" if coloured else None)
        for event in events:
            buffered.on_memory_event(event)
        return buffered

    def test_verdicts_identical_after_migration(self):
        events = leaky_events()
        for split in (1, 5, len(events) - 1):
            heir = self.migrated(events, split)
            ref = self.reference(events)
            assert heir.check_blocking(DST) == ref.check_blocking(DST) is True
            assert heir.check_blocking(CLEAN) is ref.check_blocking(CLEAN)
            # The whole tracker state is identical, not just verdicts.
            assert heir.tracker.snapshot() == ref.tracker.snapshot()

    def test_coloured_attribution_identical_after_migration(self):
        events = leaky_events()
        heir = self.migrated(events, 5, coloured=True)
        ref = self.reference(events, coloured=True)
        assert (
            heir.check_blocking_colours(DST)
            == ref.check_blocking_colours(DST)
            == ("imei",)
        )
        assert heir.tracker.snapshot() == ref.tracker.snapshot()

    def test_queue_contents_travel_unflushed(self):
        events = leaky_events()
        donor = self.reference([])  # plain empty tracker
        donor.taint_source(SRC)
        for event in events:
            donor.on_memory_event(event)
        depth = donor.queue_depth
        heir = BufferedPIFT(CONFIG, capacity=1024, drain_batch=4)
        heir.restore(donor.snapshot())
        assert heir.queue_depth == depth
        assert heir.drain_all() == depth


class TestPendingVerdictReconciliation:
    def test_pending_immediate_check_settles_after_migration(self):
        donor = BufferedPIFT(CONFIG, capacity=1024, drain_batch=4)
        donor.taint_source(SRC)
        for event in leaky_events(rounds=3):
            donor.on_memory_event(event)
        verdict = donor.check_immediate_verdict(DST, sink_name="sms")
        assert not verdict.tainted  # stale: the taint is still queued

        heir = BufferedPIFT(CONFIG, capacity=1024, drain_batch=4)
        heir.restore(donor.snapshot())
        assert not heir.late_detections
        heir.drain_all()
        (late,) = heir.late_detections
        assert late.sink_name == "sms"
        assert late.address_range == DST
        assert late.events_behind == 6
        # The donor, had it stayed put, reconciles identically.
        donor.drain_all()
        assert donor.late_detections == heir.late_detections

    def test_sequence_barriers_survive_partial_drain_after_restore(self):
        donor = BufferedPIFT(CONFIG, capacity=1024, drain_batch=2)
        donor.taint_source(SRC)
        events = leaky_events(rounds=4)
        for event in events[:4]:
            donor.on_memory_event(event)
        donor.check_immediate_verdict(DST, sink_name="net")
        for event in events[4:]:
            donor.on_memory_event(event)  # enqueued after the barrier

        heir = BufferedPIFT(CONFIG, capacity=1024, drain_batch=2)
        heir.restore(donor.snapshot())
        heir.drain(2)  # partial: barrier (4 events) not yet retired
        assert not heir.late_detections
        heir.drain(2)  # barrier reached: the check settles now
        assert [d.sink_name for d in heir.late_detections] == ["net"]


class TestHysteresisAfterRestore:
    def test_backpressure_flag_travels(self):
        donor = BufferedPIFT(
            CONFIG, capacity=64, drain_batch=4,
            high_watermark=8, low_watermark=2,
        )
        for event in leaky_events(rounds=6):
            donor.on_memory_event(event)
        assert donor.backpressure
        heir = BufferedPIFT(
            CONFIG, capacity=64, drain_batch=4,
            high_watermark=8, low_watermark=2,
        )
        heir.restore(donor.snapshot())
        assert heir.backpressure  # a paused reader must stay paused
        heir.drain_all()
        assert not heir.backpressure


class TestColourTrackerRoundTrip:
    def test_colour_space_and_masks_travel(self):
        donor = ColourTracker(CONFIG)
        donor.taint_source(SRC, colour="imei")
        donor.taint_source(AddressRange(0x3000, 0x300F), colour="location")
        for event in leaky_events(rounds=4):
            donor.observe(event)
        snapshot = donor.snapshot()
        heir = ColourTracker(CONFIG)
        heir.restore(snapshot)
        assert heir.check_colours(DST) == donor.check_colours(DST)
        assert heir.colours.names == donor.colours.names
        # New registrations continue from the travelled space.
        heir.taint_source(AddressRange(0x5000, 0x500F), colour="contacts")
        assert heir.colours.names[-1] == "contacts"


class TestShardSnapshotValidation:
    def make_shard(self, coloured=False, key=("dev", 0)):
        return TrackerShard(key, CONFIG, coloured=coloured)

    def test_round_trip_increments_restores(self):
        shard = self.make_shard()
        shard.register_source(SRC)
        shard.ingest(EventColumns.from_events(leaky_events(rounds=2)))
        snapshot = shard.snapshot()
        heir = self.make_shard()
        heir.restore(snapshot)
        assert heir.restores == 1
        assert heir.events_ingested == shard.events_ingested
        tainted, colours, degraded = heir.check(DST)
        assert tainted and not degraded

    @pytest.mark.parametrize("row", [
        ["lod", 0x10, 0x13, 1, 0],          # kind not load/store
        ["load", 0x10, 19.5, 1, 0],         # float end
        ["store", True, 0x13, 1, 0],        # bool start
        ["load", -1, 0x13, 1, 0],           # negative start
        ["load", 0x13, 0x10, 1, 0],         # end before start
        ["load", 0x10, 2**63, 1, 0],        # end beyond int64
        ["store", 0x10, 0x13, 2**63, 0],    # index beyond int64
        ["load", 0x10, 0x13, 1],            # short row
    ])
    def test_rejects_malformed_fifo_rows(self, row):
        """FIFO rows take the decoders' checks: a bad one raises
        ``ValueError`` (one error frame for the ``restore`` op) and the
        heir keeps its state."""
        shard = self.make_shard()
        shard.register_source(SRC)
        shard.ingest(EventColumns.from_events(leaky_events(rounds=2)))
        snapshot = json.loads(json.dumps(shard.snapshot()))
        snapshot["buffered"]["queue"].append(row)
        heir = self.make_shard()
        with pytest.raises(ValueError):
            heir.restore(snapshot)
        assert heir.queue_depth == 0 and heir.restores == 0
        assert not heir.check(DST)[0]

    @pytest.mark.parametrize("section, row", [
        ("pending", ["sms", 16.9, 19.7, 0, 6, 4]),    # used to restore 16-19
        ("pending", ["sms", 0x8000, 0x8003, 0, True, 4]),  # bool behind
        ("pending", ["sms", 0x8000, 0x8003, "0", 6, 4]),   # string pid
        ("pending", ["sms", 0x8000, 0x8003, 0, 6, 2**63]),  # beyond int64
        ("pending", ["sms", 0x8003, 0x8000, 0, 6, 4]),  # end before start
        ("pending", ["sms", 0x8000, 0x8003, 0, 6]),     # short row
        ("late_detections", ["sms", 0x8000, 0x8003, True, False]),
        ("late_detections", ["sms", 0x8000, float(0x8003), 6, False]),
        ("late_detections", ["sms", -1, 0x8003, 6, False]),
        ("late_detections", ["sms", 0x8000, 0x8003, 6, 1]),  # int degraded
        ("late_detections", ["sms", 0x8000, 0x8003, 6, False, "imei"]),
        ("late_detections", ["sms", 0x8000, 0x8003, 6, False, [3]]),
    ])
    def test_rejects_malformed_pending_and_late_rows(self, section, row):
        """Pending checks and late detections are checked with the FIFO
        rows, before anything is replaced: nothing is coerced, and a
        rejected restore leaves the heir's buffer as it was."""
        donor = self.make_shard()
        donor.register_source(SRC)
        donor.ingest(EventColumns.from_events(leaky_events(rounds=2)))
        snapshot = json.loads(json.dumps(donor.snapshot()))
        snapshot["buffered"][section].append(row)
        heir = self.make_shard()
        heir.register_source(CLEAN)
        before = heir.buffered.snapshot()
        with pytest.raises(ValueError):
            heir.restore(snapshot)
        assert heir.buffered.snapshot() == before
        assert heir.restores == 0

    @pytest.mark.parametrize("coloured, field, value", [
        pytest.param(False, ("window", "propagations"), None,
                     id="window-propagations-null"),  # used to TypeError
        pytest.param(False, ("window", "propagations"), 1.7,
                     id="window-propagations-float"),  # used to restore 1
        pytest.param(False, ("window", "last_tainted_load"), 2.5,
                     id="window-last-load-float"),
        pytest.param(False, ("config", "untainting"), 1,
                     id="config-untainting-int"),
        pytest.param(False, ("config", "window_size"), 5.0,
                     id="config-window-float"),
        pytest.param(False, ("stats", "loads_observed"), 2.5,
                     id="tracker-stats-float"),
        pytest.param(False, ("state", "starts", "ends"), ([20, 0], [30, 10]),
                     id="ranges-unsorted"),
        pytest.param(False, ("state", "starts", "ends"), ([0, 5], [10, 20]),
                     id="ranges-overlapping"),
        pytest.param(False, ("state", "starts", "ends"), ([0.5], [10]),
                     id="ranges-float"),
        pytest.param(False, ("state", "starts", "ends"), ([10], [0]),
                     id="ranges-end-before-start"),
        pytest.param(False, ("buffer", "stats"), {"drains": 1.5},
                     id="buffer-stats-float"),
        pytest.param(False, ("buffer", "enqueue_seq"), 1.5,
                     id="enqueue-seq-float"),
        pytest.param(False, ("buffer", "retired_seq"), "3",
                     id="retired-seq-string"),
        pytest.param(False, ("buffer", "backpressure"), 1,
                     id="backpressure-int"),
        pytest.param(False, ("shard", "counters"), {"events_ingested": 1.5},
                     id="shard-counter-float"),
        pytest.param(False, ("shard", "pid"), 0.0, id="shard-pid-float"),
        pytest.param(True, ("window", "colour_mask"), 1 << 64,
                     id="window-mask-beyond-uint64"),
        pytest.param(True, ("state", "masks"), [0], id="range-mask-zero"),
        pytest.param(False, ("window", "colour_mask"), True,
                     id="plain-window-mask-bool"),
        pytest.param(False, ("state", "masks"), [1 << 64],
                     id="plain-range-mask-beyond-uint64"),
        pytest.param(True, ("tracker", "colours"), {"names": [3]},
                     id="colour-name-int"),
    ])
    def test_malformed_snapshot_leaves_heir_unchanged(
        self, coloured, field, value
    ):
        """Every tracker, range-set, buffer and shard field is checked
        (exact ints inside int64, bools, sorted disjoint range rows,
        uint64 masks) before anything is replaced: a malformed field
        raises ``ValueError`` and the heir's snapshot is unchanged."""
        donor = self.make_shard(coloured=coloured)
        donor.register_source(SRC, colour="imei" if coloured else None)
        donor.ingest(EventColumns.from_events(leaky_events(rounds=2)))
        donor.buffered.drain_all()
        snapshot = json.loads(json.dumps(donor.snapshot()))
        tracker = snapshot["buffered"]["tracker"]
        section = {
            "window": tracker["windows"]["0"],
            "config": tracker["config"],
            "stats": tracker["stats"],
            "state": tracker["states"]["0"],
            "tracker": tracker,
            "buffer": snapshot["buffered"],
            "shard": snapshot,
        }[field[0]]
        if len(field) == 3:  # a range set's starts and ends together
            section[field[1]], section[field[2]] = value
        elif isinstance(value, dict) and field[1] != "colours":
            section[field[1]].update(value)
        else:
            section[field[1]] = value
        heir = self.make_shard(coloured=coloured)
        heir.register_source(CLEAN, colour="gps" if coloured else None)
        before = heir.snapshot()
        with pytest.raises(ValueError):
            heir.restore(snapshot)
        assert heir.snapshot() == before

    def test_rejects_wrong_version(self):
        snapshot = self.make_shard().snapshot()
        snapshot["version"] = 99
        with pytest.raises(ShardError, match="version"):
            self.make_shard().restore(snapshot)

    def test_rejects_previous_tracker_shape(self):
        """A version-1 snapshot (tracker windows carrying the retired
        ``telemetry_open`` flag) fails the version check, not restore."""
        shard = self.make_shard()
        shard.register_source(SRC)
        shard.ingest(EventColumns.from_events(leaky_events(rounds=2)))
        shard.buffered.drain_all()
        snapshot = json.loads(json.dumps(shard.snapshot()))
        windows = snapshot["buffered"]["tracker"]["windows"]
        assert windows
        for window in windows.values():
            assert "telemetry_open" not in window
            window["telemetry_open"] = False
        snapshot["version"] = 1
        with pytest.raises(ShardError, match="version 1"):
            self.make_shard().restore(snapshot)

    def test_rejects_wrong_key(self):
        snapshot = self.make_shard(key=("dev-a", 0)).snapshot()
        with pytest.raises(ShardError, match="dev-a"):
            self.make_shard(key=("dev-b", 0)).restore(snapshot)

    def test_rejects_colour_mode_mismatch(self):
        snapshot = self.make_shard(coloured=True).snapshot()
        with pytest.raises(ShardError, match="colour"):
            self.make_shard(coloured=False).restore(snapshot)

    def test_coloured_shard_attribution_after_migration(self):
        donor = self.make_shard(coloured=True)
        donor.register_source(SRC, colour="imei")
        events = leaky_events(rounds=6)
        donor.ingest(EventColumns.from_events(events[:5]))
        heir = self.make_shard(coloured=True)
        heir.restore(donor.snapshot())
        heir.ingest(EventColumns.from_events(events[5:]))

        reference = self.make_shard(coloured=True)
        reference.register_source(SRC, colour="imei")
        reference.ingest(EventColumns.from_events(events))
        assert heir.check(DST) == reference.check(DST)
        assert heir.check(DST)[1] == ["imei"]


class TestColumnChunkMigration:
    """A shard fed a decoded 512-event chunk migrates exactly like one
    fed the same events one at a time."""

    def events(self, count=512):
        """Source loads, sink stores and unrelated traffic, one PID."""
        events = []
        for i in range(count):
            index = 2 * i + 1
            if i % 7 == 0:
                events.append(load(0x1000 + i % 16, 0x1000 + i % 16, index))
            elif i % 7 == 1:
                base = 0x8000 + 4 * (i % 64)
                events.append(store(base, base + 3, index))
            elif i % 2:
                events.append(load(0x20000 + i, 0x20003 + i, index))
            else:
                events.append(store(0x30000 + i, 0x30003 + i, index))
        return events

    def feed(self, chunked, coloured):
        shard = TrackerShard(("dev", 0), CONFIG, coloured=coloured)
        shard.register_source(SRC, colour="imei" if coloured else None)
        events = self.events()
        if chunked:
            decoded = EventColumns.from_events(events)
            # Wire-decoded columns carry no event objects.
            shard.ingest(EventColumns(None, decoded.is_loads, decoded.starts,
                                      decoded.ends, decoded.indices,
                                      decoded.pids))
        else:
            for event in events:
                shard.ingest(EventColumns.from_events([event]))
        assert shard.drain(200) == 200  # the chunk is now partly drained
        assert shard.queue_depth == 312
        return shard

    def verdicts(self, shard):
        tail = [
            load(0x1000, 0x1003, 1100),
            store(0x9000, 0x9003, 1101),
            store(0x8000, 0x8003, 1102),
        ]
        shard.ingest(EventColumns.from_events(tail))
        answers = [
            shard.check(AddressRange(0x8000 + 4 * k, 0x8003 + 4 * k))
            for k in range(64)
        ]
        answers += [shard.check(AddressRange(0x9000, 0x9003)),
                    shard.check(CLEAN)]
        return json.dumps(answers).encode()

    @pytest.mark.parametrize("coloured", [False, True],
                             ids=["plain", "coloured"])
    def test_partly_drained_chunk_migrates_like_per_event_feed(
        self, coloured
    ):
        chunked = self.feed(chunked=True, coloured=coloured)
        per_event = self.feed(chunked=False, coloured=coloured)
        snapshot = chunked.snapshot()
        assert json.dumps(snapshot, sort_keys=True) == json.dumps(
            per_event.snapshot(), sort_keys=True
        )
        heirs = []
        for donor in (chunked, per_event):
            heir = TrackerShard(("dev", 0), CONFIG, coloured=coloured)
            heir.restore(json.loads(json.dumps(donor.snapshot())))
            assert heir.queue_depth == 312
            heirs.append(heir)
        expected = self.verdicts(per_event)
        assert self.verdicts(chunked) == expected
        assert [self.verdicts(heir) for heir in heirs] == [expected] * 2
        assert b"true" in expected and b"false" in expected
