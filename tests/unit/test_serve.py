"""End-to-end tests of the `repro serve` daemon over unix sockets.

Each test boots a real :class:`PIFTServer` on a throwaway unix socket
inside an ``asyncio.run`` and exercises the full stack — protocol
handshake and error frames, live backpressure under tight watermarks,
admin verbs (query/stats/drain/restore/migrate/stop_worker), the HTTP
metrics scrape, and the fleet harness's parity claim in plain, coloured,
and mid-stream-migration configurations.
"""

import asyncio
import json

import pytest

from repro.analysis.replay import replay
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.config import OverflowPolicy, PIFTConfig
from repro.core.events import EventTrace, load, store
from repro.core.ranges import AddressRange
from repro.serve import protocol
from repro.serve.client import (
    AdminClient,
    DeviceClient,
    ServeClientError,
    open_connection,
)
from repro.serve.fleet import run_fleet, run_fleet_sync
from repro.serve.router import ShardRouter
from repro.serve.server import PIFTServer

CONFIG = PIFTConfig(5, 2)


def make_run(pids=(0,), rounds=6, leak=True):
    """A synthetic recorded run: per-PID source, leak loop, two checks."""
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


def make_suite(count=6, pids_per_run=2):
    return [
        (f"app-{i}", make_run(
            pids=tuple(range(pids_per_run)), rounds=3 + i % 4,
            leak=bool(i % 3),
        ))
        for i in range(count)
    ]


class Daemon:
    """Async context manager: a live daemon on a tmp unix socket."""

    def __init__(self, tmp_path, metrics=False, **router_kwargs):
        router_kwargs.setdefault("workers", 2)
        self.router = ShardRouter(CONFIG, **router_kwargs)
        self.server = PIFTServer(self.router)
        self.path = str(tmp_path / "serve.sock")
        self.metrics = metrics

    async def __aenter__(self):
        await self.server.start(
            unix_path=self.path,
            metrics=("127.0.0.1", 0) if self.metrics else None,
        )
        return self

    async def __aexit__(self, *exc):
        await self.server.stop()


class TestHandshakeAndErrors:
    def test_version_mismatch_rejected(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                reader, writer = await open_connection(
                    unix_path=daemon.path
                )
                bad = protocol.hello_frame("dev")
                bad["version"] = 999
                writer.write(protocol.encode_frame(bad))
                await writer.drain()
                reply = protocol.decode_frame(await reader.readline())
                writer.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply["op"] == "error"
        assert "version 999" in reply["error"]

    def test_colour_mode_mismatch_rejected(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path, coloured=False) as daemon:
                with pytest.raises(ServeClientError, match="colour-mode"):
                    await DeviceClient.connect(
                        "dev", unix_path=daemon.path, colours=True
                    )

        asyncio.run(scenario())

    def test_frames_before_hello_rejected(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                reader, writer = await open_connection(
                    unix_path=daemon.path
                )
                writer.write(protocol.encode_frame(
                    protocol.events_frame([load(0x10, 0x13, 1)])
                ))
                await writer.drain()
                reply = protocol.decode_frame(await reader.readline())
                writer.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply["op"] == "error"
        assert "no hello yet" in reply["error"]

    def test_unknown_op_and_garbage_keep_connection_alive(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                reader, writer = await open_connection(
                    unix_path=daemon.path
                )
                writer.write(b"this is not json\n")
                writer.write(protocol.encode_frame({"op": "frobnicate"}))
                await writer.drain()
                first = protocol.decode_frame(await reader.readline())
                second = protocol.decode_frame(await reader.readline())
                # The connection survived both errors: a hello still works.
                writer.write(protocol.encode_frame(
                    protocol.hello_frame("dev")
                ))
                await writer.drain()
                third = protocol.decode_frame(await reader.readline())
                writer.close()
                return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first["op"] == "error" and "unparseable" in first["error"]
        assert second["op"] == "error" and "frobnicate" in second["error"]
        assert third["op"] == "welcome"


class TestMalformedEventsFrame:
    def test_bad_frame_costs_one_error_and_spares_other_devices(
        self, tmp_path
    ):
        """A frame with one bad value is rejected whole: its connection
        gets exactly one error frame and none of its events reach a
        shard, while a device streaming at the same time gets verdicts
        byte-identical to streaming alone."""
        good_run = make_run(pids=(0, 5), rounds=8)
        source = AddressRange(0x1000, 0x100F)
        sink = AddressRange(0x8000, 0x8003)
        # pid 3 leaks the source to the sink; pid 4's event is malformed.
        bad = protocol.events_frame([
            load(0x1000, 0x1003, 1, 3), store(0x8000, 0x8003, 2, 3),
            load(0x3000, 0x3003, 1, 4),
        ])
        bad["starts"][2] = 12288.5

        async def stream_good(path):
            client = await DeviceClient.connect("good", unix_path=path)
            verdicts = await client.stream_run(good_run)
            await client.end()
            return [protocol.encode_frame(v) for v in verdicts]

        async def stream_bad(path):
            return await exchange(path, [
                protocol.hello_frame("bad"),
                source_frame(source, 3),
                bad,
                check_frame(sink, 3),
                {"op": "end"},
            ])

        async def scenario():
            async with Daemon(tmp_path) as daemon:
                together = await asyncio.gather(
                    stream_good(daemon.path), stream_bad(daemon.path)
                )
                admin = await AdminClient.connect(unix_path=daemon.path)
                stats = await admin.stats()
                await admin.close()
            async with Daemon(tmp_path / "alone") as daemon:
                alone = await stream_good(daemon.path)
            return together, alone, stats

        (tmp_path / "alone").mkdir()
        (good, replies), alone, stats = asyncio.run(scenario())
        assert [r["op"] for r in replies] == [
            "welcome", "error", "verdict", "bye"
        ]
        assert replies[1]["request"] == "events"
        # Not one event of the rejected frame was enqueued: pid 3's
        # store never ran, so the sink is clean.
        assert replies[2]["tainted"] is False
        assert stats["events_ingested"] == len(good_run.trace.events)
        assert good == alone
        truth = replay(good_run, CONFIG).sink_outcomes
        assert [
            protocol.verdict_key(protocol.decode_frame(v)) for v in good
        ] == [protocol.outcome_key(o) for o in truth]

    @pytest.mark.parametrize("drain_batch", [256, 1024])
    def test_value_beyond_int64_in_a_large_frame_is_one_error(
        self, tmp_path, drain_batch
    ):
        """A value the kernel's int64 arrays cannot hold, deep inside a
        frame big enough for the vectorised kernel, is refused at decode
        with one error frame.  The connection and the shard's drain
        worker live on: the same frame sent clean is drained (by the
        worker, when ``drain_batch`` is past the kernel threshold) and
        its check answered."""
        source = AddressRange(0x1000, 0x100F)
        sink = AddressRange(0x8000, 0x8003)
        leak = []
        for i in range(550):
            leak.append(load(0x1000, 0x1003, 3 * i + 1, 3))
            leak.append(store(0x8000 + 4 * i, 0x8003 + 4 * i, 3 * i + 2, 3))
        bad = protocol.events_frame(leak)
        bad["starts"][701] = 2**63

        async def scenario():
            async with Daemon(tmp_path, drain_batch=drain_batch) as daemon:
                return await asyncio.wait_for(exchange(daemon.path, [
                    protocol.hello_frame("dev"),
                    source_frame(source, 3),
                    bad,
                    check_frame(sink, 3),
                    protocol.events_frame(leak),
                    check_frame(sink, 3),
                    {"op": "end"},
                ]), timeout=60)

        replies = asyncio.run(scenario())
        assert [r["op"] for r in replies] == [
            "welcome", "error", "verdict", "verdict", "bye"
        ]
        assert replies[1]["request"] == "events"
        assert "int64" in replies[1]["error"]
        assert [r["tainted"] for r in replies[2:4]] == [False, True]
        assert not any(r["degraded"] for r in replies[2:4])

    def test_source_and_check_pids_follow_the_events_rule(self, tmp_path):
        """A source or check PID that an events frame would refuse
        (``true``, ``3.7``, ``"3"``) is an error, not a shard."""
        rng = AddressRange(0x1000, 0x100F)

        async def scenario():
            async with Daemon(tmp_path) as daemon:
                replies = await exchange(daemon.path, [
                    protocol.hello_frame("dev"),
                    source_frame(rng, True),
                    check_frame(rng, 3.7),
                    check_frame(rng, "3"),
                    check_frame(rng, 3),
                    {"op": "end"},
                ])
                return replies, daemon.router.shards

        replies, shards = asyncio.run(scenario())
        assert [r["op"] for r in replies] == [
            "welcome", "error", "error", "error", "verdict", "bye"
        ]
        assert list(shards) == [("dev", 3)]


def source_frame(address_range, pid):
    return {"op": "source", "start": address_range.start,
            "size": address_range.size, "index": 0, "name": "imei",
            "pid": pid}


def check_frame(address_range, pid):
    return {"op": "check", "start": address_range.start,
            "size": address_range.size, "index": 3, "sink": "net",
            "channel": "net", "pid": pid}


async def exchange(path, frames):
    """Send raw frames on one connection; return every reply to EOF."""
    reader, writer = await open_connection(unix_path=path)
    for frame in frames:
        writer.write(protocol.encode_frame(frame))
        await writer.drain()
        await asyncio.sleep(0)  # let other devices interleave
    replies = []
    while True:
        line = await reader.readline()
        if not line:
            break
        replies.append(protocol.decode_frame(line))
    writer.close()
    await writer.wait_closed()
    return replies


class TestStreamAndQuery:
    def test_streamed_verdicts_and_query_api(self, tmp_path):
        recorded = make_run(pids=(0, 5))

        async def scenario():
            async with Daemon(tmp_path) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                verdicts = await client.stream_run(recorded)
                admin = await AdminClient.connect(unix_path=daemon.path)
                result = await admin.query("dev-a")
                stats = await admin.stats()
                await admin.close()
                await client.end()
                return verdicts, result, stats

        verdicts, result, stats = asyncio.run(scenario())
        # One tainted + one clean check per pid; both pids share
        # instruction indices, so the replay plan interleaves them.
        assert [(v["sink"], v["tainted"]) for v in verdicts] == [
            ("sink-0", True), ("sink-5", True),
            ("clean-0", False), ("clean-5", False),
        ]
        assert not any(v["degraded"] for v in verdicts)
        assert [v["sink"] for v in result["verdicts"]] == [
            v["sink"] for v in verdicts
        ]
        assert {s["pid"] for s in result["shards"]} == {0, 5}
        assert stats["server"]["devices"] == ["dev-a"]
        assert stats["shards"] == 2
        assert stats["events_ingested"] == len(recorded.trace.events)

    def test_reset_drops_shards_but_keeps_verdict_log(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                await client.stream_run(make_run())
                dropped = await client.reset()
                admin = await AdminClient.connect(unix_path=daemon.path)
                result = await admin.query("dev-a")
                await admin.close()
                await client.end()
                return dropped, result

        dropped, result = asyncio.run(scenario())
        assert dropped == 1
        assert result["shards"] == []  # live shards gone...
        assert len(result["verdicts"]) == 2  # ...log survives


class TestBackpressure:
    def test_watermarks_pause_reads_without_loss(self, tmp_path):
        # A FIFO of 32 with the drain worker racing a 200-round burst:
        # the gate must engage, and parity must still hold.
        recorded = make_run(rounds=200)

        async def scenario():
            async with Daemon(
                tmp_path, capacity=32, drain_batch=4,
                high_watermark=24, low_watermark=4,
            ) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                verdicts = await client.stream_run(recorded, chunk=16)
                admin = await AdminClient.connect(unix_path=daemon.path)
                stats = await admin.stats()
                await admin.close()
                await client.end()
                return verdicts, stats

        verdicts, stats = asyncio.run(scenario())
        assert stats["backpressure_engagements"] > 0
        assert stats["forced_drops"] == 0
        assert [v["tainted"] for v in verdicts] == [True, False]

    def test_drop_oldest_policy_degrades_verdicts(self, tmp_path):
        # Overflow the FIFO inside one frame (frame chunk > capacity):
        # ingest is synchronous, so the drain worker cannot interleave
        # and the drop policy must fire; every later verdict carries the
        # degraded-confidence flag.
        recorded = make_run(rounds=300)

        async def scenario():
            async with Daemon(
                tmp_path, capacity=16, drain_batch=4,
                policy=OverflowPolicy.DROP_OLDEST,
            ) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                verdicts = await client.stream_run(recorded, chunk=600)
                admin = await AdminClient.connect(unix_path=daemon.path)
                stats = await admin.stats()
                await admin.close()
                await client.end()
                return verdicts, stats

        verdicts, stats = asyncio.run(scenario())
        assert stats["forced_drops"] > 0
        assert all(v["degraded"] for v in verdicts)


class TestAdminVerbs:
    def test_drain_of_nonexistent_shard_errors(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                admin = await AdminClient.connect(unix_path=daemon.path)
                with pytest.raises(ServeClientError, match="no live shard"):
                    await admin.drain("ghost", 0)
                await admin.close()

        asyncio.run(scenario())

    def test_restore_of_live_shard_errors(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                await client.stream_run(make_run())
                admin = await AdminClient.connect(unix_path=daemon.path)
                snapshot = await admin.drain("dev-a", 0)
                await admin.restore(snapshot)
                with pytest.raises(ServeClientError, match="already live"):
                    await admin.restore(snapshot)
                await admin.close()
                await client.end()

        asyncio.run(scenario())

    @pytest.mark.parametrize("corrupt, error", [
        (lambda snapshot: snapshot["buffered"]["queue"].append(
            ["load", 16, 19.5, 1, 0]), "snapshot queue"),
        (lambda snapshot: next(iter(
            snapshot["buffered"]["tracker"]["windows"].values()
        )).update(propagations=None), "propagations"),
    ], ids=["fifo-row", "null-window"])
    def test_malformed_fifo_row_in_restore_is_one_error(
        self, tmp_path, corrupt, error
    ):
        """A snapshot whose FIFO row fails the decoders' checks, or whose
        tracker window is malformed, costs the ``restore`` op one error
        frame; the connection and the intact snapshot still restore."""
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                await client.stream_run(make_run())
                admin = await AdminClient.connect(unix_path=daemon.path)
                snapshot = await admin.drain("dev-a", 0)
                bad = json.loads(json.dumps(snapshot))
                corrupt(bad)
                with pytest.raises(ServeClientError, match=error):
                    await admin.restore(bad)
                await admin.restore(snapshot)
                await admin.close()
                await client.end()

        asyncio.run(scenario())

    @pytest.mark.parametrize("frame, error", [
        ({"op": "hello", "device": "dev", "version": 1.9}, "hello version"),
        ({"op": "hello", "device": "dev", "version": True}, "hello version"),
        ({"op": "hello", "device": "dev", "version": 1, "colours": 0},
         "hello colours must be a bool"),
        ({"op": "drain", "device": "dev-a", "pid": 0.5}, "frame pid"),
        ({"op": "drain", "device": "dev-a", "pid": True}, "frame pid"),
        ({"op": "migrate", "device": "dev-a", "pid": "0"}, "frame pid"),
        ({"op": "migrate", "device": "dev-a", "pid": 0, "worker": True},
         "frame worker"),
        ({"op": "restore", "snapshot": {}, "worker": [0]}, "frame worker"),
        ({"op": "stop_worker", "worker": [0]}, "frame worker"),
        ({"op": "stop_worker", "worker": 1.0}, "frame worker"),
    ], ids=[
        "version-float", "version-bool", "colours-int", "drain-pid-float",
        "drain-pid-bool", "migrate-pid-str", "migrate-worker-bool",
        "restore-worker-list", "stop-worker-list", "stop-worker-float",
    ])
    def test_mistyped_field_is_one_error_frame(self, tmp_path, frame, error):
        """A hello or admin field of the wrong type is refused, never
        coerced, and costs one error frame: ``stats`` still answers on
        the same connection."""
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                await client.stream_run(make_run())
                reader, writer = await open_connection(
                    unix_path=daemon.path
                )
                writer.write(protocol.encode_frame(frame))
                writer.write(protocol.encode_frame({"op": "stats"}))
                await writer.drain()
                first = protocol.decode_frame(await reader.readline())
                second = protocol.decode_frame(await reader.readline())
                writer.close()
                await client.end()
                return first, second

        first, second = asyncio.run(scenario())
        assert first["op"] == "error", first
        assert error in first["error"]
        assert second["op"] == "stats_result"

    def test_stop_last_worker_refused(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path, workers=2) as daemon:
                admin = await AdminClient.connect(unix_path=daemon.path)
                await admin.stop_worker(0)
                with pytest.raises(ServeClientError, match="last live"):
                    await admin.stop_worker(1)
                with pytest.raises(ServeClientError, match="no live worker"):
                    await admin.stop_worker(0)  # already dead
                await admin.close()

        asyncio.run(scenario())

    def test_server_side_migrate_moves_worker(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path, workers=2) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                await client.stream_run(make_run())
                before = daemon.router.placement[("dev-a", 0)]
                admin = await AdminClient.connect(unix_path=daemon.path)
                placed = await admin.migrate("dev-a", 0, worker=1 - before)
                await admin.close()
                await client.end()
                return before, placed, daemon.router.migrations

        before, placed, migrations = asyncio.run(scenario())
        assert placed == 1 - before
        assert migrations == 1


class TestMetricsScrape:
    async def _get(self, port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        await writer.drain()
        response = await reader.read()
        writer.close()
        head, _, body = response.partition(b"\r\n\r\n")
        return head.decode("latin-1"), body.decode()

    def test_metrics_endpoint(self, tmp_path):
        async def scenario():
            async with Daemon(tmp_path, metrics=True) as daemon:
                client = await DeviceClient.connect(
                    "dev-a", unix_path=daemon.path
                )
                await client.stream_run(make_run())
                port = daemon.server.metrics_port
                ok = await self._get(port, "/metrics")
                missing = await self._get(port, "/nope")
                await client.end()
                return ok, missing

        (ok_head, ok_body), (miss_head, _) = asyncio.run(scenario())
        assert ok_head.startswith("HTTP/1.0 200")
        assert "pift_serve_shards 1" in ok_body
        assert "pift_serve_events_ingested_total" in ok_body
        assert "pift_serve_checks_answered_total" in ok_body
        assert miss_head.startswith("HTTP/1.0 404")


class TestFleetParity:
    def test_plain_fleet(self):
        report = run_fleet_sync(make_suite(), devices=3)
        assert report["parity"] is True
        assert report["runs"] == 6
        assert report["checks"] == report["verdicts"] == 6 * 2 * 2
        assert report["mismatches"] == []

    def test_coloured_fleet_carries_attribution(self):
        # Every run leaks, so whichever runs device-00 pulled off the
        # shared queue, its attribution fold has colours in it.
        suite = [
            (f"app-{i}", make_run(pids=(0, 1), rounds=4 + i))
            for i in range(6)
        ]
        report = run_fleet_sync(suite, devices=3, coloured=True)
        assert report["parity"] is True
        assert report["coloured"] is True
        attribution = {row["colour"] for row in report["attribution"]}
        assert any(c.startswith("src-") for c in attribution)

    def test_migrating_fleet_stays_byte_identical(self):
        report = run_fleet_sync(
            make_suite(8), devices=4, migrate=True, workers=2,
            capacity=64, drain_batch=8, high_watermark=48, low_watermark=8,
        )
        assert report["parity"] is True
        assert report["migration"] is not None
        assert report["migration"]["killed_worker"] == 0
        assert report["server_stats"]["migrations"] >= 2
        dead = [
            w for w in report["server_stats"]["workers"] if not w["alive"]
        ]
        assert [w["id"] for w in dead] == [0]

    def test_fleet_against_external_daemon(self, tmp_path):
        # The fleet can point at a daemon it does not own.
        async def scenario():
            async with Daemon(tmp_path) as daemon:
                return await run_fleet(
                    make_suite(4), devices=2, unix_path=daemon.path
                )

        report = asyncio.run(scenario())
        assert report["parity"] is True

    def test_fleet_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="devices"):
            run_fleet_sync(make_suite(1), devices=0)
        with pytest.raises(ValueError, match="workers"):
            run_fleet_sync(make_suite(1), migrate=True, workers=1)
        with pytest.raises(ValueError, match="at least one"):
            run_fleet_sync([], devices=2)


#: FIFO parameters every shard's ``BufferedPIFT`` rejects.
BAD_BUFFERS = (
    {"capacity": 0},
    {"drain_batch": 0},
    {"capacity": 0, "drain_batch": 0},
    {"capacity": 8, "high_watermark": 9},
    {"high_watermark": 0},
    {"high_watermark": 10, "low_watermark": 10},
    {"low_watermark": -1},
)


class TestBufferParameters:
    @pytest.mark.parametrize("bad", BAD_BUFFERS, ids=str)
    def test_router_rejects_them_at_construction(self, bad):
        with pytest.raises(ValueError):
            ShardRouter(CONFIG, **bad)

    @pytest.mark.parametrize("command", ("serve", "fleet"))
    def test_cli_exits_before_binding_a_socket(
        self, command, monkeypatch, tmp_path
    ):
        from repro.__main__ import main

        async def bind(*args, **kwargs):
            raise AssertionError("bound a socket")

        monkeypatch.setattr(PIFTServer, "start", bind)
        argv = [command, "--capacity", "8", "--high-watermark", "9"]
        if command == "serve":
            argv += ["--unix", str(tmp_path / "serve.sock")]
        with pytest.raises(SystemExit, match="high_watermark"):
            main(argv)
