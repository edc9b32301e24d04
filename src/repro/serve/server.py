"""The `repro serve` daemon: listeners, dispatch, scrape endpoint.

:class:`PIFTServer` binds up to three asyncio listeners on one event
loop:

* a TCP ingestion listener (many concurrent device connections),
* a unix-socket ingestion listener (same protocol, local devices and
  the admin client), and
* a tiny HTTP listener answering ``GET /metrics`` with the Prometheus
  text exposition the CLI already renders (``--metrics-dump prom``),
  plus serve-local series (shards, migrations, queue depth).

Each device connection is one handler task reading newline-delimited
frames (:mod:`repro.serve.protocol`).  The handler is where overflow
policy becomes *real* backpressure: after ingesting an ``events`` frame
it awaits the router's per-shard writability gate, so while a shard sits
above its high watermark the handler simply is not reading the socket —
the kernel's TCP window (or unix-socket buffer) fills and the device
blocks, exactly the flow-control story a hardware FIFO's almost-full
signal tells.  Verdicts stay ordered because sink checks are answered
in-line on the same connection, after a blocking drain.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.core.events import checked_int64
from repro.serve import protocol
from repro.serve.router import ShardRouter
from repro.serve.shard import ShardError

#: The management vocabulary (any connection may speak it).
_ADMIN_OPS = frozenset(
    {"query", "stats", "drain", "restore", "migrate", "stop_worker",
     "shutdown"}
)

#: StreamReader line limit — an ``events`` frame of a few thousand
#: column-encoded events is far below this, but the default 64 KiB is
#: not, and a snapshot-carrying ``restore`` frame can be larger still.
READER_LIMIT = 16 * 1024 * 1024


def _frame_worker(frame: dict, default: Optional[int]) -> Optional[int]:
    """An admin frame's ``worker`` (``default`` when absent), held to the
    pid rule: an ``int`` in int64, never a ``bool``."""
    worker = frame.get("worker")
    if worker is None:
        return default
    return checked_int64(worker, "frame worker", protocol.ProtocolError)


class PIFTServer:
    """The long-lived daemon: router + listeners + scrape endpoint."""

    def __init__(self, router: ShardRouter, telemetry=None) -> None:
        self.router = router
        self.telemetry = telemetry
        self.shutdown_event = asyncio.Event()
        self.connections_served = 0
        self.frames_received = 0
        self._servers: list = []
        self.tcp_port: Optional[int] = None
        self.metrics_port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------

    async def start(
        self,
        tcp: Optional[Tuple[str, int]] = None,
        unix_path: Optional[str] = None,
        metrics: Optional[Tuple[str, int]] = None,
    ) -> None:
        """Start the router workers and whichever listeners were asked."""
        await self.router.start()
        if tcp is not None:
            host, port = tcp
            server = await asyncio.start_server(
                self._handle_connection, host, port, limit=READER_LIMIT
            )
            self.tcp_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, unix_path, limit=READER_LIMIT
            )
            self._servers.append(server)
        if metrics is not None:
            host, port = metrics
            server = await asyncio.start_server(
                self._handle_scrape, host, port, limit=READER_LIMIT
            )
            self.metrics_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        await self.router.stop()

    async def run_until_shutdown(self) -> None:
        """Block until a ``shutdown`` admin frame (or .shutdown())."""
        await self.shutdown_event.wait()
        await self.stop()

    def shutdown(self) -> None:
        self.shutdown_event.set()

    # -- ingestion connections ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        device: Optional[str] = None
        router = self.router
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                self.frames_received += 1
                try:
                    frame = protocol.decode_frame(line)
                except protocol.ProtocolError as error:
                    await self._send(writer, protocol.error_frame(str(error)))
                    continue
                op = frame.get("op")
                try:
                    if op == "hello":
                        device = await self._op_hello(frame, writer)
                    elif op == "events":
                        await self._op_events(device, frame, writer)
                    elif op == "source":
                        await self._op_source(device, frame, writer)
                    elif op == "check":
                        await self._op_check(device, frame, writer)
                    elif op == "reset":
                        dropped = router.reset_device(
                            self._require_device(device)
                        )
                        await self._send(
                            writer, {"op": "ack", "reset": dropped}
                        )
                    elif op == "end":
                        await self._send(writer, {
                            "op": "bye",
                            "device": device,
                            "verdicts": len(
                                router.device_verdicts(device)
                            ) if device else 0,
                        })
                        break
                    elif op in _ADMIN_OPS:
                        done = await self._op_admin(op, frame, writer)
                        if done:
                            break
                    else:
                        await self._send(writer, protocol.error_frame(
                            f"unknown op {op!r}", op=str(op)
                        ))
                except (protocol.ProtocolError, ShardError,
                        ValueError, KeyError) as error:
                    await self._send(
                        writer,
                        protocol.error_frame(str(error), op=str(op)),
                    )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    def _require_device(device: Optional[str]) -> str:
        if device is None:
            raise protocol.ProtocolError("no hello yet on this connection")
        return device

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        writer.write(protocol.encode_frame(frame))
        await writer.drain()

    # -- device ops ------------------------------------------------------

    async def _op_hello(self, frame: dict, writer) -> str:
        version = checked_int64(
            frame.get("version", -1), "hello version", protocol.ProtocolError
        )
        if version != protocol.PROTOCOL_VERSION:
            raise protocol.ProtocolError(
                f"protocol version {version} unsupported "
                f"(server speaks {protocol.PROTOCOL_VERSION})"
            )
        device = str(frame.get("device", ""))
        if not device:
            raise protocol.ProtocolError("hello without a device name")
        wants_colours = frame.get("colours", False)
        if type(wants_colours) is not bool:
            raise protocol.ProtocolError(
                f"hello colours must be a bool, got {wants_colours!r}"
            )
        if wants_colours != self.router.coloured:
            raise protocol.ProtocolError(
                "colour-mode mismatch: device wants "
                f"colours={wants_colours}, daemon runs "
                f"colours={self.router.coloured}"
            )
        await self._send(writer, {
            "op": "welcome",
            "version": protocol.PROTOCOL_VERSION,
            "colours": self.router.coloured,
        })
        return device

    async def _op_events(self, device, frame: dict, writer) -> None:
        device = self._require_device(device)
        router = self.router
        touched = []
        # The whole frame is validated before any shard sees a byte of it.
        for pid, columns in protocol.decode_columns(frame).items():
            shard = await router.shard_for(device, pid)
            shard.ingest(columns)
            router.notify_ingest(shard)
            touched.append(shard)
        # Real backpressure: while any touched shard sits above its high
        # watermark, this handler stops reading the socket.  The worker
        # drains in the background; the gate reopens at the low
        # watermark and reading resumes.
        for shard in touched:
            await router.wait_writable(shard)

    async def _op_source(self, device, frame: dict, writer) -> None:
        device = self._require_device(device)
        address_range = protocol.frame_range(frame)
        shard = await self.router.shard_for(
            device, protocol.frame_pid(frame)
        )
        shard.register_source(
            address_range,
            colour=(
                str(frame.get("colour") or frame.get("name") or "")
                if self.router.coloured else None
            ),
        )

    async def _op_check(self, device, frame: dict, writer) -> None:
        device = self._require_device(device)
        address_range = protocol.frame_range(frame)
        shard = await self.router.shard_for(
            device, protocol.frame_pid(frame)
        )
        tainted, colours, degraded = shard.check(
            address_range,
            immediate=bool(frame.get("immediate", False)),
        )
        verdict = {
            "op": "verdict",
            "sink": frame.get("sink", ""),
            "channel": frame.get("channel", ""),
            "index": frame.get("index", 0),
            "pid": frame.get("pid", 0),
            "tainted": tainted,
            "colours": colours,
            "degraded": degraded,
        }
        self.router.record_verdict(device, verdict)
        await self._send(writer, verdict)

    # -- admin ops -------------------------------------------------------

    async def _op_admin(self, op: str, frame: dict, writer) -> bool:
        router = self.router
        if op == "query":
            device = str(frame.get("device", ""))
            await self._send(writer, {
                "op": "query_result",
                "device": device,
                "verdicts": router.device_verdicts(device),
                "attribution": router.device_attribution(device),
                "shards": [
                    shard.stats()
                    for key, shard in sorted(router.shards.items())
                    if key[0] == device
                ],
                "late_detections": [
                    d
                    for key, shard in sorted(router.shards.items())
                    if key[0] == device
                    for d in shard.late_detections()
                ],
            })
        elif op == "stats":
            await self._send(writer, {
                "op": "stats_result",
                "server": {
                    "connections_served": self.connections_served,
                    "frames_received": self.frames_received,
                    "devices": router.devices(),
                },
                **router.stats(),
            })
        elif op == "drain":
            snapshot = router.drain_shard(
                str(frame.get("device", "")), protocol.frame_pid(frame)
            )
            await self._send(
                writer, {"op": "drained", "snapshot": snapshot}
            )
        elif op == "restore":
            placed = router.restore_shard(
                frame.get("snapshot") or {},
                worker_id=_frame_worker(frame, None),
            )
            await self._send(writer, {"op": "restored", "worker": placed})
        elif op == "migrate":
            device = str(frame.get("device", ""))
            pid = protocol.frame_pid(frame)
            worker = _frame_worker(frame, None)
            snapshot = router.drain_shard(device, pid)
            placed = router.restore_shard(snapshot, worker_id=worker)
            await self._send(writer, {"op": "migrated", "worker": placed})
        elif op == "stop_worker":
            worker = _frame_worker(frame, -1)
            migrated = await router.stop_worker(worker)
            await self._send(writer, {
                "op": "worker_stopped",
                "worker": worker,
                "migrated": [[device, pid] for device, pid in migrated],
            })
        elif op == "shutdown":
            await self._send(writer, {"op": "ack", "shutdown": True})
            self.shutdown()
            return True
        return False

    # -- metrics scrape endpoint ----------------------------------------

    def _serve_metrics_text(self) -> str:
        """Serve-local Prometheus series appended after the registry's."""
        stats = self.router.stats()
        lines = []

        def gauge(name: str, help_text: str, value) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")

        def counter(name: str, help_text: str, value) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}_total {value}")

        gauge("pift_serve_shards", "live tracker shards", stats["shards"])
        gauge("pift_serve_parked_shards",
              "shards parked mid-migration", stats["parked"])
        gauge("pift_serve_devices", "devices seen", stats["devices"])
        gauge("pift_serve_queue_depth",
              "events waiting across all shard FIFOs",
              stats["queue_depth"])
        counter("pift_serve_migrations",
                "shard drain/restore migrations completed",
                stats["migrations"])
        counter("pift_serve_events_ingested",
                "events accepted across all live shards",
                stats["events_ingested"])
        counter("pift_serve_checks_answered",
                "sink checks answered across all live shards",
                stats["checks_answered"])
        counter("pift_serve_forced_drops",
                "events lost to overflow policies across live shards",
                stats["forced_drops"])
        counter("pift_serve_connections",
                "ingestion connections accepted", self.connections_served)
        counter("pift_serve_frames",
                "protocol frames received", self.frames_received)
        return "\n".join(lines) + "\n"

    async def _handle_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """A deliberately tiny HTTP/1.0 responder for GET /metrics."""
        from repro.telemetry.exporters import (
            PROMETHEUS_CONTENT_TYPE, scrape_body,
        )
        try:
            request = await reader.readline()
            while True:  # drain request headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else ""
            if len(parts) < 2 or parts[0] != "GET":
                status, body = "405 Method Not Allowed", b"GET only\n"
                content_type = "text/plain"
            elif path not in ("/metrics", "/metrics/"):
                status, body = "404 Not Found", b"try /metrics\n"
                content_type = "text/plain"
            else:
                status = "200 OK"
                extra = self._serve_metrics_text()
                if self.telemetry is not None and self.telemetry.enabled:
                    body, content_type = scrape_body(
                        self.telemetry.metrics, extra_text=extra
                    )
                else:
                    body = extra.encode("utf-8")
                    content_type = PROMETHEUS_CONTENT_TYPE
            writer.write(
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
