"""Client side of the serve protocol: device streams and admin verbs.

:class:`DeviceClient` is what a simulated device runs: connect, say
hello, stream a recorded run as frames (sources / event chunks / checks
in replay-plan order), and collect the verdict stream.  The protocol is
strictly request-driven on the client side — only ``hello``, ``check``,
``reset`` and ``end`` have replies — so one reader loop and zero
out-of-band state cover it.

:class:`AdminClient` wraps the management verbs.  ``drain`` returns the
shard snapshot *over the wire* and ``restore`` sends it back — the fleet
harness round-trips a snapshot through an admin connection mid-stream,
which is the strongest form of the migration claim: the checkpoint that
crossed the network is the one the verdicts must survive.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional

from repro.android.device import RecordedRun
from repro.serve import protocol

__all__ = ["DeviceClient", "AdminClient", "ServeClientError", "open_connection"]


class ServeClientError(RuntimeError):
    """An error frame (or protocol breach) from the daemon."""


async def open_connection(
    host: Optional[str] = None,
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
):
    """``(reader, writer)`` over TCP or a unix socket (one of the two)."""
    if unix_path is not None:
        return await asyncio.open_unix_connection(
            unix_path, limit=16 * 1024 * 1024
        )
    if host is None or port is None:
        raise ValueError("need host+port or unix_path")
    return await asyncio.open_connection(host, port, limit=16 * 1024 * 1024)


class _Connection:
    """Shared frame plumbing for the device and admin clients."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    async def send(self, frame: dict) -> None:
        self._writer.write(protocol.encode_frame(frame))
        await self._writer.drain()

    async def recv(self) -> dict:
        line = await self._reader.readline()
        if not line:
            raise ServeClientError("connection closed by daemon")
        frame = protocol.decode_frame(line)
        if frame.get("op") == "error":
            raise ServeClientError(str(frame.get("error")))
        return frame

    async def request(self, frame: dict, expect: str) -> dict:
        await self.send(frame)
        reply = await self.recv()
        if reply.get("op") != expect:
            raise ServeClientError(
                f"expected {expect!r} reply, got {reply.get('op')!r}"
            )
        return reply

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass


class DeviceClient(_Connection):
    """One simulated device: a handshaken ingestion connection."""

    def __init__(self, reader, writer, device: str,
                 colours: bool = False) -> None:
        super().__init__(reader, writer)
        self.device = device
        self.colours = colours
        self.frames_sent = 0
        self.events_sent = 0

    @classmethod
    async def connect(
        cls,
        device: str,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        colours: bool = False,
    ) -> "DeviceClient":
        reader, writer = await open_connection(host, port, unix_path)
        client = cls(reader, writer, device, colours=colours)
        try:
            await client.request(
                protocol.hello_frame(device, colours=colours), "welcome"
            )
        except BaseException:
            # A refused handshake must not leak the socket.
            await client.close()
            raise
        return client

    async def stream_run(
        self,
        recorded: RecordedRun,
        chunk: int = protocol.DEFAULT_CHUNK,
        after_frame: Optional[Callable[[int, dict], "asyncio.Future"]] = None,
    ) -> List[dict]:
        """Stream one recorded run; returns its verdicts in check order.

        ``after_frame(i, frame)`` (an async callable) is awaited after
        frame ``i`` has been sent and its reply (if any) consumed — the
        hook the fleet harness uses to fire a mid-stream migration at a
        chosen point while this device keeps streaming.
        """
        verdicts: List[dict] = []
        for i, frame in enumerate(protocol.run_to_frames(recorded, chunk)):
            op = frame["op"]
            if op == "check":
                reply = await self.request(frame, "verdict")
                verdicts.append(reply)
            else:
                await self.send(frame)
                if op == "events":
                    self.events_sent += len(frame["starts"])
            self.frames_sent += 1
            if after_frame is not None:
                await after_frame(i, frame)
        return verdicts

    async def reset(self) -> int:
        """Drop this device's shards (between runs); returns the count."""
        reply = await self.request({"op": "reset"}, "ack")
        return int(reply.get("reset", 0))

    async def end(self) -> dict:
        """Close the stream politely; returns the daemon's summary."""
        reply = await self.request({"op": "end"}, "bye")
        await self.close()
        return reply


class AdminClient(_Connection):
    """Management verbs over an ordinary protocol connection."""

    @classmethod
    async def connect(
        cls,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
    ) -> "AdminClient":
        reader, writer = await open_connection(host, port, unix_path)
        return cls(reader, writer)

    async def query(self, device: str) -> dict:
        return await self.request(
            {"op": "query", "device": device}, "query_result"
        )

    async def stats(self) -> dict:
        return await self.request({"op": "stats"}, "stats_result")

    async def drain(self, device: str, pid: int) -> dict:
        """Park ``(device, pid)`` and bring its snapshot home."""
        reply = await self.request(
            {"op": "drain", "device": device, "pid": pid}, "drained"
        )
        return reply["snapshot"]

    async def restore(
        self, snapshot: dict, worker: Optional[int] = None
    ) -> int:
        frame = {"op": "restore", "snapshot": snapshot}
        if worker is not None:
            frame["worker"] = worker
        reply = await self.request(frame, "restored")
        return int(reply["worker"])

    async def migrate(
        self, device: str, pid: int, worker: Optional[int] = None
    ) -> int:
        """Server-side drain+restore (snapshot never leaves the daemon)."""
        frame = {"op": "migrate", "device": device, "pid": pid}
        if worker is not None:
            frame["worker"] = worker
        reply = await self.request(frame, "migrated")
        return int(reply["worker"])

    async def stop_worker(self, worker: int) -> List[tuple]:
        """Kill a drain worker; its shards migrate to the survivors."""
        reply = await self.request(
            {"op": "stop_worker", "worker": worker}, "worker_stopped"
        )
        return [tuple(key) for key in reply.get("migrated", ())]

    async def shutdown(self) -> None:
        await self.request({"op": "shutdown"}, "ack")
        await self.close()
