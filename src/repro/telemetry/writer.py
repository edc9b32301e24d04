"""Structured event sink: newline-delimited JSON (JSONL).

Every event is one self-describing JSON object per line::

    {"seq": 17, "t": 0.004512, "type": "source_taint", "pid": 0,
     "index": 912, "start": 1074003968, "size": 4}

``seq`` is a writer-local sequence number and ``t`` the monotonic time in
seconds since the writer was opened, so traces are diffable across runs
(no wall-clock noise).  Events are buffered and flushed in batches to
keep the hot path at one ``dict`` build + one ``json.dumps``.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import IO, Iterator, List, Optional, Union

#: Anything ``open()`` accepts as a path.
PathLike = Union[str, "os.PathLike[str]"]


class TelemetryWriter:
    """Buffered JSONL event writer.

    Args:
        destination: a file path or an open text stream (``io.StringIO``
            works for tests).  Paths are opened for write and owned (and
            therefore closed) by the writer; streams are borrowed.
        buffer_lines: events held before a physical write.
    """

    def __init__(
        self,
        destination: Union[PathLike, IO[str]],
        buffer_lines: int = 512,
    ) -> None:
        if buffer_lines < 1:
            raise ValueError("buffer_lines must be >= 1")
        if isinstance(destination, (str, os.PathLike)):
            path = os.fspath(destination)
            self._stream: IO[str] = open(path, "w", encoding="utf-8")
            self._owns_stream = True
            self.path: Optional[str] = path
        else:
            self._stream = destination
            self._owns_stream = False
            self.path = None
        self._buffer: List[str] = []
        self._buffer_lines = buffer_lines
        self._start = time.perf_counter()
        self.event_count = 0
        self.closed = False
        # A hub may be shared by several threads; serialise the buffer
        # mutations so their lines never interleave.  (Sweep workers'
        # events merge on the dispatcher's main loop, one thread.)
        self._lock = threading.Lock()

    # -- emission --------------------------------------------------------

    def emit(self, event_type: str, **fields) -> None:
        """Append one event; ``type``, ``seq`` and ``t`` are added here."""
        if self.closed:
            raise ValueError("emit() on a closed TelemetryWriter")
        with self._lock:
            record = {
                "seq": self.event_count,
                "t": round(time.perf_counter() - self._start, 9),
                "type": event_type,
            }
            record.update(fields)
            self._buffer.append(json.dumps(record, separators=(",", ":")))
            self.event_count += 1
            flush_now = len(self._buffer) >= self._buffer_lines
        if flush_now:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            if self._buffer:
                self._stream.write("\n".join(self._buffer) + "\n")
                self._buffer.clear()
            self._stream.flush()

    def close(self) -> None:
        if self.closed:
            return
        self.flush()
        if self._owns_stream:
            self._stream.close()
        self.closed = True

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TeeWriter:
    """Fan one event stream out to several writer-shaped sinks.

    Lets one hub feed both the JSONL stream (``--telemetry``) and the
    in-memory flight recorder (``--trace-out`` / ``repro report``) — any
    object with ``emit``/``flush``/``close`` slots in.
    """

    path: Optional[str] = None

    def __init__(self, *writers) -> None:
        if not writers:
            raise ValueError("TeeWriter needs at least one writer")
        self.writers = list(writers)
        self.closed = False

    @property
    def event_count(self) -> int:
        return max(writer.event_count for writer in self.writers)

    def emit(self, event_type: str, **fields) -> None:
        for writer in self.writers:
            writer.emit(event_type, **fields)

    def flush(self) -> None:
        for writer in self.writers:
            writer.flush()

    def close(self) -> None:
        if self.closed:
            return
        for writer in self.writers:
            writer.close()
        self.closed = True


def read_events(source: Union[PathLike, IO[str]]) -> List[dict]:
    """Parse a JSONL event stream back into a list of dicts."""
    return list(iter_events(source))


def iter_events(source: Union[PathLike, IO[str]]) -> Iterator[dict]:
    """Stream-parse a JSONL event file or open text stream."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    yield json.loads(line)
    else:
        if isinstance(source, io.StringIO):
            source.seek(0)
        for line in source:
            line = line.strip()
            if line:
                yield json.loads(line)
