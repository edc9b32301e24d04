"""Suite artifacts: a whole recorded suite as one deterministic blob.

The :mod:`repro.analysis.tracefile` format persists *one* recorded run;
the artifact store persists *suites* — the list of
:class:`~repro.analysis.accuracy.AppRun` a recording pass produces —
because that is the unit every sweep cell consumes.  The document reuses
the tracefile event encoding (same ``FORMAT_VERSION``, so a trace-format
bump invalidates store entries too, by design).

Byte determinism matters here: two processes racing to record the same
suite must produce *identical* payload bytes so the atomic-replace write
protocol is last-writer-wins over equal content.  Hence ``sort_keys``,
compact separators, and a zeroed gzip mtime.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
from typing import Iterator, List, Sequence

from repro.analysis.tracefile import (
    FORMAT_VERSION,
    TraceFormatError,
    decode_recorded_run,
    encode_recorded_run,
)

SUITE_FORMAT = "pift-suite"


def dump_suite_bytes(runs: Sequence) -> bytes:
    """Serialise ``runs`` (a list of ``AppRun``) to deterministic gzip bytes."""
    document = {
        "format": SUITE_FORMAT,
        "version": FORMAT_VERSION,
        "runs": [
            {
                "name": run.name,
                "leaks": bool(run.leaks),
                "category": run.category,
                "run": encode_recorded_run(run.recorded),
            }
            for run in runs
        ],
    }
    raw = json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return gzip.compress(raw, mtime=0)


def load_suite_bytes(payload: bytes) -> List:
    """Rebuild the ``AppRun`` list from :func:`dump_suite_bytes` output.

    Raises :class:`~repro.analysis.tracefile.TraceFormatError` on any
    structural problem — the store treats that exactly like a checksum
    mismatch (quarantine + re-record).
    """
    from repro.analysis.accuracy import AppRun

    try:
        document = json.loads(gzip.decompress(payload).decode("utf-8"))
    except (OSError, ValueError) as error:
        raise TraceFormatError(f"unreadable suite payload: {error}") from error
    if not isinstance(document, dict) or document.get("format") != SUITE_FORMAT:
        raise TraceFormatError("payload is not a pift-suite document")
    if document.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"suite payload has version {document.get('version')}, "
            f"expected {FORMAT_VERSION}"
        )
    try:
        return [
            AppRun(
                name=entry["name"],
                recorded=decode_recorded_run(entry["run"]),
                leaks=entry["leaks"],
                category=entry.get("category", ""),
            )
            for entry in document["runs"]
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise TraceFormatError(f"malformed suite entry: {error}") from error


# -- streaming reads ---------------------------------------------------------
#
# The byte determinism that makes writes last-writer-wins-safe also makes
# *incremental* reads possible without a streaming JSON parser: every
# suite payload is exactly
#
#     {"format":"pift-suite","runs":[<run>,<run>,...],"version":N}
#
# (sort_keys puts ``format`` < ``runs`` < ``version``), so a scanner can
# verify the prefix, lift one balanced ``<run>`` object at a time off the
# gzip stream, and decode it — memory stays proportional to one run, not
# the suite.  The fleet client feeds hours of device streams this way.
# One consequence of the key order is that ``version`` sits at the *tail*:
# a version mismatch is reported when the iterator reaches the end, after
# runs have already been yielded.  Callers that need up-front validation
# keep using :func:`load_suite_bytes`.

_STREAM_PREFIX = '{"format":"pift-suite","runs":['
_STREAM_TAIL = re.compile(r',?"version":(\d+)\}\s*')


class _JsonScanner:
    """Pulls text off a byte stream; can take one balanced JSON object."""

    def __init__(self, fileobj, chunk_size: int = 1 << 16) -> None:
        self._fileobj = fileobj
        self._chunk_size = chunk_size
        self._buffer = ""
        self._eof = False

    def _fill(self) -> bool:
        if self._eof:
            return False
        try:
            chunk = self._fileobj.read(self._chunk_size)
        except (OSError, EOFError) as error:
            raise TraceFormatError(
                f"unreadable suite payload: {error}"
            ) from error
        if not chunk:
            self._eof = True
            return False
        self._buffer += chunk.decode("utf-8")
        return True

    def _need(self, count: int) -> None:
        while len(self._buffer) < count and self._fill():
            pass
        if len(self._buffer) < count:
            raise TraceFormatError("truncated suite payload")

    def take(self, count: int) -> str:
        self._need(count)
        text, self._buffer = self._buffer[:count], self._buffer[count:]
        return text

    def peek(self) -> str:
        self._need(1)
        return self._buffer[0]

    def take_object(self) -> str:
        """One balanced ``{...}`` object (string/escape aware)."""
        if self.peek() != "{":
            raise TraceFormatError("suite run entry is not an object")
        depth = 0
        in_string = False
        escaped = False
        position = 0
        while True:
            if position >= len(self._buffer) and not self._fill():
                raise TraceFormatError("truncated suite payload")
            ch = self._buffer[position]
            position += 1
            if escaped:
                escaped = False
            elif in_string:
                if ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return self.take(position)

    def rest(self) -> str:
        while self._fill():
            pass
        text, self._buffer = self._buffer, ""
        return text


def iter_suite_runs(source, chunk_size: int = 1 << 16) -> Iterator:
    """Yield ``AppRun`` entries from a suite payload one at a time.

    ``source`` is a filesystem path, a binary file object, or the raw
    payload bytes.  Decoding is incremental: each run's events are only
    materialised when its entry is yielded, so a many-run suite streams
    in ~one run of memory.  Raises
    :class:`~repro.analysis.tracefile.TraceFormatError` on structural
    problems — including a version mismatch, which (by the canonical key
    order) is only detectable once the iterator reaches the document
    tail.
    """
    from repro.analysis.accuracy import AppRun

    close_file = False
    if isinstance(source, (str, os.PathLike)):
        fileobj = open(source, "rb")
        close_file = True
    elif isinstance(source, (bytes, bytearray)):
        fileobj = io.BytesIO(bytes(source))
    else:
        fileobj = source
    try:
        scanner = _JsonScanner(
            gzip.GzipFile(fileobj=fileobj, mode="rb"), chunk_size
        )
        if scanner.take(len(_STREAM_PREFIX)) != _STREAM_PREFIX:
            raise TraceFormatError(
                "payload is not a canonical pift-suite document"
            )
        if scanner.peek() == "]":
            scanner.take(1)
        else:
            while True:
                try:
                    entry = json.loads(scanner.take_object())
                    run = AppRun(
                        name=entry["name"],
                        recorded=decode_recorded_run(entry["run"]),
                        leaks=entry["leaks"],
                        category=entry.get("category", ""),
                    )
                except (KeyError, TypeError, ValueError) as error:
                    raise TraceFormatError(
                        f"malformed suite entry: {error}"
                    ) from error
                yield run
                separator = scanner.take(1)
                if separator == "]":
                    break
                if separator != ",":
                    raise TraceFormatError(
                        f"unexpected {separator!r} between suite runs"
                    )
        tail = _STREAM_TAIL.fullmatch(scanner.rest())
        if tail is None:
            raise TraceFormatError("malformed suite document tail")
        if int(tail.group(1)) != FORMAT_VERSION:
            raise TraceFormatError(
                f"suite payload has version {tail.group(1)}, "
                f"expected {FORMAT_VERSION}"
            )
    finally:
        if close_file:
            fileobj.close()
