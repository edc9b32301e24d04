"""`ArtifactStore` — a content-addressed, crash-safe recording store.

Recording a suite (spinning up 57 ``AndroidDevice`` executions) is the
dominant cost of every sweep/faults/bench invocation, yet the result is
a pure function of a handful of inputs.  The store makes that cost
*once-ever* instead of once-per-process: entries are keyed by a SHA-256
digest over the canonical recording inputs (suite kind, app list, work
parameter, trace format version), so any process that can name the same
inputs gets the same bytes back.

Crash-safety invariants (see DESIGN.md):

* **Atomic visibility** — payloads land via same-directory temp file +
  ``os.replace``; a reader never observes a half-written entry.  The
  meta sidecar is written *after* the payload, so meta presence marks a
  committed entry.
* **Deterministic bytes** — payload bytes are a pure function of the
  runs (sorted keys, zeroed gzip mtime), so concurrent writers racing on
  one key replace equal content with equal content; last-writer-wins is
  harmless and exactly one valid entry remains.
* **Checked reads** — every read re-hashes the payload against the meta
  checksum.  A mismatch (bit flip, truncation, torn write of a foreign
  tool) quarantines the entry and reports a miss — callers fall back to
  re-recording, never crash on a bad cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.tracefile import FORMAT_VERSION, TraceFormatError
from repro.store.suitefile import dump_suite_bytes, load_suite_bytes

#: Bumping this invalidates every existing entry (digests change).
STORE_VERSION = 1

ENTRY_FORMAT = "pift-store-entry"

_PAYLOAD_SUFFIX = ".suite.gz"
_META_SUFFIX = ".meta.json"


class StoreError(RuntimeError):
    """The store is unusable (not a directory, unwritable, ...)."""


def _canonical(value):
    """JSON-stable form of key inputs (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class StoreKey:
    """The canonical identity of one recording.

    ``inputs`` is a tuple of ``(name, value)`` pairs; the digest is the
    SHA-256 of the canonical JSON of ``(store version, kind, inputs)``,
    so *any* input change — a new app in the suite, a different work
    parameter, a trace-format bump — addresses a fresh entry instead of
    silently serving stale bytes.
    """

    kind: str
    inputs: Tuple[Tuple[str, object], ...]

    @property
    def digest(self) -> str:
        body = json.dumps(
            {
                "store_version": STORE_VERSION,
                "kind": self.kind,
                "inputs": {
                    name: _canonical(value) for name, value in self.inputs
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": {name: _canonical(value) for name, value in self.inputs},
        }


def droidbench_key() -> StoreKey:
    """Key of the canonical 57-app DroidBench suite recording."""
    from repro.apps.droidbench.suite import all_apps

    return StoreKey(
        kind="droidbench",
        inputs=(
            ("apps", tuple(app.name for app in all_apps())),
            ("trace_version", FORMAT_VERSION),
        ),
    )


def malware_key(work: int) -> StoreKey:
    """Key of the canonical seven-sample malware recording at ``work``."""
    from repro.apps.malware import SAMPLES

    return StoreKey(
        kind="malware",
        inputs=(
            ("samples", tuple(sample.name for sample in SAMPLES)),
            ("work", int(work)),
            ("trace_version", FORMAT_VERSION),
        ),
    )


def lgroot_key(work: int) -> StoreKey:
    """Key of the LGRoot detection-latency trace recording at ``work``."""
    return StoreKey(
        kind="lgroot",
        inputs=(("work", int(work)), ("trace_version", FORMAT_VERSION)),
    )


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class ArtifactStore:
    """On-disk, content-addressed store of recorded suites.

    Args:
        root: store directory (created on first write unless read-only).
        read_only: sweep workers open the store read-only — reads never
            mutate the tree (no quarantine moves, no counter files), so
            any number of concurrent readers is safe by construction.
        telemetry: optional hub; mirrors the instance counters onto the
            ``store.*`` metric family.
    """

    def __init__(
        self,
        root: Union[str, Path],
        read_only: bool = False,
        telemetry=None,
    ) -> None:
        self.root = Path(root)
        self.read_only = read_only
        #: In-process accounting (also the record-once regression hooks).
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corruptions = 0
        self._telemetry = None
        if telemetry is not None and telemetry.enabled:
            self._telemetry = telemetry
            m = telemetry.metrics
            self._hit_counter = m.counter("store.hits", "store entry hits")
            self._miss_counter = m.counter("store.misses", "store entry misses")
            self._write_counter = m.counter("store.writes", "store entries written")
            self._corruption_counter = m.counter(
                "store.corruptions", "corrupt entries quarantined"
            )
        if not read_only:
            self._ensure_layout()
        elif self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} is not a directory")

    # -- layout -----------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def journals_dir(self) -> Path:
        return self.root / "journals"

    def _ensure_layout(self) -> None:
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} is not a directory")
        for directory in (self.objects_dir, self.quarantine_dir, self.journals_dir):
            directory.mkdir(parents=True, exist_ok=True)

    def _entry_paths(self, digest: str) -> Tuple[Path, Path]:
        shard = self.objects_dir / digest[:2]
        return (
            shard / f"{digest}{_PAYLOAD_SUFFIX}",
            shard / f"{digest}{_META_SUFFIX}",
        )

    def journal_path(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise StoreError(f"bad run id {run_id!r}")
        return self.journals_dir / f"{run_id}.jsonl"

    def telemetry_path(self, run_id: str) -> Path:
        """The run's persisted flight-recorder stream (JSONL), next to its
        journal — what ``repro report`` joins against post hoc."""
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise StoreError(f"bad run id {run_id!r}")
        return self.journals_dir / f"{run_id}.telemetry.jsonl"

    def journal_ids(self) -> List[str]:
        if not self.journals_dir.is_dir():
            return []
        return sorted(
            p.stem
            for p in self.journals_dir.glob("*.jsonl")
            # Telemetry streams live alongside journals but are not runs.
            if not p.stem.endswith(".telemetry")
        )

    # -- counters ---------------------------------------------------------

    def _note_hit(self) -> None:
        self.hits += 1
        if self._telemetry is not None:
            self._hit_counter.inc()

    def _note_miss(self) -> None:
        self.misses += 1
        if self._telemetry is not None:
            self._miss_counter.inc()

    def _note_write(self) -> None:
        self.writes += 1
        if self._telemetry is not None:
            self._write_counter.inc()

    def _note_corruption(self) -> None:
        self.corruptions += 1
        if self._telemetry is not None:
            self._corruption_counter.inc()

    # -- write path -------------------------------------------------------

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name + ".tmp."
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def put_runs(self, key: StoreKey, runs: Sequence) -> str:
        """Persist a recorded suite under ``key``; returns its digest.

        Payload first, meta second: a crash between the two leaves a
        payload without meta, which readers treat as absent and a later
        ``put`` simply overwrites.
        """
        if self.read_only:
            raise StoreError("store opened read-only")
        self._ensure_layout()
        digest = key.digest
        payload = dump_suite_bytes(runs)
        payload_path, meta_path = self._entry_paths(digest)
        self._atomic_write(payload_path, payload)
        meta = {
            "format": ENTRY_FORMAT,
            "store_version": STORE_VERSION,
            "digest": digest,
            "key": key.as_dict(),
            "sha256": _sha256(payload),
            "payload_bytes": len(payload),
            "runs": len(runs),
            "created": time.time(),
        }
        self._atomic_write(
            meta_path,
            json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            ),
        )
        self._note_write()
        return digest

    # -- read path --------------------------------------------------------

    def _read_meta(self, meta_path: Path) -> Optional[dict]:
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(meta, dict) or meta.get("format") != ENTRY_FORMAT:
            return None
        return meta

    def _quarantine(self, digest: str) -> None:
        """Move a bad entry aside (best-effort; read-only stores skip it)."""
        if self.read_only:
            return
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for path in self._entry_paths(digest):
            if path.exists():
                try:
                    os.replace(path, self.quarantine_dir / path.name)
                except OSError:
                    pass

    def get_by_digest(self, digest: str):
        """The stored runs for ``digest``, or None on miss/corruption.

        Corrupt entries (checksum mismatch, undecodable payload) are
        quarantined and reported as a miss — the caller's fallback is to
        re-record, which also re-``put``s a fresh entry.
        """
        payload_path, meta_path = self._entry_paths(digest)
        meta = self._read_meta(meta_path)
        if meta is None:
            self._note_miss()
            return None
        try:
            payload = payload_path.read_bytes()
        except OSError:
            self._note_miss()
            return None
        if _sha256(payload) != meta.get("sha256"):
            self._note_corruption()
            self._quarantine(digest)
            self._note_miss()
            return None
        try:
            runs = load_suite_bytes(payload)
        except TraceFormatError:
            self._note_corruption()
            self._quarantine(digest)
            self._note_miss()
            return None
        self._note_hit()
        return runs

    def get_runs(self, key: StoreKey):
        return self.get_by_digest(key.digest)

    def has(self, key: StoreKey) -> bool:
        """True when a committed entry exists (no checksum pass)."""
        payload_path, meta_path = self._entry_paths(key.digest)
        return payload_path.exists() and meta_path.exists()

    # -- maintenance ------------------------------------------------------

    def _entries(self) -> List[dict]:
        entries = []
        if not self.objects_dir.is_dir():
            return entries
        for meta_path in sorted(self.objects_dir.glob(f"*/*{_META_SUFFIX}")):
            meta = self._read_meta(meta_path)
            if meta is None:
                continue
            payload_path = meta_path.with_name(
                meta_path.name.replace(_META_SUFFIX, _PAYLOAD_SUFFIX)
            )
            if not payload_path.exists():
                continue
            entries.append(meta)
        return entries

    def stats(self) -> dict:
        """JSON-ready store accounting (the ``repro store stats`` payload)."""
        entries = self._entries()
        kinds: Dict[str, dict] = {}
        for meta in entries:
            kind = meta.get("key", {}).get("kind", "unknown")
            row = kinds.setdefault(kind, {"entries": 0, "payload_bytes": 0})
            row["entries"] += 1
            row["payload_bytes"] += meta.get("payload_bytes", 0)
        quarantined = (
            sorted(p.name for p in self.quarantine_dir.iterdir())
            if self.quarantine_dir.is_dir()
            else []
        )
        return {
            "root": str(self.root),
            "store_version": STORE_VERSION,
            "entries": len(entries),
            "payload_bytes": sum(m.get("payload_bytes", 0) for m in entries),
            "kinds": kinds,
            "quarantined": len(quarantined),
            "journals": self.journal_ids(),
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corruptions": self.corruptions,
            },
        }

    def verify(self) -> dict:
        """Re-hash every committed entry; quarantine the bad ones.

        ``quarantined`` counts files already sitting in the quarantine
        directory (from this pass or earlier ones) — a store needing
        attention even when every remaining entry re-hashes clean.
        """
        checked = 0
        corrupt: List[str] = []
        for meta in self._entries():
            digest = meta["digest"]
            payload_path, _ = self._entry_paths(digest)
            checked += 1
            try:
                payload = payload_path.read_bytes()
            except OSError:
                corrupt.append(digest)
                continue
            if _sha256(payload) != meta.get("sha256"):
                corrupt.append(digest)
                self._note_corruption()
                self._quarantine(digest)
        quarantined = (
            len(list(self.quarantine_dir.iterdir()))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "checked": checked,
            "corrupt": len(corrupt),
            "digests": corrupt,
            "quarantined": quarantined,
        }

    def prune(
        self,
        max_bytes: Optional[int] = None,
        clear_quarantine: bool = True,
    ) -> dict:
        """Delete quarantined files and (optionally) shrink under a budget.

        With ``max_bytes``, whole entries are removed oldest-first (by
        the ``created`` stamp) until the remaining payload bytes fit.
        """
        if self.read_only:
            raise StoreError("store opened read-only")
        removed_entries = 0
        removed_bytes = 0
        quarantine_files = 0
        if clear_quarantine and self.quarantine_dir.is_dir():
            for path in list(self.quarantine_dir.iterdir()):
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                quarantine_files += 1
                removed_bytes += size
        if max_bytes is not None:
            entries = sorted(
                self._entries(), key=lambda m: m.get("created", 0.0)
            )
            total = sum(m.get("payload_bytes", 0) for m in entries)
            for meta in entries:
                if total <= max_bytes:
                    break
                for path in self._entry_paths(meta["digest"]):
                    try:
                        path.unlink()
                    except OSError:
                        pass
                total -= meta.get("payload_bytes", 0)
                removed_bytes += meta.get("payload_bytes", 0)
                removed_entries += 1
        return {
            "removed_entries": removed_entries,
            "quarantine_files_removed": quarantine_files,
            "removed_bytes": removed_bytes,
        }
