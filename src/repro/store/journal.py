"""Crash-safe sweep journals: checkpoint every finished cell, resume later.

A journal is an append-only JSONL file under ``<store>/journals/``.  The
first line is a header binding the journal to a *grid fingerprint* — a
SHA-256 over every cell's deterministic identity — so ``--resume`` can
refuse to graft results onto a different grid.  Each subsequent line is
one completed :class:`~repro.sweep.engine.CellResult`.

Crash-safety invariants:

* every record is a single line, flushed and fsync'd before the engine
  reports the cell as checkpointed — a kill after checkpoint N loses
  nothing up to N;
* a torn trailing line (the crash landed mid-write) is detected by JSON
  parse failure on load, *truncated away* (so later appends extend a
  clean file rather than concatenating onto the fragment), and warned
  about; the cell it described simply re-runs;
* fault-tolerance bookkeeping rides in the same stream: ``attempt``
  records mark a cell requeued by the lease dispatcher, ``poison`` records
  mark a cell quarantined after its retry budget — a later ``cell``
  record for the same index supersedes its poison record (completed
  wins), so a resumed run can cure a previously poisoned cell;
* records are pure deterministic payloads (the same fields
  ``CellResult.as_dict`` freezes), so a resumed grid is bit-identical to
  an uninterrupted run — verified by tests and the CI resume-smoke job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal is unusable or does not match the requested grid."""


def _cell_identity(cell) -> dict:
    """The deterministic identity of one cell (order-independent of results)."""
    base_rates = (
        dataclasses.asdict(cell.base_rates)
        if cell.base_rates is not None
        else None
    )
    return {
        "index": cell.index,
        "ni": cell.config.window_size,
        "nt": cell.config.max_propagations,
        "untainting": cell.config.untainting,
        "vectorized": cell.config.vectorized,
        "rate": cell.rate,
        "site": cell.site,
        "seed": cell.seed,
        "base_rates": base_rates,
        "state_spec": cell.state_spec,
        "droidbench": cell.droidbench,
        "malware": cell.malware,
        # Only colour-on cells carry the marker: journals written before
        # the flag existed keep fingerprint-matching their grids.
        **({"colours": True} if getattr(cell, "colours", False) else {}),
    }


def cells_fingerprint(cells: Sequence) -> str:
    """SHA-256 over the canonical identity of every cell, in order."""
    body = json.dumps(
        {
            "journal_version": JOURNAL_VERSION,
            "cells": [_cell_identity(cell) for cell in cells],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def cell_result_to_record(result) -> dict:
    """One journal line for a finished cell (deterministic payload +
    the original run's timing bookkeeping)."""
    return {
        "type": "cell",
        "index": result.index,
        "cell": result.as_dict(),
        "duration_seconds": result.duration_seconds,
        "worker": result.worker,
    }


def cell_result_from_record(record: dict):
    """Rebuild a :class:`~repro.sweep.engine.CellResult` from its record."""
    from repro.core.config import PIFTConfig
    from repro.core.faults import FaultStats
    from repro.analysis.accuracy import AccuracyReport
    from repro.sweep.engine import CellResult

    cell = record["cell"]
    result = CellResult(
        index=cell["index"],
        config=PIFTConfig(
            window_size=cell["ni"],
            max_propagations=cell["nt"],
            untainting=cell["untainting"],
            vectorized=cell["vectorized"],
        ),
        rate=cell["rate"],
        site=cell["site"],
        seed=cell["seed"],
        state_spec=cell["state_spec"],
        fault_stats=FaultStats.from_dict(cell["faults"]),
        events_tracked=cell["events_tracked"],
        operations=cell["operations"],
        duration_seconds=record.get("duration_seconds", 0.0),
        worker=record.get("worker", 0),
    )
    if "report" in cell:
        result.report = AccuracyReport.from_dict(cell["report"])
    if "malware_total" in cell:
        result.malware_detected = cell["malware_detected"]
        result.malware_total = cell["malware_total"]
    if "colours" in cell:
        result.colours = cell["colours"]
    return result


def new_run_id(fingerprint: str, existing: Sequence[str]) -> str:
    """A readable, collision-free id: ``<fingerprint[:10]>-NNN``."""
    prefix = fingerprint[:10]
    taken = {run_id for run_id in existing if run_id.startswith(prefix)}
    sequence = 0
    while f"{prefix}-{sequence:03d}" in taken:
        sequence += 1
    return f"{prefix}-{sequence:03d}"


class RunJournal:
    """One sweep run's append-only checkpoint log."""

    def __init__(
        self,
        path: Union[str, Path],
        run_id: str,
        fingerprint: str,
        total_cells: int,
        completed: Optional[Dict[int, dict]] = None,
        attempts: Optional[Dict[int, List[dict]]] = None,
        poisoned: Optional[Dict[int, dict]] = None,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.fingerprint = fingerprint
        self.total_cells = total_cells
        #: index -> raw journal record of every checkpointed cell.
        self.completed: Dict[int, dict] = dict(completed or {})
        #: index -> requeue records (dispatcher retries), append order.
        self.attempts: Dict[int, List[dict]] = dict(attempts or {})
        #: index -> poison record for cells quarantined after their retry
        #: budget — never holds an index that also appears in ``completed``
        #: (a completed cell supersedes any earlier poison record).
        self.poisoned: Dict[int, dict] = dict(poisoned or {})

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls, path: Union[str, Path], cells: Sequence, run_id: str
    ) -> "RunJournal":
        """Start a fresh journal; writes (and fsyncs) the header line."""
        cells = list(cells)
        path = Path(path)
        if path.exists():
            raise JournalError(f"journal {path} already exists")
        journal = cls(
            path=path,
            run_id=run_id,
            fingerprint=cells_fingerprint(cells),
            total_cells=len(cells),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        journal._append_line(
            {
                "type": "header",
                "journal_version": JOURNAL_VERSION,
                "run_id": run_id,
                "fingerprint": journal.fingerprint,
                "cells": len(cells),
            }
        )
        return journal

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunJournal":
        """Open an existing journal, tolerating a torn trailing line."""
        path = Path(path)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as error:
            raise JournalError(f"cannot read journal {path}: {error}") from error
        lines = raw.split("\n")
        records: List[dict] = []
        torn: Optional[int] = None
        for position, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position >= len(lines) - 2:
                    # A crash mid-append tore the final line; the cell it
                    # described was never reported checkpointed — drop it.
                    torn = position
                    continue
                raise JournalError(
                    f"journal {path} is corrupt at line {position + 1}"
                )
            if isinstance(record, dict):
                records.append(record)
        if torn is not None:
            # Truncate the fragment away so a later append extends a
            # clean file instead of welding onto the torn bytes (which
            # would corrupt the *middle* of the file for the next load).
            keep = "\n".join(lines[:torn])
            if keep:
                keep += "\n"
            warnings.warn(
                f"journal {path}: dropped torn trailing record at line "
                f"{torn + 1} (crash mid-append); truncating to last "
                f"complete record",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                os.truncate(path, len(keep.encode("utf-8")))
            except OSError:
                # Read-only medium: loading still works, appends would
                # have failed anyway.
                pass
        if not records or records[0].get("type") != "header":
            raise JournalError(f"journal {path} has no header")
        header = records[0]
        if header.get("journal_version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {path} has version {header.get('journal_version')}, "
                f"expected {JOURNAL_VERSION}"
            )
        completed = {
            record["index"]: record
            for record in records[1:]
            if record.get("type") == "cell" and "index" in record
        }
        attempts: Dict[int, List[dict]] = {}
        for record in records[1:]:
            if record.get("type") == "attempt" and "index" in record:
                attempts.setdefault(record["index"], []).append(record)
        poisoned = {
            record["index"]: record
            for record in records[1:]
            if record.get("type") == "poison"
            and "index" in record
            and record["index"] not in completed
        }
        return cls(
            path=path,
            run_id=header.get("run_id", path.stem),
            fingerprint=header["fingerprint"],
            total_cells=header.get("cells", 0),
            completed=completed,
            attempts=attempts,
            poisoned=poisoned,
        )

    # -- use --------------------------------------------------------------

    def check_matches(self, cells: Sequence) -> None:
        """Refuse to resume against a different grid than was journaled."""
        current = cells_fingerprint(cells)
        if current != self.fingerprint:
            raise JournalError(
                f"journal {self.run_id} was written for a different grid "
                f"(journal fingerprint {self.fingerprint[:10]}..., "
                f"requested {current[:10]}...); re-run without --resume"
            )

    def completed_results(self) -> Dict[int, object]:
        """Checkpointed cells rebuilt as ``CellResult`` objects."""
        return {
            index: cell_result_from_record(record)
            for index, record in self.completed.items()
        }

    def cell_rows(self) -> List[dict]:
        """Flat per-cell rows for post-hoc reporting (``repro report``).

        One dict per checkpointed cell, in index order, carrying the
        deterministic identity plus the run's timing bookkeeping —
        ``worker`` is the evaluating process's pid, the join key against
        the worker ids in the run's telemetry stream.
        """
        rows = []
        for index in sorted(self.completed):
            record = self.completed[index]
            cell = record.get("cell", {})
            rows.append(
                {
                    "index": index,
                    "ni": cell.get("ni"),
                    "nt": cell.get("nt"),
                    "rate": cell.get("rate"),
                    "site": cell.get("site"),
                    "accuracy": cell.get("accuracy"),
                    "events_tracked": cell.get("events_tracked", 0),
                    "operations": cell.get("operations", 0),
                    "duration_seconds": record.get("duration_seconds", 0.0),
                    "worker": record.get("worker", 0),
                    # Conditional, like the journal record itself: rows
                    # from colour-off runs keep their original key set.
                    **(
                        {"colours": cell["colours"]}
                        if "colours" in cell
                        else {}
                    ),
                }
            )
        return rows

    def append(self, result) -> None:
        """Checkpoint one finished cell (flushed + fsync'd before return)."""
        record = cell_result_to_record(result)
        self._append_line(record)
        self.completed[result.index] = record
        # Completed wins: a straggler/resumed success cures the cell.
        self.poisoned.pop(result.index, None)

    def append_attempt(self, cell_index: int, attempt: int, reason: str) -> None:
        """Record a dispatcher requeue: attempt N of this cell failed."""
        record = {
            "type": "attempt",
            "index": cell_index,
            "attempt": attempt,
            "reason": reason,
        }
        self._append_line(record)
        self.attempts.setdefault(cell_index, []).append(record)

    def append_poison(
        self, cell_index: int, attempts: int, error: Optional[str]
    ) -> None:
        """Record a cell quarantined after exhausting its retry budget."""
        record = {
            "type": "poison",
            "index": cell_index,
            "attempts": attempts,
            "error": error,
        }
        self._append_line(record)
        if cell_index not in self.completed:
            self.poisoned[cell_index] = record

    def poison_rows(self) -> List[dict]:
        """Quarantined cells for reporting, in index order."""
        return [
            {
                "index": index,
                "attempts": self.poisoned[index].get("attempts", 0),
                "error": self.poisoned[index].get("error"),
            }
            for index in sorted(self.poisoned)
        ]

    def _append_line(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
