"""Post-hoc run reports: join a sweep journal with its telemetry stream.

``repro report <run-id>`` answers "what did that run actually do?" after
the fact, from persisted artifacts alone: the
:class:`~repro.store.RunJournal` (which cells finished, how long each
took, which worker pid evaluated it) and — when the run was telemetered —
the flight-recorder stream saved next to it
(``<store>/journals/<run-id>.telemetry.jsonl``), which adds worker
attribution (pid → dispatcher worker id), heartbeat/stall history, and
the final metric snapshot (store hits/misses).

:func:`build_run_report` produces the machine form (the ``--json``
document CI schema-freezes); :func:`render_run_report` the human tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _worker_ids_by_pid(records: Sequence[dict]) -> Dict[int, int]:
    """pid → dispatcher worker id, from worker records and heartbeats."""
    mapping: Dict[int, int] = {}
    for record in records:
        pid = record.get("pid")
        worker = record.get("worker_id")
        if pid is not None and worker:
            mapping.setdefault(int(pid), int(worker))
    return mapping


def _run_metrics(records: Sequence[dict]) -> Optional[dict]:
    """The final metric snapshot trailer, if the stream carries one."""
    for record in reversed(list(records)):
        if record.get("type") == "run_metrics":
            return record.get("metrics")
    return None


def _metric_value(snapshot: Optional[dict], family: str, name: str):
    if not snapshot:
        return None
    entry = snapshot.get(family, {}).get(name)
    return entry.get("value") if isinstance(entry, dict) else None


def build_run_report(
    journal,
    telemetry_records: Optional[Sequence[dict]] = None,
    slowest: int = 5,
) -> dict:
    """Reconstruct a run summary from journal + (optional) telemetry.

    Everything per-cell and per-worker comes from the journal; the
    telemetry stream, when present, contributes wall clock, dispatcher
    worker ids, span/heartbeat/stall accounting, and store traffic.
    Workers are keyed by the pid the journal recorded.
    """
    rows = journal.cell_rows()
    records = list(telemetry_records or [])

    wall_seconds = None
    for record in records:
        if record.get("type") == "sweep_done":
            duration_us = record.get("duration_us")
            if duration_us is not None:
                wall_seconds = float(duration_us) / 1e6
    worker_ids = _worker_ids_by_pid(records)

    per_worker: Dict[str, dict] = {}
    for row in rows:
        pid = row["worker"]
        entry = per_worker.setdefault(
            str(pid),
            {
                "pid": pid,
                "worker_id": worker_ids.get(pid),
                "cells": 0,
                "events_tracked": 0,
                "busy_seconds": 0.0,
            },
        )
        entry["cells"] += 1
        entry["events_tracked"] += row["events_tracked"]
        entry["busy_seconds"] += row["duration_seconds"]
    for entry in per_worker.values():
        entry["busy_seconds"] = round(entry["busy_seconds"], 6)
        entry["utilization"] = (
            round(entry["busy_seconds"] / wall_seconds, 4)
            if wall_seconds
            else None
        )

    slowest_cells = sorted(
        rows, key=lambda row: row["duration_seconds"], reverse=True
    )[: max(slowest, 0)]

    telemetry_block = None
    if records:
        cell_spans = [
            record
            for record in records
            if record.get("type") == "span"
            and record.get("name") == "sweep.cell"
        ]
        stalls = [
            {
                "worker_id": record.get("worker_id"),
                "pid": record.get("pid"),
                "cell_index": record.get("cell_index"),
                "quiet_seconds": record.get("quiet_seconds"),
            }
            for record in records
            if record.get("type") == "worker_stall"
        ]
        snapshot = _run_metrics(records)
        telemetry_block = {
            "events": len(records),
            "cell_spans": len(cell_spans),
            "heartbeats": sum(
                1 for record in records if record.get("type") == "heartbeat"
            ),
            "stalls": stalls,
            "worker_stalls": _metric_value(
                snapshot, "sweep", "sweep.worker.stalls"
            ),
            "store_hits": _metric_value(snapshot, "store", "store.hits"),
            "store_misses": _metric_value(snapshot, "store", "store.misses"),
        }

    # Colour attribution, aggregated across colour-on cells: each such
    # cell carries a full per-source leak table for its (NI, NT) point;
    # the run-level view folds them — per colour, every app it ever
    # reached and the total attributed sink hits over all cells.
    colour_attribution = None
    coloured_cells = [row for row in rows if row.get("colours")]
    if coloured_cells:
        folded: Dict[str, dict] = {}
        for row in coloured_cells:
            for entry in row["colours"].get("colours", []):
                bucket = folded.setdefault(
                    entry["colour"],
                    {"colour": entry["colour"], "apps": [], "sink_hits": 0},
                )
                for app in entry.get("apps", []):
                    if app not in bucket["apps"]:
                        bucket["apps"].append(app)
                bucket["sink_hits"] += entry.get("sink_hits", 0)
        colour_attribution = {
            "cells": len(coloured_cells),
            "colours": list(folded.values()),
        }

    poisoned = journal.poison_rows() if hasattr(journal, "poison_rows") else []
    retried = (
        {
            str(index): len(records_for_cell)
            for index, records_for_cell in sorted(journal.attempts.items())
        }
        if getattr(journal, "attempts", None)
        else {}
    )

    return {
        "run_id": journal.run_id,
        "fingerprint": journal.fingerprint,
        "cells_total": journal.total_cells,
        "cells_completed": len(rows),
        "cells_poisoned": len(poisoned),
        "poisoned": poisoned,
        "retried_cells": retried,
        "wall_seconds": wall_seconds,
        "per_cell": rows,
        "per_worker": per_worker,
        "slowest_cells": slowest_cells,
        "colour_attribution": colour_attribution,
        "telemetry": telemetry_block,
    }


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    """Minimal fixed-width table lines (headers + aligned rows)."""
    widths = [len(header) for header in headers]
    for row in rows:
        for position, value in enumerate(row):
            widths[position] = max(widths[position], len(value))
    def fmt(row):
        return "  ".join(
            value.ljust(widths[position])
            for position, value in enumerate(row)
        ).rstrip()
    return [fmt(headers), fmt(["-" * width for width in widths])] + [
        fmt(row) for row in rows
    ]


def render_run_report(report: dict) -> str:
    """The human-readable form of :func:`build_run_report`'s document."""
    lines = [
        f"run {report['run_id']}: "
        f"{report['cells_completed']}/{report['cells_total']} cells"
        + (
            f" ({report['cells_poisoned']} poisoned)"
            if report.get("cells_poisoned")
            else ""
        )
        + (
            f", {report['wall_seconds']:.2f}s wall"
            if report["wall_seconds"] is not None
            else ""
        )
    ]
    for cell in report.get("poisoned", []):
        lines.append(
            f"poisoned: cell {cell['index']} after {cell['attempts']} "
            f"attempts"
            + (f" ({cell['error']})" if cell.get("error") else "")
        )
    retried = report.get("retried_cells") or {}
    if retried:
        total = sum(retried.values())
        lines.append(
            f"retries: {total} across cells "
            f"{', '.join(sorted(retried, key=int))}"
        )

    lines.append("")
    lines.append("per-worker:")
    worker_rows = []
    for key in sorted(report["per_worker"], key=int):
        entry = report["per_worker"][key]
        worker_rows.append(
            [
                str(entry["worker_id"]) if entry["worker_id"] else "-",
                str(entry["pid"]),
                str(entry["cells"]),
                f"{entry['busy_seconds']:.3f}",
                (
                    f"{entry['utilization'] * 100:.0f}%"
                    if entry["utilization"] is not None
                    else "-"
                ),
                str(entry["events_tracked"]),
            ]
        )
    lines.extend(
        _table(
            ["worker", "pid", "cells", "busy_s", "util", "events"],
            worker_rows,
        )
    )

    lines.append("")
    lines.append("slowest cells:")
    cell_rows = [
        [
            str(row["index"]),
            str(row["ni"]),
            str(row["nt"]),
            f"{row['rate']:g}" if row["rate"] is not None else "-",
            (
                f"{row['accuracy'] * 100:.1f}%"
                if row.get("accuracy") is not None
                else "-"
            ),
            f"{row['duration_seconds']:.3f}",
            str(row["worker"]),
        ]
        for row in report["slowest_cells"]
    ]
    lines.extend(
        _table(
            ["cell", "ni", "nt", "rate", "accuracy", "seconds", "pid"],
            cell_rows,
        )
    )

    attribution = report.get("colour_attribution")
    if attribution:
        lines.append("")
        lines.append(
            f"leak attribution ({attribution['cells']} coloured cells):"
        )
        lines.extend(
            _table(
                ["colour", "apps", "sink hits"],
                [
                    [
                        entry["colour"],
                        str(len(entry["apps"])),
                        str(entry["sink_hits"]),
                    ]
                    for entry in attribution["colours"]
                ],
            )
        )

    telemetry = report.get("telemetry")
    if telemetry is not None:
        lines.append("")
        lines.append(
            f"telemetry: {telemetry['events']} events, "
            f"{telemetry['cell_spans']} cell spans, "
            f"{telemetry['heartbeats']} heartbeats"
            + (
                f", {telemetry['worker_stalls']:g} worker stalls"
                if telemetry.get("worker_stalls")
                else ""
            )
        )
        if telemetry["store_hits"] is not None:
            lines.append(
                f"store: {telemetry['store_hits']} hits, "
                f"{telemetry['store_misses']} misses"
            )
        for stall in telemetry["stalls"]:
            lines.append(
                f"stall: worker {stall['worker_id']} "
                f"(pid {stall['pid']}) on cell {stall['cell_index']} "
                f"quiet {stall['quiet_seconds']}s"
            )
    return "\n".join(lines)
