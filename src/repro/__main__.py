"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``suite``    — run the 57-app DroidBench-style suite at a given (NI, NT)
  (``--colours`` adds per-source leak attribution)
* ``provenance`` — the per-source leak-attribution table on its own
* ``sweep``    — parallel experiment grid (Figure 11 by default; ``--jobs N``)
* ``malware``  — the seven-sample malware scan
* ``table1``   — regenerate the bytecode-distance table
* ``trace``    — record the LGRoot trace to a file (for offline analysis)
* ``analyze``  — replay a recorded trace file under a given (NI, NT)
* ``faults``   — graceful-degradation sweep under deterministic faults
* ``store``    — artifact-store maintenance (``stats`` / ``prune`` /
  ``verify``); ``sweep`` and ``faults`` take ``--store DIR`` to record
  each suite once *ever* and ``--resume RUN_ID`` to continue a killed
  grid from its journal
* ``report``   — post-hoc run summary (per-cell / per-worker timings,
  store traffic, stalls) reconstructed from a run's journal and its
  persisted telemetry stream
* ``serve``    — long-lived streaming daemon: concurrent device
  connections feed per-``(device, pid)`` tracker shards over TCP/unix
  sockets, with watermark backpressure, a Prometheus ``/metrics``
  endpoint, and live shard migration (``drain``/``restore``)
* ``fleet``    — N-device fleet simulation against a daemon; verdicts
  (and ``--colours`` attributions) are diffed byte-exact vs batch
  replay, exit 1 on mismatch

``sweep`` and ``faults`` also take ``--trace-out run.trace.json`` to
export the run as Chrome trace-event JSON (open in Perfetto) and, at
``--jobs`` above 1, ``--stall-timeout SECONDS`` to warn when a worker
goes quiet mid-cell.
"""

from __future__ import annotations

import argparse
import json
import sys


def _add_window_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ni", type=int, default=13,
                        help="tainting-window size NI (default 13)")
    parser.add_argument("--nt", type=int, default=3,
                        help="max propagations per window NT (default 3)")
    parser.add_argument("--no-untainting", action="store_true",
                        help="disable untainting of out-of-window stores")
    parser.add_argument("--no-vectorized", action="store_true",
                        help="disable the numpy columnar fast path (force "
                             "the scalar tracker loop; results identical)")


def _add_telemetry_arguments(
    parser: argparse.ArgumentParser, with_json: bool = False
) -> None:
    parser.add_argument(
        "--telemetry", metavar="PATH.jsonl", default=None,
        help="write the structured telemetry event stream (JSONL) here",
    )
    parser.add_argument(
        "--metrics-dump", nargs="?", const="json", choices=["json", "prom"],
        default=None,
        help="print the metrics snapshot after the run "
             "(json, the default, or Prometheus text format)",
    )
    if with_json:
        parser.add_argument(
            "--json", action="store_true",
            help="emit the command's result as machine-readable JSON",
        )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH.json", default=None,
        help="export the run as Chrome trace-event JSON "
             "(loadable in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="worker dispatcher (--jobs > 1): warn on stderr (and, with "
             "telemetry on, emit a worker_stall event) when a worker "
             "goes quiet this long mid-cell",
    )


def _add_dispatcher_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lease-timeout", type=float, default=None, metavar="SECONDS",
        help="worker dispatcher (--jobs > 1): seconds a cell may go "
             "un-heartbeated before its worker is declared dead and the "
             "cell requeues (default 30)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="worker dispatcher: failed attempts beyond the first before "
             "a cell is quarantined as poison (default 3)",
    )
    parser.add_argument(
        "--max-worker-restarts", type=int, default=None, metavar="N",
        help="worker dispatcher: replacement workers spawned across the "
             "run (default 4x --jobs)",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="worker dispatcher fault injection for testing, e.g. "
             "'kill-workers:0.2' (SIGKILL mid-cell), 'hang-workers:0.1' "
             "(freeze until the lease expires), 'fail-cells:0.5' "
             "(deterministic in-cell errors); comma-separate to combine",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed for the deterministic chaos schedule (default 0)",
    )


def _dispatcher_options(args):
    """run_sweep's ``backend_options``: the dispatcher flags given.

    The dispatcher only runs at ``--jobs`` above 1, so a dispatcher flag
    at ``--jobs 1`` is an error rather than a silent no-op.
    """
    from repro.sweep import ChaosError, ChaosPlan

    options = {
        name: getattr(args, name)
        for name in ("lease_timeout", "max_retries", "max_worker_restarts")
        if getattr(args, name) is not None
    }
    if args.chaos:
        try:
            options["chaos"] = ChaosPlan.parse(
                args.chaos, seed=args.chaos_seed
            )
        except ChaosError as error:
            raise SystemExit(f"--chaos: {error}")
    _check_dispatcher_flags(args, list(options))
    return options or None


def _check_dispatcher_flags(args, names) -> None:
    """Exit when dispatcher flags (``names``, plus ``--stall-timeout``)
    are given at ``--jobs 1``, where no dispatcher runs, or when
    ``--stall-timeout`` is not positive."""
    if args.stall_timeout is not None:
        if args.stall_timeout <= 0:
            raise SystemExit("--stall-timeout must be positive")
        names = names + ["stall_timeout"]
    if names and args.jobs == 1:
        flags = ", ".join("--" + name.replace("_", "-") for name in names)
        raise SystemExit(f"{flags} configure the worker dispatcher, "
                         "which runs only at --jobs above 1")


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="persistent artifact store: suites are recorded once ever "
             "(content-addressed, checksummed) and the run is journaled "
             "for --resume",
    )
    parser.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="resume a journaled run: cells already checkpointed are not "
             "re-evaluated; the final grid is bit-identical to an "
             "uninterrupted run (requires --store)",
    )
    parser.add_argument(
        "--run-id", metavar="ID", default=None,
        help="name this run's journal explicitly (default: derived from "
             "the grid fingerprint); requires --store",
    )


def _open_store(args, telemetry=None):
    """The ArtifactStore named by --store, or None."""
    if not getattr(args, "store", None):
        if getattr(args, "resume", None) or getattr(args, "run_id", None):
            raise SystemExit("--resume/--run-id require --store DIR")
        return None
    from repro.store import ArtifactStore

    return ArtifactStore(args.store, telemetry=telemetry)


def _open_journal(store, args, cells):
    """Create (or, with --resume, reload) this invocation's run journal."""
    from repro.store import RunJournal, cells_fingerprint, new_run_id

    if args.resume:
        journal = RunJournal.load(store.journal_path(args.resume))
        return journal
    run_id = args.run_id or new_run_id(
        cells_fingerprint(cells), store.journal_ids()
    )
    return RunJournal.create(store.journal_path(run_id), cells, run_id)


def _store_summary(store, journal, cache, result) -> dict:
    """The --json ``store`` block / stderr summary for journaled runs."""
    return {
        "root": str(store.root),
        "run_id": journal.run_id,
        "resumed_cells": result.resumed,
        "recordings": cache.recordings,
        "store_hits": cache.store_hits,
    }


def _config(args):
    from repro.core import PIFTConfig

    return PIFTConfig(
        args.ni,
        args.nt,
        untainting=not args.no_untainting,
        vectorized=not getattr(args, "no_vectorized", False),
    )


def _config_dict(config) -> dict:
    return {
        "ni": config.window_size,
        "nt": config.max_propagations,
        "untainting": config.untainting,
        "vectorized": config.vectorized,
    }


def _make_telemetry(args):
    """Build the hub the run's flags ask for, or None for the no-op path."""
    wants_hub = (
        getattr(args, "telemetry", None)
        or args.metrics_dump is not None
        or getattr(args, "trace_out", None)
    )
    if not wants_hub:
        return None
    from repro.telemetry import Telemetry, TelemetryWriter

    writer = TelemetryWriter(args.telemetry) if args.telemetry else None
    return Telemetry(writer=writer).preregister_standard()


def _attach_recorder(args, telemetry):
    """Tee an in-memory flight recorder into the hub's event stream.

    The recorder feeds ``--trace-out`` and the run stream persisted next
    to the journal (what ``repro report`` reads).  Returns ``None`` for
    untelemetered runs.
    """
    if telemetry is None:
        return None
    from repro.telemetry import TeeWriter
    from repro.telemetry.tracefmt import FlightRecorder

    recorder = FlightRecorder()
    if telemetry.writer is not None:
        telemetry.writer = TeeWriter(telemetry.writer, recorder)
    else:
        telemetry.writer = recorder
    return recorder


def _stall_printer(args):
    """The ``on_stall`` callback ``--stall-timeout`` asks for, or None."""
    if getattr(args, "stall_timeout", None) is None:
        return None

    def on_stall(worker_id, cell_index, quiet_seconds):
        print(
            f"warning: worker {worker_id} quiet for {quiet_seconds:.1f}s "
            f"on cell {cell_index} (stall timeout "
            f"{args.stall_timeout:g}s)",
            file=sys.stderr,
        )

    return on_stall


def _finish_observability(
    args, telemetry, recorder, store=None, journal=None, payload=None
) -> None:
    """Persist the run's flight-recorder stream and Chrome trace.

    Journaled runs get the stream written to
    ``<store>/journals/<run-id>.telemetry.jsonl`` (with a final
    ``run_metrics`` trailer carrying the metric snapshot) so
    ``repro report`` can reconstruct the run later; ``--trace-out``
    additionally exports the Perfetto-loadable trace document.
    """
    if recorder is None:
        return
    run_id = journal.run_id if journal is not None else None
    if store is not None and journal is not None:
        stream_path = store.telemetry_path(journal.run_id)
        count = recorder.dump_jsonl(
            stream_path,
            extra=[{"type": "run_metrics", "metrics": telemetry.snapshot()}],
        )
        print(
            f"telemetry stream: {count} records -> {stream_path}",
            file=sys.stderr,
        )
    if getattr(args, "trace_out", None):
        from repro.telemetry.tracefmt import write_chrome_trace

        document = write_chrome_trace(
            recorder.records, args.trace_out, run_id=run_id
        )
        print(
            f"trace: {len(document['traceEvents'])} events -> "
            f"{args.trace_out}",
            file=sys.stderr,
        )
        if payload is not None:
            payload["trace_out"] = args.trace_out


def _finish_telemetry(args, telemetry, payload=None) -> None:
    """Close the event stream; dump metrics inline (JSON) or as text.

    With ``--json`` the snapshot rides inside the single JSON document as
    a ``metrics`` key so stdout stays one parseable object; otherwise it
    is printed after the human-readable report.
    """
    if telemetry is None:
        return
    telemetry.close()
    if args.telemetry:
        print(
            f"telemetry: {telemetry.writer.event_count} events -> "
            f"{args.telemetry}",
            file=sys.stderr,
        )
    if args.metrics_dump == "json":
        if payload is not None:
            payload["metrics"] = telemetry.snapshot()
        else:
            print(json.dumps(telemetry.snapshot(), indent=2, sort_keys=True))
    elif args.metrics_dump == "prom":
        stream = sys.stderr if payload is not None else sys.stdout
        print(telemetry.prometheus(), end="", file=stream)


def cmd_suite(args) -> int:
    from repro.analysis.accuracy import evaluate_suite
    from repro.apps.droidbench import record_suite

    config = _config(args)
    telemetry = _make_telemetry(args)
    apps = record_suite(telemetry=telemetry)
    report = evaluate_suite(apps, config, telemetry=telemetry)
    attribution = None
    if args.colours:
        # Second pass, attribution only: the confusion matrix above is
        # computed by the plain tracker either way, so --colours can
        # never move a verdict (the parity suite pins this).
        from repro.analysis.provenance import attribute_suite

        attribution = attribute_suite(apps, config)
    if args.json:
        payload = {
            "command": "suite",
            "config": _config_dict(config),
            "report": report.as_dict(),
        }
        if attribution is not None:
            payload["colours"] = attribution.as_dict()
        _finish_telemetry(args, telemetry, payload)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{config}")
    print(
        f"accuracy {report.accuracy * 100:.1f}%  "
        f"TP={report.true_positives} FP={report.false_positives} "
        f"TN={report.true_negatives} FN={report.false_negatives}"
    )
    for name in report.missed_apps:
        print(f"  missed: {name}")
    for name in report.false_alarm_apps:
        print(f"  false alarm: {name}")
    if attribution is not None:
        print("leak attribution by source colour:")
        print(attribution.render())
    _finish_telemetry(args, telemetry)
    return 0


def cmd_provenance(args) -> int:
    from repro.analysis.provenance import attribute_suite
    from repro.apps.droidbench import record_suite

    config = _config(args)
    suite = attribute_suite(record_suite(), config)
    if args.json:
        payload = {
            "command": "provenance",
            "config": _config_dict(config),
            **suite.as_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{config}")
    print(suite.render())
    return 0


def _parse_axis(spec: str) -> list:
    """``'1:21'`` (half-open range) or ``'5,13'`` (explicit values)."""
    if ":" in spec:
        low, high = spec.split(":", 1)
        return list(range(int(low), int(high)))
    return [int(value) for value in spec.split(",") if value.strip()]


def cmd_sweep(args) -> int:
    import numpy as np

    from repro.analysis.accuracy import AccuracyGrid
    from repro.apps.droidbench import record_suite
    from repro.sweep import GridSpec, TraceCache, run_sweep

    backend_options = _dispatcher_options(args)
    windows = _parse_axis(args.windows)
    caps = _parse_axis(args.caps)
    rates = [float(rate) for rate in args.rates.split(",") if rate.strip()]
    spec = GridSpec(
        window_sizes=tuple(windows),
        propagation_caps=tuple(caps),
        rates=tuple(rates),
        site=args.site,
        untainting=not args.no_untainting,
        seed=args.fault_seed,
        seed_policy=args.seed_policy,
        vectorized=not args.no_vectorized,
        colours=args.colours,
    )
    telemetry = _make_telemetry(args)
    recorder = _attach_recorder(args, telemetry)
    store = _open_store(args, telemetry)

    progress = None
    if args.progress:
        def progress(result, done, total):
            print(
                f"  [{done}/{total}] NI={result.config.window_size} "
                f"NT={result.config.max_propagations} rate={result.rate:g} "
                f"worker={result.worker}",
                file=sys.stderr,
            )

    journal = None
    if store is not None:
        # Store-backed runs let the cache consult (and fill) the store
        # instead of recording inline, and journal every finished cell.
        cache = TraceCache(backing_store=store)
        work = list(spec.cells())
        journal = _open_journal(store, args, work)
    else:
        cache = TraceCache(droidbench=record_suite(telemetry=telemetry))
        work = spec
    result = run_sweep(
        work,
        cache=cache,
        jobs=args.jobs,
        telemetry=telemetry,
        progress=progress,
        journal=journal,
        stall_timeout=args.stall_timeout,
        on_stall=_stall_printer(args),
        backend_options=backend_options,
    )
    if result.poisoned:
        for cell in result.poisoned:
            print(
                f"warning: cell {cell['index']} poisoned after "
                f"{cell['attempts']} attempts"
                + (f" ({cell['error']})" if cell.get("error") else ""),
                file=sys.stderr,
            )
    if journal is not None:
        summary = _store_summary(store, journal, cache, result)
        print(
            f"store: run {summary['run_id']} "
            f"({summary['resumed_cells']} resumed, "
            f"{summary['recordings']} recordings, "
            f"{summary['store_hits']} store hits) -> {summary['root']}",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "command": "sweep",
            "site": args.site,
            "seed": args.fault_seed,
            **result.as_dict(),
            "timings": result.timings(),
        }
        if journal is not None:
            payload["store"] = _store_summary(store, journal, cache, result)
        _finish_observability(
            args, telemetry, recorder,
            store=store, journal=journal, payload=payload,
        )
        _finish_telemetry(args, telemetry, payload)
        print(json.dumps(payload, indent=2))
        return 0
    if rates == [0.0]:
        # The classic Figure 11 heatmap (fault-free grid).
        grid_values = np.zeros((len(caps), len(windows)))
        for cell in result.cells:
            grid_values.flat[cell.index] = cell.accuracy
        grid = AccuracyGrid(
            window_sizes=windows, propagation_caps=caps,
            accuracy=grid_values,
        )
        print("accuracy (%) over NI (columns) x NT (rows):")
        print(grid.render())
        window, cap, best = grid.best()
        print(f"best cell: NI={window}, NT={cap} -> {best * 100:.1f}%")
    else:
        for cell in result.cells:
            print(
                f"  NI={cell.config.window_size:<3d} "
                f"NT={cell.config.max_propagations:<3d} "
                f"rate={cell.rate:<8g} "
                f"accuracy={cell.accuracy * 100:5.1f}%  "
                f"injections={cell.fault_stats.total_injections}"
            )
    timings = result.timings()
    print(
        f"{timings['cells']} cells, jobs={timings['jobs']}, "
        f"{timings['wall_seconds']:.2f}s wall, "
        f"{timings['events_tracked']} events re-tracked",
        file=sys.stderr,
    )
    _finish_observability(args, telemetry, recorder, store=store,
                          journal=journal)
    _finish_telemetry(args, telemetry)
    return 0


def cmd_malware(args) -> int:
    from repro.apps.malware import SAMPLES, run_sample

    config = _config(args)
    telemetry = _make_telemetry(args)
    detected = 0
    verdicts = []
    for sample in SAMPLES:
        device = run_sample(sample, config, work=24, telemetry=telemetry)
        detected += device.leak_detected
        verdicts.append(
            {
                "name": sample.name,
                "kind": sample.kind,
                "detected": bool(device.leak_detected),
            }
        )
    if args.json:
        payload = {
            "command": "malware",
            "config": _config_dict(config),
            "samples": verdicts,
            "detected": detected,
            "total": len(SAMPLES),
        }
        _finish_telemetry(args, telemetry, payload)
        print(json.dumps(payload, indent=2))
    else:
        for verdict in verdicts:
            flag = "DETECTED" if verdict["detected"] else "missed"
            print(f"{verdict['name']:<13} {verdict['kind']:<12} {flag}")
        print(f"\n{detected}/{len(SAMPLES)} detected at {config}")
        _finish_telemetry(args, telemetry)
    return 0 if detected == len(SAMPLES) else 1


def cmd_table1(args) -> int:
    from repro.analysis.bytecode_stats import (
        load_store_distance_table,
        render_table1,
    )

    print(render_table1(load_store_distance_table()))
    return 0


def cmd_trace(args) -> int:
    from repro.analysis.tracefile import save_recorded_run
    from repro.apps.malware import record_lgroot_trace

    recorded = record_lgroot_trace(work=args.work)
    path = save_recorded_run(recorded, args.output)
    print(
        f"wrote {path}: {recorded.instruction_count} instructions, "
        f"{recorded.trace.load_count} loads, "
        f"{recorded.trace.store_count} stores, "
        f"{len(recorded.sources)} sources, "
        f"{len(recorded.sink_checks)} sink checks"
    )
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis.replay import replay
    from repro.analysis.tracefile import load_recorded_run

    config = _config(args)
    telemetry = _make_telemetry(args)
    recorded = load_recorded_run(args.trace)
    result = replay(recorded, config, telemetry=telemetry)
    stats = result.stats
    print(f"{config} over {args.trace}")
    print(
        f"  {stats.loads_observed} loads, {stats.stores_observed} stores; "
        f"{stats.taint_operations} taints, "
        f"{stats.untaint_operations} untaints"
    )
    print(
        f"  peak taint state: {stats.max_tainted_bytes} bytes in "
        f"{stats.max_range_count} ranges"
    )
    for outcome in result.sink_outcomes:
        flag = "TAINTED" if outcome.tainted else "clean"
        print(f"  sink {outcome.sink_name} @{outcome.instruction_index}: {flag}")
    print(f"  verdict: {'LEAK DETECTED' if result.alarm else 'no leak'}")
    _finish_telemetry(args, telemetry)
    return 0


def _lgroot_recorded(store, work: int):
    """The LGRoot latency trace, store-backed when a store is configured."""
    from repro.apps.malware import record_lgroot_trace

    if store is None:
        return record_lgroot_trace(work=work)
    from repro.store import lgroot_key
    from repro.analysis.accuracy import AppRun

    key = lgroot_key(work)
    runs = store.get_runs(key)
    if runs is None:
        recorded = record_lgroot_trace(work=work)
        store.put_runs(
            key,
            [AppRun(name="LGRoot", recorded=recorded, leaks=True,
                    category="malware")],
        )
        return recorded
    return runs[0].recorded


def cmd_faults(args) -> int:
    from repro.core import OverflowPolicy, parse_fault_spec
    from repro.analysis.degradation import (
        degradation_cells,
        degradation_curve,
        detection_latency_table,
        record_malware_runs,
    )

    config = _config(args)
    base_rates = parse_fault_spec(args.faults)
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    policy = OverflowPolicy(args.policy)
    _check_dispatcher_flags(args, [])
    # The latency table's buffer is built only after the whole sweep.
    _check_buffer_flags(args)

    telemetry = _make_telemetry(args)
    recorder = _attach_recorder(args, telemetry)
    store = _open_store(args, telemetry)
    cache = None
    if store is not None:
        from repro.sweep import TraceCache

        cache = TraceCache(backing_store=store, malware_work=args.work)

    apps = []
    malware_runs = []
    if args.suite in ("droidbench", "both"):
        if cache is not None:
            apps = cache.droidbench_runs()
        else:
            from repro.apps.droidbench import record_suite

            apps = record_suite()
    if args.suite in ("malware", "both"):
        malware_runs = (
            cache.malware_runs() if cache is not None
            else record_malware_runs(work=args.work)
        )

    journal = None
    resumed_cells = 0
    if store is not None:
        cells = degradation_cells(
            apps, config, rates=rates, seed=args.fault_seed, site=args.site,
            base_rates=base_rates, malware_runs=malware_runs,
        )
        journal = _open_journal(store, args, cells)
        resumed_cells = len(journal.completed)

    curve = degradation_curve(
        apps,
        config,
        rates=rates,
        seed=args.fault_seed,
        site=args.site,
        base_rates=base_rates,
        malware_runs=malware_runs,
        jobs=args.jobs,
        cache=cache,
        journal=journal,
        telemetry=telemetry,
        stall_timeout=args.stall_timeout,
        on_stall=_stall_printer(args),
    )
    latency = detection_latency_table(
        _lgroot_recorded(store, args.work),
        config,
        rates=rates,
        seed=args.fault_seed,
        site=args.site,
        base_rates=base_rates,
        policy=policy,
        capacity=args.capacity,
        drain_batch=args.drain_batch,
    )
    if journal is not None:
        print(
            f"store: run {journal.run_id} ({resumed_cells} resumed, "
            f"{cache.recordings} recordings, {cache.store_hits} store hits)"
            f" -> {store.root}",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "command": "faults",
            "config": _config_dict(config),
            "site": args.site,
            "seed": args.fault_seed,
            "base_rates": args.faults,
            "policy": policy.value,
            "curve": curve.as_dict(),
            "accuracy_non_increasing": curve.accuracy_non_increasing(),
            "latency": [row.as_dict() for row in latency],
        }
        if journal is not None:
            payload["store"] = {
                "root": str(store.root),
                "run_id": journal.run_id,
                "resumed_cells": resumed_cells,
                "recordings": cache.recordings,
                "store_hits": cache.store_hits,
            }
        _finish_observability(
            args, telemetry, recorder,
            store=store, journal=journal, payload=payload,
        )
        _finish_telemetry(args, telemetry, payload)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{config}, site={args.site}, seed={args.fault_seed}, "
          f"policy={policy.value}")
    for point in curve.points:
        parts = [f"rate={point.rate:<8g}"]
        if point.report is not None:
            parts.append(f"accuracy={point.report.accuracy * 100:5.1f}%")
        if point.malware_total is not None:
            parts.append(
                f"malware={point.malware_detected}/{point.malware_total}"
            )
        parts.append(f"injections={point.fault_stats.total_injections}")
        print("  " + "  ".join(parts))
    print("detection latency under loss (LGRoot, immediate checks):")
    for row in latency:
        print(
            f"  rate={row.rate:<8g} late={row.late_detections} "
            f"mean_behind={row.mean_events_behind:.1f} "
            f"max_behind={row.max_events_behind} missed={row.missed} "
            f"forced_drops={row.forced_drops} degraded={row.degraded_checks}"
        )
    _finish_observability(args, telemetry, recorder, store=store,
                          journal=journal)
    _finish_telemetry(args, telemetry)
    return 0


def _check_buffer_flags(args, high_watermark=None, low_watermark=None) -> None:
    """Exit with the rule's message on FIFO flags every buffer would
    reject (:func:`~repro.core.config.checked_buffer_params`)."""
    from repro.core.config import checked_buffer_params

    try:
        checked_buffer_params(args.capacity, args.drain_batch,
                              high_watermark, low_watermark)
    except ValueError as error:
        raise SystemExit(str(error))


def _serve_router_kwargs(args) -> dict:
    """ShardRouter construction kwargs shared by serve and fleet; exits
    on FIFO parameters every shard would reject."""
    from repro.core import OverflowPolicy

    _check_buffer_flags(args, args.high_watermark, args.low_watermark)
    return {
        "workers": args.workers,
        "capacity": args.capacity,
        "drain_batch": args.drain_batch,
        "policy": OverflowPolicy(args.policy),
        "high_watermark": args.high_watermark,
        "low_watermark": args.low_watermark,
        "coloured": args.colours,
    }


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import PIFTServer, ShardRouter

    config = _config(args)
    router_kwargs = _serve_router_kwargs(args)
    telemetry = _make_telemetry(args)
    if args.port is None and args.unix is None:
        args.port = 7787  # default ingestion endpoint

    async def run() -> None:
        router = ShardRouter(config, telemetry=telemetry, **router_kwargs)
        server = PIFTServer(router, telemetry=telemetry)
        await server.start(
            tcp=(args.host, args.port) if args.port is not None else None,
            unix_path=args.unix,
            metrics=(
                (args.host, args.metrics_port)
                if args.metrics_port is not None else None
            ),
        )
        where = []
        if server.tcp_port is not None:
            where.append(f"tcp {args.host}:{server.tcp_port}")
        if args.unix:
            where.append(f"unix {args.unix}")
        if server.metrics_port is not None:
            where.append(
                f"metrics http://{args.host}:{server.metrics_port}/metrics"
            )
        # One write call: with unbuffered stderr, print() writes the
        # newline separately, and a supervisor polling a log that shares
        # this file offset can seek back between the two writes, so the
        # newline overwrites the line's first byte.
        sys.stderr.write(
            f"pift-serve ready ({', '.join(where)}; "
            f"workers={args.workers}, colours={args.colours}, "
            f"policy={args.policy}, capacity={args.capacity})\n"
        )
        sys.stderr.flush()
        await server.run_until_shutdown()

    asyncio.run(run())
    _finish_telemetry(args, telemetry)
    return 0


def cmd_fleet(args) -> int:
    from itertools import islice

    from repro.serve.fleet import run_fleet_sync

    config = _config(args)
    router_kwargs = _serve_router_kwargs(args)
    telemetry = _make_telemetry(args)
    if args.suite_file:
        from repro.store.suitefile import iter_suite_runs

        runs = iter_suite_runs(args.suite_file)
    else:
        from repro.apps.droidbench import record_suite

        runs = iter(record_suite(telemetry=telemetry))
    if args.limit is not None:
        runs = islice(runs, args.limit)

    report = run_fleet_sync(
        runs,
        devices=args.devices,
        migrate=args.migrate,
        config=config,
        chunk=args.chunk,
        host=args.connect_host,
        port=args.connect_port,
        unix_path=args.connect_unix,
        telemetry=telemetry,
        **router_kwargs,
    )
    if args.json:
        payload = {
            "command": "fleet",
            "config": _config_dict(config),
            **report,
        }
        _finish_telemetry(args, telemetry, payload)
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"fleet: {report['devices']} devices, {report['runs']} runs, "
            f"{report['checks']} checks, "
            f"{report['events_streamed']} events "
            f"({report['events_per_s']}/s)"
        )
        if report["migration"]:
            m = report["migration"]
            print(
                f"migration: shard {m['device']}/{m['pid']} drained over "
                f"the wire ({m['snapshot_bytes']} snapshot bytes), "
                f"restored to worker {m['restored_to_worker']}; worker "
                f"{m['killed_worker']} killed "
                f"({m['shards_migrated_by_kill']} shards re-homed)"
            )
        print(
            "parity: "
            + ("OK — streamed verdicts byte-identical to batch replay"
               if report["parity"]
               else f"FAILED ({len(report['mismatches'])} mismatches)")
        )
        for row in report["mismatches"]:
            print(
                f"  {row['run']}[{row['index']}]: streamed="
                f"{row['streamed']} batch={row['batch']}"
            )
        _finish_telemetry(args, telemetry)
    return 0 if report["parity"] else 1


def cmd_report(args) -> int:
    from repro.analysis.report import build_run_report, render_run_report
    from repro.store import ArtifactStore, JournalError, RunJournal

    store = ArtifactStore(args.store, read_only=True)
    try:
        journal = RunJournal.load(store.journal_path(args.run_id))
    except JournalError as error:
        known = ", ".join(store.journal_ids()) or "none"
        raise SystemExit(f"{error} (runs in this store: {known})")
    records = []
    stream_path = store.telemetry_path(args.run_id)
    if stream_path.exists():
        from repro.telemetry import read_events

        records = read_events(stream_path)
    report = build_run_report(journal, records, slowest=args.slowest)
    if args.json:
        print(json.dumps({"command": "report", **report}, indent=2))
    else:
        print(render_run_report(report))
        if not records:
            print(
                "(no telemetry stream for this run; re-run the sweep with "
                "--telemetry/--trace-out/--metrics-dump for worker "
                "attribution and store traffic)",
                file=sys.stderr,
            )
    return 0


def cmd_store(args) -> int:
    from repro.store import ArtifactStore

    store = ArtifactStore(args.store)
    if args.store_action == "stats":
        payload = {"command": "store-stats", **store.stats()}
        if args.json:
            print(json.dumps(payload, indent=2))
            return 0
        print(f"store {payload['root']} (v{payload['store_version']})")
        print(
            f"  {payload['entries']} entries, "
            f"{payload['payload_bytes']} payload bytes, "
            f"{payload['quarantined']} quarantined, "
            f"{len(payload['journals'])} journals"
        )
        for kind, row in sorted(payload["kinds"].items()):
            print(
                f"  {kind:<12} {row['entries']} entries, "
                f"{row['payload_bytes']} bytes"
            )
        for run_id in payload["journals"]:
            print(f"  journal: {run_id}")
        return 0
    if args.store_action == "verify":
        result = store.verify()
        payload = {"command": "store-verify", **result}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"checked {result['checked']} entries, "
                f"{result['corrupt']} corrupt, "
                f"{result['quarantined']} quarantined"
            )
        return 1 if result["corrupt"] or result["quarantined"] else 0
    if args.store_action == "prune":
        result = store.prune(max_bytes=args.max_bytes)
        payload = {"command": "store-prune", **result}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"removed {result['removed_entries']} entries and "
                f"{result['quarantine_files_removed']} quarantined files "
                f"({result['removed_bytes']} bytes)"
            )
        return 0
    raise SystemExit(f"unknown store action {args.store_action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PIFT (ASPLOS 2016) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    suite = commands.add_parser("suite", help="evaluate the DroidBench suite")
    _add_window_arguments(suite)
    suite.add_argument(
        "--colours", action="store_true",
        help="additionally attribute each tainted sink to its source "
             "colours (per-source provenance; verdicts are unchanged)",
    )
    _add_telemetry_arguments(suite, with_json=True)
    suite.set_defaults(func=cmd_suite)

    provenance = commands.add_parser(
        "provenance",
        help="per-source leak attribution over the DroidBench suite",
        description="Replay the suite with the coloured tracker and print "
                    "the leak table: for every source colour, the apps "
                    "that leaked it and the sink channels it left "
                    "through.  Verdicts are the plain tracker's, bit for "
                    "bit — this adds attribution, not a second opinion.",
    )
    _add_window_arguments(provenance)
    provenance.add_argument("--json", action="store_true",
                            help="emit the attribution as JSON")
    provenance.set_defaults(func=cmd_provenance)

    sweep_cmd = commands.add_parser(
        "sweep",
        help="parallel experiment grid (Figure 11 by default)",
        description="Expand an (NI, NT) x fault-rate grid to cells and "
                    "evaluate them on the repro.sweep engine; --jobs N "
                    "fans cells across worker processes with bit-identical "
                    "results to a serial run.",
    )
    sweep_cmd.add_argument(
        "--windows", default="1:21", metavar="AXIS",
        help="NI axis: 'lo:hi' half-open range or comma list "
             "(default 1:21)",
    )
    sweep_cmd.add_argument(
        "--caps", default="1:11", metavar="AXIS",
        help="NT axis: 'lo:hi' half-open range or comma list "
             "(default 1:11)",
    )
    sweep_cmd.add_argument(
        "--rates", default="0",
        help="comma-separated fault rates per (NI, NT) cell (default 0: "
             "the fault-free Figure 11 grid)",
    )
    sweep_cmd.add_argument(
        "--site", default="event_loss",
        choices=["event_loss", "event_duplication", "event_reorder",
                 "address_corruption", "state_drop", "eviction_storm",
                 "storage_stall"],
        help="fault site the --rates axis varies (default event_loss)",
    )
    sweep_cmd.add_argument("--no-untainting", action="store_true",
                           help="disable untainting of out-of-window stores")
    sweep_cmd.add_argument("--no-vectorized", action="store_true",
                           help="disable the numpy columnar fast path in "
                                "every cell (results identical, slower)")
    sweep_cmd.add_argument("--fault-seed", type=int, default=1,
                           help="deterministic fault seed (default 1)")
    sweep_cmd.add_argument(
        "--seed-policy", default="shared", choices=["shared", "per_cell"],
        help="'shared' couples fault draws across cells (common random "
             "numbers, smooth curves); 'per_cell' derives independent "
             "seeds (default shared)",
    )
    sweep_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: run inline; results are "
             "identical at any N)",
    )
    sweep_cmd.add_argument("--progress", action="store_true",
                           help="print per-cell progress to stderr")
    sweep_cmd.add_argument(
        "--colours", action="store_true",
        help="attach a per-source leak-attribution payload to every cell "
             "(accuracy values unchanged; changes the journal "
             "fingerprint, so resume colour runs with colour journals)",
    )
    _add_dispatcher_arguments(sweep_cmd)
    _add_store_arguments(sweep_cmd)
    _add_telemetry_arguments(sweep_cmd, with_json=True)
    _add_observability_arguments(sweep_cmd)
    sweep_cmd.set_defaults(func=cmd_sweep)

    malware = commands.add_parser("malware", help="seven-sample malware scan")
    _add_window_arguments(malware)
    _add_telemetry_arguments(malware, with_json=True)
    malware.set_defaults(func=cmd_malware)

    table1 = commands.add_parser("table1", help="bytecode distance table")
    table1.set_defaults(func=cmd_table1)

    trace = commands.add_parser("trace", help="record the LGRoot trace")
    trace.add_argument("output", help="output file (gzip JSON)")
    trace.add_argument("--work", type=int, default=160,
                       help="background workload size (default 160)")
    trace.set_defaults(func=cmd_trace)

    analyze = commands.add_parser("analyze", help="replay a recorded trace")
    analyze.add_argument("trace", help="trace file written by 'trace'")
    _add_window_arguments(analyze)
    _add_telemetry_arguments(analyze)
    analyze.set_defaults(func=cmd_analyze)

    faults = commands.add_parser(
        "faults", help="graceful-degradation sweep under injected faults"
    )
    _add_window_arguments(faults)
    faults.add_argument(
        "--faults", default="", metavar="SPEC",
        help="base fault rates for every point, e.g. "
             "'dup=1e-4,corrupt=1e-5' (keys: loss, dup, reorder, window, "
             "corrupt, bits, drop, storm, storm_size, stall, stall_cycles)",
    )
    faults.add_argument("--fault-seed", type=int, default=1,
                        help="deterministic fault seed (default 1)")
    faults.add_argument(
        "--site", default="event_loss",
        choices=["event_loss", "event_duplication", "event_reorder",
                 "address_corruption", "state_drop", "eviction_storm",
                 "storage_stall"],
        help="which fault site's rate the sweep varies (default event_loss)",
    )
    faults.add_argument(
        "--rates", default="0,1e-4,1e-3,1e-2,1e-1",
        help="comma-separated rates to sweep (default 0,1e-4,1e-3,1e-2,1e-1)",
    )
    faults.add_argument(
        "--suite", default="both",
        choices=["droidbench", "malware", "both"],
        help="which suite(s) to evaluate at each rate (default both)",
    )
    faults.add_argument(
        "--policy", default="block",
        choices=["block", "drop_oldest", "drop_newest", "spill"],
        help="buffer overflow policy for the latency table (default block)",
    )
    faults.add_argument("--capacity", type=int, default=256,
                        help="buffer capacity for the latency table")
    faults.add_argument("--drain-batch", type=int, default=64,
                        help="buffer drain batch for the latency table")
    faults.add_argument("--work", type=int, default=16,
                        help="malware background workload size (default 16)")
    faults.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the degradation sweep (default 1; "
             "results are identical at any N)",
    )
    _add_store_arguments(faults)
    _add_telemetry_arguments(faults, with_json=True)
    _add_observability_arguments(faults)
    faults.set_defaults(func=cmd_faults)

    def _add_serve_shard_arguments(sub) -> None:
        sub.add_argument(
            "--workers", type=int, default=2, metavar="N",
            help="shard drain workers — the unit a shard migrates "
                 "between (default 2)",
        )
        sub.add_argument(
            "--capacity", type=int, default=1024,
            help="per-shard event FIFO capacity (default 1024)",
        )
        sub.add_argument(
            "--drain-batch", type=int, default=256,
            help="events a worker drains per shard per pass (default 256)",
        )
        sub.add_argument(
            "--policy", default="block",
            choices=["block", "drop_oldest", "drop_newest", "spill"],
            help="per-shard overflow policy (default block)",
        )
        sub.add_argument(
            "--high-watermark", type=int, default=None, metavar="N",
            help="FIFO depth that pauses socket reads for the shard "
                 "(real backpressure; default: capacity)",
        )
        sub.add_argument(
            "--low-watermark", type=int, default=None, metavar="N",
            help="FIFO depth at which paused reads resume "
                 "(default: high watermark / 2)",
        )
        sub.add_argument(
            "--colours", action="store_true",
            help="run ColourTracker shards: verdicts carry per-source "
                 "colour attribution (union projection keeps the taint "
                 "bits bit-identical)",
        )

    serve_cmd = commands.add_parser(
        "serve",
        help="long-lived streaming taint-tracking daemon",
        description="Accept newline-delimited JSON event frames from "
                    "many concurrent device connections (TCP and/or a "
                    "unix socket), route them to per-(device, pid) "
                    "tracker shards, answer sink checks in-stream, and "
                    "expose Prometheus metrics over HTTP.  Admin verbs "
                    "(drain/restore/migrate/stop_worker) move shards "
                    "between workers mid-stream with bit-identical "
                    "verdicts.",
    )
    _add_window_arguments(serve_cmd)
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="TCP ingestion port (default 7787 when no --unix; 0 picks "
             "a free port, printed on the ready line)",
    )
    serve_cmd.add_argument(
        "--unix", metavar="PATH", default=None,
        help="also (or instead) listen on this unix socket path",
    )
    serve_cmd.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve GET /metrics (Prometheus text format) on this port",
    )
    _add_serve_shard_arguments(serve_cmd)
    _add_telemetry_arguments(serve_cmd)
    serve_cmd.set_defaults(func=cmd_serve)

    fleet_cmd = commands.add_parser(
        "fleet",
        help="N-device fleet simulation with byte-exact parity checking",
        description="Stream recorded suites through a serve daemon as N "
                    "concurrent simulated devices and diff every verdict "
                    "(and colour attribution under --colours) against "
                    "batch replay.  Self-hosts a daemon on a throwaway "
                    "unix socket unless --connect/--connect-unix points "
                    "at a running one.  Exits 1 on any parity mismatch.",
    )
    _add_window_arguments(fleet_cmd)
    fleet_cmd.add_argument(
        "--devices", type=int, default=4, metavar="N",
        help="concurrent simulated device connections (default 4)",
    )
    fleet_cmd.add_argument(
        "--suite-file", metavar="PATH", default=None,
        help="stream a recorded suite artifact (.suite.gz) chunk by "
             "chunk instead of recording DroidBench in-process",
    )
    fleet_cmd.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stream only the first N runs of the suite",
    )
    fleet_cmd.add_argument(
        "--chunk", type=int, default=512, metavar="N",
        help="events per streamed frame (default 512)",
    )
    fleet_cmd.add_argument(
        "--migrate", action="store_true",
        help="mid-stream chaos: drain one streaming shard over the "
             "wire, restore it onto another worker, then kill worker 0 "
             "— parity must still hold",
    )
    fleet_cmd.add_argument(
        "--connect-host", metavar="HOST", default=None,
        help="target an external daemon at this host (with "
             "--connect-port) instead of self-hosting",
    )
    fleet_cmd.add_argument(
        "--connect-port", type=int, default=None, metavar="PORT",
        help="TCP port of the external daemon",
    )
    fleet_cmd.add_argument(
        "--connect-unix", metavar="PATH", default=None,
        help="unix socket of an external daemon",
    )
    _add_serve_shard_arguments(fleet_cmd)
    _add_telemetry_arguments(fleet_cmd, with_json=True)
    fleet_cmd.set_defaults(func=cmd_fleet)

    report_cmd = commands.add_parser(
        "report",
        help="post-hoc summary of a journaled run",
        description="Join a run's journal with its persisted telemetry "
                    "stream and print per-cell wall times, per-worker "
                    "utilization, the slowest cells, store traffic and "
                    "worker stalls — no re-execution.",
    )
    report_cmd.add_argument("run_id", help="run id (listed by 'store stats')")
    report_cmd.add_argument("--store", metavar="DIR", required=True,
                            help="store directory holding the run journal")
    report_cmd.add_argument("--slowest", type=int, default=5, metavar="N",
                            help="how many slowest cells to list (default 5)")
    report_cmd.add_argument("--json", action="store_true",
                            help="emit the report as machine-readable JSON")
    report_cmd.set_defaults(func=cmd_report)

    store_cmd = commands.add_parser(
        "store",
        help="artifact-store maintenance (stats / prune / verify)",
        description="Inspect and maintain a --store directory: entry "
                    "counts and bytes per suite kind, checksum "
                    "verification (corrupt entries are quarantined), and "
                    "size-budgeted pruning.",
    )
    store_actions = store_cmd.add_subparsers(dest="store_action",
                                             required=True)
    for action, text in (
        ("stats", "entry/journal accounting for a store directory"),
        ("prune", "clear quarantine and optionally shrink under a budget"),
        ("verify", "re-hash every entry; quarantine corrupt ones"),
    ):
        sub = store_actions.add_parser(action, help=text)
        sub.add_argument("--store", metavar="DIR", required=True,
                         help="store directory")
        if action == "prune":
            sub.add_argument("--max-bytes", type=int, default=None,
                             metavar="N",
                             help="evict oldest entries until payload "
                                  "bytes fit under N")
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
        sub.set_defaults(func=cmd_store)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
