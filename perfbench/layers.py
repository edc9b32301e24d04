"""Which public calls each layer is timed at, and the per-layer metrics.

:func:`install_replay_layers` wraps the simulator, sweep, replay, core,
store and telemetry entry points in the benchmark process;
:func:`install_serve_layers` wraps the daemon-side calls inside a
``repro serve`` process.  :func:`layer_metrics` turns the tracer
summaries of both processes into the flat ``per_layer`` metric set that
``BENCHMARK.json`` lists.  Every workload reports every metric; a layer
a workload never enters reads 0.
"""

from __future__ import annotations

import dataclasses
from importlib import import_module
from typing import Dict, Optional, Tuple

from tracing import Tracer

#: name -> unit, in report order.  Must match BENCHMARK.json's per_layer.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.build_s": "s",
    "android.run_s": "s",
    "isa.cpu_run_s": "s",
    "isa.cpu_run.calls": "count",
    "isa.instructions": "count",
    "isa.memory_events": "count",
    "core.hw_observe_s": "s",
    "core.hw_observe.calls": "count",
    "sweep.run_cell_s": "s",
    "sweep.cells": "count",
    "analysis.replay_s": "s",
    "analysis.replay_coloured_s": "s",
    "analysis.replays": "count",
    "analysis.replay_plan_s": "s",
    "core.columns_s": "s",
    "core.observe_columns_s": "s",
    "core.observe_columns.calls": "count",
    "core.events_per_observe_columns_call": "events/call",
    "core.observe_columns_scalar_s": "s",
    "core.scalar_event_share": "ratio",
    "core.taint_source_s": "s",
    "core.check_s": "s",
    "core.observe_s": "s",
    "core.observe.calls": "count",
    "core.events_per_tracker_call": "events/call",
    "core.taint_ops": "count",
    "core.untaint_ops": "count",
    "core.tainted_loads": "count",
    "core.max_range_count": "count",
    "store.get_runs_s": "s",
    "store.decode_s": "s",
    "store.bytes_read": "bytes",
    "telemetry.overhead_ratio": "ratio",
    "telemetry.events_per_tracked_event": "ratio",
    "serve.decode_frame_s": "s",
    "serve.decode_events_s": "s",
    "serve.encode_frame_s": "s",
    "serve.frames_in": "count",
    "serve.bytes_per_event": "bytes/event",
    "serve.shard_for_s": "s",
    "serve.wait_writable_s": "s",
    "serve.backpressure_engagements": "count",
    "serve.ingest_s": "s",
    "serve.drain_s": "s",
    "serve.drain.calls": "count",
    "serve.check_s": "s",
    "serve.forced_drops": "count",
    "serve.daemon_cpu_share": "ratio",
    "serve.generator_cpu_share": "ratio",
    "serve.loop_other_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    # Workload figures measured with tracing off in the traced run's
    # untraced unit (the workload-specific figures behind the generic
    # end-to-end metrics).
    "grid_cells_per_s": "cells/s",
    "load_events_per_s": "events/s",
    "replay_dense_events_per_s": "events/s",
    "replay_sparse_events_per_s": "events/s",
    "replay_coloured_events_per_s": "events/s",
    "replay_telemetry_events_per_s": "events/s",
    "serve_events_per_s": "events/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
}


def _slice_events(args, kwargs) -> int:
    """Events in an ``observe_columns*(columns, start, stop)`` call."""
    columns = args[1]
    start = args[2] if len(args) > 2 else kwargs.get("start", 0)
    stop = args[3] if len(args) > 3 else kwargs.get("stop")
    return (len(columns) if stop is None else stop) - start


def _install_tracker(tracer: Tracer, per_event: bool) -> None:
    """The tracker's public entry points (plain and coloured)."""
    from repro.core.tracker import ColourTracker, PIFTTracker

    def columns_done(args, kwargs, result) -> None:
        tracer.add("core.observe_columns.events", _slice_events(args, kwargs))

    def scalar_done(args, kwargs, result) -> None:
        tracer.add("core.observe_columns_scalar.events",
                   _slice_events(args, kwargs))

    for cls in (PIFTTracker, ColourTracker):
        tracer.wrap(cls, "observe_columns", "core.observe_columns",
                    after=columns_done)
        tracer.wrap(cls, "observe_columns_scalar",
                    "core.observe_columns_scalar", after=scalar_done)
        tracer.wrap(cls, "taint_source", "core.taint_source")
        if per_event:
            # Recording feeds the tracker through core.hw, whose own span
            # already covers it; only the daemon needs per-event spans.
            tracer.wrap(cls, "observe", "core.observe")
    tracer.wrap(PIFTTracker, "check", "core.check")
    tracer.wrap(ColourTracker, "check_mask", "core.check")


def _traced_build(tracer: Tracer, app):
    """``app`` (a BenchApp or MalwareSample) with its ``build`` timed."""
    return dataclasses.replace(
        app, build=tracer.traced(app.build, "sim.build"))


def install_replay_layers(tracer: Tracer) -> None:
    """Wrap every layer the benchmark process drives."""
    replay_mod = import_module("repro.analysis.replay")
    samples = import_module("repro.apps.malware.samples")
    suite = import_module("repro.apps.droidbench.suite")
    store_mod = import_module("repro.store.store")
    engine = import_module("repro.sweep.engine")
    from repro.android.device import AndroidDevice
    from repro.core.events import EventColumns, EventTrace
    from repro.core.hw import PIFTHardwareModule
    from repro.isa.cpu import CPU
    from repro.telemetry.hub import Telemetry

    suite_apps = suite.all_apps
    tracer.patch(suite, "all_apps", lambda: [
        _traced_build(tracer, app) for app in suite_apps()
    ])
    for index, sample in enumerate(samples.SAMPLES):
        tracer.patch_item(samples.SAMPLES, index,
                          _traced_build(tracer, sample))
    tracer.wrap(AndroidDevice, "install", "sim.build")
    tracer.wrap(AndroidDevice, "run", "android.run")
    tracer.wrap(CPU, "run", "isa.cpu_run",
                after=lambda a, k, r: tracer.add("isa.instructions", r))
    tracer.wrap(PIFTHardwareModule, "on_memory_event", "core.hw_observe")
    tracer.wrap(engine, "run_cell", "sweep.run_cell",
                request=lambda args: f"cell{args[0].index}")

    def replayed(args, kwargs, result) -> None:
        stats = result.stats
        tracer.add("core.events_tracked",
                   stats.loads_observed + stats.stores_observed)
        tracer.add("core.taint_ops", stats.taint_operations)
        tracer.add("core.untaint_ops", stats.untaint_operations)
        tracer.add("core.tainted_loads", stats.tainted_loads)
        tracer.peak("core.max_range_count", stats.max_range_count)

    tracer.wrap(replay_mod, "replay", "analysis.replay", after=replayed)
    tracer.wrap(replay_mod, "replay_coloured", "analysis.replay_coloured",
                after=replayed)
    tracer.wrap(replay_mod, "replay_plan_for", "analysis.replay_plan")
    tracer.wrap(EventTrace, "columns", "core.columns")
    tracer.wrap(EventColumns, "arrays", "core.columns")
    _install_tracker(tracer, per_event=False)
    tracer.wrap(store_mod.ArtifactStore, "get_runs", "store.get_runs")
    tracer.wrap(store_mod, "load_suite_bytes", "store.decode",
                after=lambda a, k, r: tracer.add("store.bytes_read",
                                                  len(a[0])))
    tracer.wrap(Telemetry, "event", "telemetry.event")


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap the daemon-side calls of ``repro.serve`` and the tracker."""
    protocol = import_module("repro.serve.protocol")
    from repro.serve.router import ShardRouter
    from repro.serve.shard import TrackerShard

    def frame_in(args, kwargs, frame) -> None:
        tracer.add("serve.frames_in")
        if frame.get("op") == "events":
            tracer.add("serve.event_frame_bytes", len(args[0]))

    def shard_request(args) -> str:
        shard = args[0]
        return f"{shard.key[0]}#{shard.checks_answered}"

    def paused(args, kwargs) -> None:
        if args[1].backpressure:
            tracer.add("serve.backpressure_engagements")

    tracer.wrap(protocol, "decode_frame", "serve.decode_frame",
                after=frame_in)
    tracer.wrap_generator(protocol, "decode_events", "serve.decode_events",
                          after=lambda a, k, n: tracer.add("serve.events_in",
                                                           n))
    tracer.wrap(protocol, "encode_frame", "serve.encode_frame")
    tracer.wrap_async(ShardRouter, "shard_for", "serve.shard_for")
    tracer.wrap_async(ShardRouter, "wait_writable", "serve.wait_writable",
                      before=paused)
    tracer.wrap(TrackerShard, "ingest", "serve.ingest",
                request=shard_request)
    tracer.wrap(TrackerShard, "drain", "serve.drain", request=shard_request)
    tracer.wrap(TrackerShard, "check", "serve.check", request=shard_request)
    _install_tracker(tracer, per_event=True)


def _merge(summaries) -> Tuple[dict, dict]:
    """Sum the ``all`` phase and counters of several process summaries."""
    spans: Dict[str, dict] = {}
    counters: Dict[str, float] = {}
    for summary in summaries:
        for name, row in summary.get("all", {}).items():
            into = spans.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for key in into:
                into[key] += row[key]
        for key, value in summary["counters"].get("all", {}).items():
            if key == "core.max_range_count":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return spans, counters


def layer_metrics(
    bench: dict, daemon: Optional[dict] = None, extra: Optional[dict] = None
) -> Dict[str, float]:
    """The per-layer metric values from tracer summaries.

    ``bench`` is the benchmark process's summary, ``daemon`` the traced
    daemon's; ``extra`` supplies, by metric name, the values measured
    outside the spans (CPU shares, forced drops, phase ratios, untraced
    workload figures).  Metrics nobody supplied read 0.
    """
    summaries = [bench] + ([daemon] if daemon else [])
    spans, counters = _merge(summaries)
    daemon_spans, _ = _merge([daemon] if daemon else [])

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    column_events = counters.get("core.observe_columns.events", 0)
    # Events per tracker call where the workload's verdicts come from:
    # the daemon's shards when there is one, else the replays.
    feeder = daemon_spans if daemon else spans
    feeder_columns = (
        daemon["counters"].get("all", {}) if daemon else counters
    ).get("core.observe_columns.events", 0)
    tracker_calls = sum(feeder.get(name, {}).get("calls", 0)
                        for name in ("core.observe", "core.observe_columns"))
    tracker_events = (feeder.get("core.observe", {}).get("calls", 0)
                      + feeder_columns)
    extra = dict(extra or {})
    daemon_cpu_s = extra.pop("daemon_cpu_s", 0.0)
    daemon_busy = sum(
        row["self_s"] for name, row in daemon_spans.items()
        if name not in ("serve.shard_for", "serve.wait_writable")
    )
    metrics = {
        "sim.build_s": self_s("sim.build"),
        "android.run_s": self_s("android.run"),
        "isa.cpu_run_s": self_s("isa.cpu_run"),
        "isa.cpu_run.calls": calls("isa.cpu_run"),
        "isa.instructions": counters.get("isa.instructions", 0),
        "isa.memory_events": calls("core.hw_observe"),
        "core.hw_observe_s": total_s("core.hw_observe"),
        "core.hw_observe.calls": calls("core.hw_observe"),
        "sweep.run_cell_s": self_s("sweep.run_cell"),
        "sweep.cells": calls("sweep.run_cell"),
        "analysis.replay_s": self_s("analysis.replay"),
        "analysis.replay_coloured_s": self_s("analysis.replay_coloured"),
        "analysis.replays": (calls("analysis.replay")
                             + calls("analysis.replay_coloured")),
        "analysis.replay_plan_s": total_s("analysis.replay_plan"),
        "core.columns_s": total_s("core.columns"),
        "core.observe_columns_s": self_s("core.observe_columns"),
        "core.observe_columns.calls": calls("core.observe_columns"),
        "core.events_per_observe_columns_call": ratio(
            column_events, calls("core.observe_columns")),
        "core.observe_columns_scalar_s": total_s(
            "core.observe_columns_scalar"),
        "core.scalar_event_share": ratio(
            counters.get("core.observe_columns_scalar.events", 0),
            column_events),
        "core.taint_source_s": total_s("core.taint_source"),
        "core.check_s": total_s("core.check"),
        "core.observe_s": self_s("core.observe"),
        "core.observe.calls": calls("core.observe"),
        "core.events_per_tracker_call": ratio(tracker_events, tracker_calls),
        "core.taint_ops": counters.get("core.taint_ops", 0),
        "core.untaint_ops": counters.get("core.untaint_ops", 0),
        "core.tainted_loads": counters.get("core.tainted_loads", 0),
        "core.max_range_count": counters.get("core.max_range_count", 0),
        "store.get_runs_s": self_s("store.get_runs"),
        "store.decode_s": total_s("store.decode"),
        "store.bytes_read": counters.get("store.bytes_read", 0),
        "serve.decode_frame_s": total_s("serve.decode_frame"),
        "serve.decode_events_s": total_s("serve.decode_events"),
        "serve.encode_frame_s": total_s("serve.encode_frame"),
        "serve.frames_in": counters.get("serve.frames_in", 0),
        "serve.bytes_per_event": ratio(
            counters.get("serve.event_frame_bytes", 0),
            counters.get("serve.events_in", 0)),
        "serve.shard_for_s": total_s("serve.shard_for"),
        "serve.wait_writable_s": total_s("serve.wait_writable"),
        "serve.backpressure_engagements": counters.get(
            "serve.backpressure_engagements", 0),
        "serve.ingest_s": self_s("serve.ingest"),
        "serve.drain_s": self_s("serve.drain"),
        "serve.drain.calls": calls("serve.drain"),
        "serve.check_s": self_s("serve.check"),
        "serve.loop_other_s": (daemon_cpu_s - daemon_busy
                               if daemon else 0.0),
        "trace.spans": sum(row["calls"] for row in spans.values()),
    }
    unknown = set(extra) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    metrics.update(extra)
    return {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
