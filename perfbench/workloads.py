"""The replay-side workloads: ``suite_grid`` and ``malware_replay``.

Both run a *unit* of work repeatedly until ``--seconds`` have passed and
report medians over units.  ``--seed`` only permutes the order of runs,
configs and cells; every output is checked against the per-run
references in ``references/``, which are therefore shared by all seeds.

Timings are taken at reference speed (:class:`common.SpeedClock`): one
segment per app recording, grid cell, store load and replay call.

A traced run sets up once under the tracer, then runs a warm-up unit, a
traced unit and an untraced unit.  The last two give the tracing
overhead; the traced unit (plus the set-up) gives the per-layer numbers,
whose counts repeat exactly because the work is fixed.
"""

from __future__ import annotations

import json
import shutil
import statistics
from contextlib import nullcontext
from importlib import import_module
from typing import Callable, Dict, List, Optional

from common import (
    GRID_CAPS, GRID_WINDOWS, OUT, REFERENCES, REPLAY_CONFIGS, SETUP_REPEATS,
    SMOKE_CELLS, Checks, Outcome, SpeedClock, fingerprint, load_reference,
    outcome_rows, overhead_rows, peak_rss_mb, percentile_ms, perf_counter,
    rng_for, stats_row, timed_setups,
)
from layers import install_replay_layers, layer_metrics
from tracing import Tracer


class Context:
    """One invocation's settings."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, references=REFERENCES) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.references = references
        self.setup_repeats = 1 if smoke else SETUP_REPEATS


def _units(ctx: Context, unit: Callable) -> list:
    """Run ``unit(rng)`` until ``ctx.seconds`` pass (once in smoke mode)."""
    results = []
    started = perf_counter()
    while not results or (
        not ctx.smoke and perf_counter() - started < ctx.seconds
    ):
        results.append(unit(rng_for(ctx.seed, "unit", len(results))))
    return results


def _median(results: list, key: str) -> float:
    return statistics.median(result[key] for result in results)


def _traced_units(ctx: Context, tracer: Tracer, unit: Callable,
                  install: Callable) -> tuple:
    """A warm-up unit, one traced unit, then one untraced unit.

    ``unit(rng, tracer)`` gets ``None`` when untraced.  The warm-up pays
    the first-use costs (lazy imports, numpy set-up) that would
    otherwise be charged to whichever unit ran first.
    """
    tracer.uninstall()
    unit(rng_for(ctx.seed, "unit", 0), None)
    install(tracer)
    try:
        traced = unit(rng_for(ctx.seed, "unit", 0), tracer)
    finally:
        tracer.uninstall()
    untraced = unit(rng_for(ctx.seed, "unit", 0), None)
    return untraced, traced


# -- suite_grid ---------------------------------------------------------------

SUITE_MODULES = ("repro.apps.droidbench", "repro.sweep")


def _canonical_cell(payload: dict) -> dict:
    """A cell payload as JSON reads it back, with its app lists in name
    order: app order is a seed-dependent permutation, verdicts are not."""
    payload = json.loads(json.dumps(payload))
    report = payload.get("report")
    if report is not None:
        for key in ("missed_apps", "false_alarm_apps"):
            report[key] = sorted(report[key])
    return payload


def suite_grid(ctx: Context) -> Outcome:
    """Record the DroidBench suite, then sweep the 200-cell grid inline."""
    from repro.apps.droidbench import record_suite
    from repro.sweep import GridSpec, TraceCache, run_sweep

    suite = import_module("repro.apps.droidbench.suite")

    reference = load_reference("suite_grid.json", ctx.references)
    checks = Checks()
    grid = list(GridSpec(window_sizes=GRID_WINDOWS,
                         propagation_caps=GRID_CAPS).cells())
    cells = [grid[i] for i in SMOKE_CELLS] if ctx.smoke else grid
    verdicts: Dict[str, list] = {}

    def unit(rng, tracer: Optional[Tracer] = None) -> dict:
        phase = tracer.in_phase if tracer else (lambda name: nullcontext())
        apps = suite.all_apps()
        rng.shuffle(apps)
        order = list(cells)
        rng.shuffle(order)
        runs = []
        with phase("record"):
            clock = SpeedClock()
            for app in apps:
                if tracer:
                    tracer.set_request(app.name)
                runs += record_suite(apps=[app])
                clock.lap()
        record = clock
        factors: Dict[int, float] = {}

        def lap(result, done, total) -> None:
            factors[result.index] = clock.lap()

        with phase("sweep"):
            clock = SpeedClock()
            result = run_sweep(order, cache=TraceCache(droidbench=runs),
                               progress=lap)
            clock.lap()
        for run in runs:
            checks.expect(
                fingerprint(run.recorded)
                == reference["recordings"].get(run.name),
                f"recording {run.name} differs from its reference",
            )
        for cell in result.cells:
            payload = _canonical_cell(cell.as_dict())
            checks.expect(
                payload == reference["cells"].get(str(cell.index)),
                f"cell {cell.index} differs from its reference",
            )
            verdicts[f"cell{cell.index}"] = payload
        instructions = sum(run.recorded.instruction_count for run in runs)
        events = sum(cell.events_tracked for cell in result.cells)
        return {
            "record_instr_per_s": instructions / record.ref_s,
            "grid_cells_per_s": len(order) / clock.ref_s,
            "events_per_s": events / clock.ref_s,
            "raw_events_per_s": events / clock.raw_s,
            "latencies": [cell.duration_seconds * factors[cell.index]
                          for cell in result.cells],
            "wall_s": record.ref_s + clock.ref_s,
        }

    if ctx.trace:
        tracer = Tracer()
        untraced, traced = _traced_units(ctx, tracer, unit,
                                         install_replay_layers)
        return _traced_outcome(
            "suite_grid", tracer, untraced, traced, checks, verdicts,
            ("record_instr_per_s", "grid_cells_per_s", "events_per_s"),
            extra={"grid_cells_per_s": untraced["grid_cells_per_s"]},
        )

    setup_s, setup_times, _ = timed_setups(
        ctx.setup_repeats, SUITE_MODULES, lambda: None
    )
    results = _units(ctx, unit)
    latencies = [value for result in results for value in result["latencies"]]
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "record_instr_per_s": _median(results, "record_instr_per_s"),
            "events_per_s": _median(results, "events_per_s"),
            "p50_ms": percentile_ms(latencies, 50),
            "p95_ms": percentile_ms(latencies, 95),
        },
        details={
            "grid_cells_per_s": _median(results, "grid_cells_per_s"),
            "raw_events_per_s": _median(results, "raw_events_per_s"),
            "units": len(results),
            "latency_samples": len(latencies),
        },
        checks=checks,
        verdicts=verdicts,
        info={"setup_times_s": setup_times},
    )


# -- malware_replay -----------------------------------------------------------

MALWARE_MODULES = ("repro.apps.malware", "repro.analysis.replay",
                   "repro.store", "repro.telemetry")
MALWARE_WORK = 120
SMOKE_MALWARE_WORK = 16
DENSE_RUN = "LGRoot"
PHASES = ("load", "dense", "sparse", "coloured", "telemetry")


def phase_metric(phase: str) -> str:
    """The throughput figure of one malware_replay phase."""
    if phase == "load":
        return "load_events_per_s"
    return f"replay_{phase}_events_per_s"


def malware_replay(ctx: Context) -> Outcome:
    """Store-load the seven malware recordings and replay them four ways."""
    replay_mod = import_module("repro.analysis.replay")
    from repro.analysis.accuracy import AppRun
    from repro.apps.malware import SAMPLES, run_sample
    from repro.core import PAPER_MALWARE_MINIMUM, PIFTConfig
    from repro.store import ArtifactStore, malware_key
    from repro.telemetry import Telemetry

    work = SMOKE_MALWARE_WORK if ctx.smoke else MALWARE_WORK
    reference = load_reference(f"malware_replay_w{work}.json",
                               ctx.references)
    key = malware_key(work)
    store_root = OUT / "malware-store"
    checks = Checks()
    verdicts: Dict[str, list] = {}
    record_rates: List[float] = []

    def prepare():
        shutil.rmtree(store_root, ignore_errors=True)
        # record_malware_runs, one timed segment per sample: a single
        # multi-second segment is rescaled too coarsely (see METRICS.md).
        clock = SpeedClock()
        runs = []
        for sample in SAMPLES:
            device = run_sample(sample, PAPER_MALWARE_MINIMUM, work=work)
            runs.append(AppRun(sample.name, device.recorded, True,
                               sample.kind))
            clock.lap()
        record_rates.append(
            sum(run.recorded.instruction_count for run in runs) / clock.ref_s
        )
        store = ArtifactStore(store_root)
        store.put_runs(key, runs)
        return store

    def check_run(mode: str, name: str, ni: int, nt: int, result,
                  plain=None) -> None:
        label = f"{name}|ni{ni}|nt{nt}"
        rows, stats = outcome_rows(result), stats_row(result)
        expected = reference["coloured" if mode == "coloured" else "plain"]
        checks.expect(
            expected.get(label) == {"outcomes": rows, "stats": stats},
            f"{mode} replay {label} differs from its reference",
        )
        if mode == "coloured":
            checks.expect(
                [row[4] for row in rows] == [row[4] for row in plain]
                and all(bool(row[5]) == row[4] for row in rows),
                f"coloured replay {label} does not project onto the plain "
                "verdicts",
            )
        if mode == "telemetry":
            checks.expect(rows == plain,
                          f"telemetry changed the outcomes of {label}")
        verdicts[f"{mode}|{label}"] = rows

    def unit(rng, store, tracer: Optional[Tracer] = None) -> dict:
        phase = tracer.in_phase if tracer else (lambda name: nullcontext())
        configs = [PIFTConfig(ni, nt) for ni, nt in REPLAY_CONFIGS]
        rng.shuffle(configs)
        latencies: List[float] = []
        times: Dict[str, float] = {}
        raw_times: Dict[str, float] = {}

        def replay_all(name: str, runs, replay, **kwargs) -> list:
            done = []
            with phase(name):
                clock = SpeedClock()
                for run in runs:
                    if tracer:
                        tracer.set_request(run.name)
                    for config in configs:
                        began = perf_counter()
                        result = replay(run.recorded, config, **kwargs)
                        elapsed = perf_counter() - began
                        latencies.append(elapsed * clock.lap())
                        done.append((run.name, config, result))
                times[name], raw_times[name] = clock.ref_s, clock.raw_s
            return done

        with phase("load"):
            clock = SpeedClock()
            runs = store.get_runs(key)
            clock.lap()
            times["load"], raw_times["load"] = clock.ref_s, clock.raw_s
        rng.shuffle(runs)
        dense = [run for run in runs if run.name == DENSE_RUN]
        sparse = [run for run in runs if run.name != DENSE_RUN]
        plain = (replay_all("dense", dense, replay_mod.replay)
                 + replay_all("sparse", sparse, replay_mod.replay))
        coloured = replay_all("coloured", runs, replay_mod.replay_coloured)
        hub = Telemetry().preregister_standard()
        telemetry = replay_all("telemetry", runs, replay_mod.replay,
                               telemetry=hub)

        for run in runs:
            checks.expect(
                fingerprint(run.recorded) == reference["recordings"].get(
                    run.name),
                f"loaded run {run.name} differs from its reference",
            )
        plain_rows = {}
        for name, config, result in plain:
            check_run("plain", name, config.window_size,
                      config.max_propagations, result)
            plain_rows[(name, config)] = outcome_rows(result)
        for mode, done in (("coloured", coloured), ("telemetry", telemetry)):
            for name, config, result in done:
                check_run(mode, name, config.window_size,
                          config.max_propagations, result,
                          plain=plain_rows[(name, config)])

        passes = len(configs)
        events = {
            "dense": passes * sum(len(run.recorded.trace) for run in dense),
            "sparse": passes * sum(len(run.recorded.trace) for run in sparse),
        }
        events["coloured"] = events["telemetry"] = (
            events["dense"] + events["sparse"]
        )
        events["load"] = events["coloured"] // passes
        rates = {phase_metric(name): events[name] / times[name]
                 for name in PHASES}
        return {
            **rates,
            "events_per_s": sum(events.values()) / sum(times.values()),
            "raw_events_per_s": (sum(events.values())
                                 / sum(raw_times.values())),
            "latencies": latencies,
            "wall_s": sum(times.values()),
            "times": times,
        }

    if ctx.trace:
        tracer = Tracer()
        install_replay_layers(tracer)
        try:
            with tracer.in_phase("setup"):
                store = prepare()
        finally:
            tracer.uninstall()
        untraced, traced = _traced_units(
            ctx, tracer, lambda rng, active: unit(rng, store, active),
            install_replay_layers,
        )
        plain_s = traced["times"]["dense"] + traced["times"]["sparse"]
        summary = tracer.summary()
        telemetry_events = summary.get("telemetry", {}).get(
            "telemetry.event", {}).get("calls", 0)
        tracked = summary["counters"].get("telemetry", {}).get(
            "core.events_tracked", 0)
        keys = ["events_per_s"] + [phase_metric(name) for name in PHASES]
        extra = {
            "telemetry.overhead_ratio": traced["times"]["telemetry"] / plain_s,
            "telemetry.events_per_tracked_event": (
                telemetry_events / tracked if tracked else 0.0),
            **{name: untraced[name] for name in keys[1:]},
        }
        return _traced_outcome("malware_replay", tracer, untraced, traced,
                               checks, verdicts, keys, extra=extra,
                               summary=summary)

    setup_s, setup_times, store = timed_setups(
        ctx.setup_repeats, MALWARE_MODULES, prepare
    )
    results = _units(ctx, lambda rng: unit(rng, store))
    latencies = [value for result in results for value in result["latencies"]]
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "record_instr_per_s": statistics.median(record_rates),
            "events_per_s": _median(results, "events_per_s"),
            "p50_ms": percentile_ms(latencies, 50),
            "p95_ms": percentile_ms(latencies, 95),
        },
        details={
            **{phase_metric(name): _median(results, phase_metric(name))
               for name in PHASES},
            "raw_events_per_s": _median(results, "raw_events_per_s"),
            "units": len(results),
            "latency_samples": len(latencies),
        },
        checks=checks,
        verdicts=verdicts,
        info={"setup_times_s": setup_times},
    )


# -- traced runs --------------------------------------------------------------

def _traced_outcome(workload: str, tracer: Tracer, untraced: dict,
                    traced: dict, checks: Checks, verdicts: dict, keys,
                    extra: Optional[dict] = None,
                    summary: Optional[dict] = None) -> Outcome:
    summary = summary or tracer.summary()
    extra = dict(extra or {})
    extra["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    layers = layer_metrics(summary, None, extra)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"{workload}-spans.npz")
    return Outcome(
        metrics={},
        details={},
        checks=checks,
        verdicts=verdicts,
        layers=layers,
        info={
            "overhead": overhead_rows(untraced, traced, keys),
            "phases": {
                phase: rows for phase, rows in summary.items()
                if phase not in ("all", "counters")
            },
            "counters": summary["counters"],
        },
    )
