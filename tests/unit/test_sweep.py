"""Tests for repro.sweep: specs, trace cache, and the parallel engine."""

import json

import pytest

from repro.core.config import PIFTConfig
from repro.core.faults import FaultRates
from repro.sweep import (
    GridSpec,
    SweepCell,
    TraceCache,
    derive_seed,
    register_state_factory,
    resolve_state_factory,
    run_cell,
    run_sweep,
)


class TestSpecs:
    def test_derive_seed_is_deterministic_and_spread(self):
        seeds = [derive_seed(42, i) for i in range(100)]
        assert seeds == [derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2 ** 64 for s in seeds)
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_grid_expansion_is_row_major(self):
        spec = GridSpec(
            window_sizes=(1, 2), propagation_caps=(3, 4), rates=(0.0, 0.5)
        )
        cells = list(spec.cells())
        assert len(cells) == len(spec) == 8
        assert [c.index for c in cells] == list(range(8))
        # caps are rows, windows columns, rates innermost.
        assert [(c.config.max_propagations, c.config.window_size, c.rate)
                for c in cells[:4]] == [
            (3, 1, 0.0), (3, 1, 0.5), (3, 2, 0.0), (3, 2, 0.5),
        ]

    def test_shared_seed_policy_couples_cells(self):
        spec = GridSpec(window_sizes=(1,), propagation_caps=(1,),
                        rates=(0.0, 0.1, 0.2), seed=7)
        assert {c.seed for c in spec.cells()} == {7}

    def test_per_cell_seed_policy_decorrelates(self):
        spec = GridSpec(window_sizes=(1,), propagation_caps=(1,),
                        rates=(0.0, 0.1, 0.2), seed=7,
                        seed_policy="per_cell")
        seeds = [c.seed for c in spec.cells()]
        assert len(set(seeds)) == 3
        assert seeds == [derive_seed(7, i) for i in range(3)]

    def test_grid_rejects_bad_policy_and_empty_axes(self):
        with pytest.raises(ValueError):
            GridSpec(window_sizes=(1,), propagation_caps=(1,),
                     seed_policy="chaotic")
        with pytest.raises(ValueError):
            GridSpec(window_sizes=(), propagation_caps=(1,))

    def test_state_factory_registry(self):
        from repro.core.ranges import RangeSet

        assert resolve_state_factory("rangeset") is RangeSet
        with pytest.raises(ValueError, match="unknown state_spec"):
            resolve_state_factory("bogus")
        register_state_factory("test_only", lambda: RangeSet)
        try:
            assert resolve_state_factory("test_only") is RangeSet
        finally:
            from repro.sweep import STATE_FACTORIES

            del STATE_FACTORIES["test_only"]

    def test_cells_pickle(self):
        import pickle

        cell = SweepCell(index=3, config=PIFTConfig(5, 2), rate=0.1,
                         base_rates=FaultRates(event_duplication=1e-4))
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert clone.key() == cell.key()


class TestTraceCache:
    def test_records_droidbench_exactly_once(self):
        cache = TraceCache()
        first = cache.droidbench_runs()
        second = cache.droidbench_runs()
        assert first is second
        assert cache.recordings == 1
        assert len(first) == 57

    def test_preloaded_runs_skip_recording(self):
        runs = TraceCache().droidbench_runs()
        cache = TraceCache(droidbench=runs)
        assert cache.droidbench_runs() == runs
        assert cache.recordings == 0

    def test_payload_roundtrip_preserves_runs(self):
        import pickle

        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:3])
        cache.prime_replay_state()
        payload = pickle.loads(pickle.dumps(cache.payload()))
        clone = TraceCache.from_payload(payload)
        assert [a.name for a in clone.droidbench_runs()] == [
            a.name for a in cache.droidbench_runs()
        ]


class TestEngine:
    @pytest.fixture(scope="class")
    def cache(self):
        cache = TraceCache(droidbench=TraceCache().droidbench_runs())
        cache.prime_replay_state()
        return cache

    def test_run_cell_matches_evaluate_suite(self, cache):
        from repro.analysis.accuracy import evaluate_suite

        config = PIFTConfig(13, 3)
        cell = SweepCell(index=0, config=config)
        result = run_cell(cell, cache)
        baseline = evaluate_suite(cache.droidbench_runs(), config)
        assert result.report.as_dict() == baseline.as_dict()
        assert result.events_tracked > 0
        assert result.operations > 0

    def test_faulted_cell_matches_evaluate_suite_with_faults(self, cache):
        from repro.core.faults import FaultPlan
        from repro.analysis.degradation import evaluate_suite_with_faults

        config = PIFTConfig(13, 3)
        cell = SweepCell(index=0, config=config, rate=0.05, seed=9)
        result = run_cell(cell, cache)
        plan = FaultPlan(seed=9, rates=FaultRates(event_loss=0.05))
        report, stats = evaluate_suite_with_faults(
            cache.droidbench_runs(), config, plan
        )
        assert result.report.as_dict() == report.as_dict()
        assert result.fault_stats.as_dict() == stats.as_dict()

    def test_parallel_results_bit_identical_to_serial(self, cache):
        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2, 3),
                        rates=(0.0, 0.02), seed=3)
        serial = run_sweep(spec, cache=cache, jobs=1)
        parallel = run_sweep(spec, cache=cache, jobs=2)
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            parallel.as_dict(), sort_keys=True
        )
        workers = {cell.worker for cell in parallel.cells}
        assert len(workers) > 1  # the dispatcher actually fanned out

    def test_rejects_bad_jobs(self, cache):
        spec = GridSpec(window_sizes=(5,), propagation_caps=(2,))
        with pytest.raises(ValueError):
            run_sweep(spec, cache=cache, jobs=0)

    def test_progress_reports_every_cell_as_it_finishes(self, cache):
        # Workers finish in any order; progress sees each cell once as
        # it lands, while the result list keeps grid order.
        spec = GridSpec(window_sizes=(5, 13, 20), propagation_caps=(2,))
        seen = []
        result = run_sweep(
            spec, cache=cache, jobs=2,
            progress=lambda result, done, total: seen.append(
                (result.index, done, total)
            ),
        )
        assert sorted(index for index, _, _ in seen) == [0, 1, 2]
        assert [(done, total) for _, done, total in seen] == [
            (1, 3), (2, 3), (3, 3)
        ]
        assert [cell.index for cell in result.cells] == [0, 1, 2]

    def test_timings_account_every_cell(self, cache):
        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2,))
        result = run_sweep(spec, cache=cache, jobs=1)
        timings = result.timings()
        assert timings["cells"] == 2
        assert timings["jobs"] == 1
        assert sum(
            row["cells"] for row in timings["workers"].values()
        ) == 2
        assert timings["events_tracked"] == sum(
            cell.events_tracked for cell in result.cells
        )

    def test_telemetry_counts_cells(self, cache):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2,))
        run_sweep(spec, cache=cache, jobs=1, telemetry=telemetry)
        family = telemetry.snapshot()["sweep"]
        assert family["sweep.cells"]["value"] == 2
        assert family["sweep.events_tracked"]["value"] > 0

    def test_malware_only_cells(self):
        from repro.core.config import PAPER_MALWARE_MINIMUM
        from repro.analysis.degradation import record_malware_runs

        cache = TraceCache(malware=record_malware_runs(work=8))
        cell = SweepCell(index=0, config=PAPER_MALWARE_MINIMUM,
                         droidbench=False, malware=True)
        result = run_cell(cell, cache)
        assert result.report is None
        assert result.malware_detected == 7
        assert result.malware_total == 7


class TestReplayReuse:
    """A sweep answers every fault-free cell inside a stored decision box
    from one replay, and no cell can tell."""

    TINY = "test_tiny_drop_cache"

    @pytest.fixture(scope="class")
    def cache(self):
        from functools import partial

        from repro.analysis.degradation import record_malware_runs
        from repro.core.taint_storage import BoundedRangeCache, EvictionPolicy
        from repro.sweep import STATE_FACTORIES

        # A two-entry DROP cache evicts on real runs, so its verdicts
        # depend on the exact sequence of state calls.
        register_state_factory(self.TINY, lambda: partial(
            BoundedRangeCache, 2, EvictionPolicy.DROP
        ))
        cache = TraceCache(droidbench=TraceCache().droidbench_runs(),
                           malware=record_malware_runs(work=8))
        cache.prime_replay_state()
        yield cache
        del STATE_FACTORIES[self.TINY]

    def cells(self):
        """DroidBench and malware, plain and bounded state, untainting on
        and off, a colour cell and faulted cells, NI falling so boxes
        cover later cells."""
        cells = []

        def add(config, **kwargs):
            cells.append(SweepCell(index=len(cells), config=config, **kwargs))

        for untainting in (True, False):
            for nt in (1, 3, 10):
                for ni in (20, 13, 5, 2):
                    add(PIFTConfig(ni, nt, untainting), malware=True)
                    add(PIFTConfig(ni, nt, untainting), state_spec=self.TINY)
        add(PIFTConfig(13, 3), colours=True)
        for ni in (13, 12):
            add(PIFTConfig(ni, 3), rate=0.05, seed=7, malware=True)
        return cells

    @staticmethod
    def payloads(cells):
        return [json.dumps(cell.as_dict(), sort_keys=True) for cell in cells]

    def test_cells_equal_an_empty_table_at_any_jobs_and_after_resume(
        self, cache, tmp_path
    ):
        from repro.store import RunJournal

        cells = self.cells()
        # run_cell alone starts from an empty table every time.
        fresh = self.payloads(run_cell(cell, cache) for cell in cells)
        inline = run_sweep(cells, cache=cache)
        assert self.payloads(inline.cells) == fresh
        assert inline.timings()["replays_reused"] > 0
        parallel = run_sweep(cells, cache=cache, jobs=2)
        assert self.payloads(parallel.cells) == fresh

        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "reuse")

        def interrupt(result, done, total):
            if done == 5:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(cells, cache=cache, journal=journal, progress=interrupt)
        resumed = run_sweep(cells, cache=cache,
                            journal=RunJournal.load(tmp_path / "run.jsonl"))
        assert resumed.resumed == 5
        assert self.payloads(resumed.cells) == fresh

    def test_faulted_cells_never_reuse(self, cache):
        faulted = [
            SweepCell(index=i, config=PIFTConfig(13 - i, 3), rate=0.05,
                      seed=3)
            for i in range(3)
        ]
        assert run_sweep(faulted, cache=cache).timings()[
            "replays_reused"] == 0

    def test_figure_11_grid_reuses_replays(self, cache):
        result = run_sweep(GridSpec(window_sizes=tuple(range(1, 21)),
                                    propagation_caps=tuple(range(1, 11))),
                           cache=cache)
        assert len(result.cells) == 200
        timings = result.timings()
        assert 0 < timings["replays_reused"] < 200 * 57


class TestAnalysisRewire:
    """The analysis entry points ride the engine with identical results."""

    def test_accuracy_sweep_jobs_parity(self):
        from repro.analysis.accuracy import sweep
        from repro.apps.droidbench import record_suite

        apps = record_suite()
        serial = sweep(apps, window_sizes=(5, 13), propagation_caps=(2, 3))
        parallel = sweep(apps, window_sizes=(5, 13),
                         propagation_caps=(2, 3), jobs=2)
        assert (serial.accuracy == parallel.accuracy).all()
        assert serial.at(13, 3) == parallel.at(13, 3)

    def test_degradation_curve_jobs_parity(self):
        from repro.core.config import PAPER_MALWARE_MINIMUM
        from repro.analysis.degradation import (
            degradation_curve,
            record_malware_runs,
        )

        runs = record_malware_runs(work=8)
        serial = degradation_curve(
            [], PAPER_MALWARE_MINIMUM, rates=(0.0, 0.1), malware_runs=runs
        )
        parallel = degradation_curve(
            [], PAPER_MALWARE_MINIMUM, rates=(0.0, 0.1), malware_runs=runs,
            jobs=2,
        )
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            parallel.as_dict(), sort_keys=True
        )

    def test_degradation_grid_jobs_parity(self):
        from repro.apps.droidbench import record_suite

        from repro.analysis.degradation import degradation_grid

        apps = record_suite()[:8]
        configs = [PIFTConfig(5, 2), PIFTConfig(13, 3)]
        serial = degradation_grid(apps, configs, rates=(0.0, 0.05))
        parallel = degradation_grid(apps, configs, rates=(0.0, 0.05), jobs=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert json.dumps(
                serial[key].as_dict(), sort_keys=True
            ) == json.dumps(parallel[key].as_dict(), sort_keys=True)

    def test_poisoned_cell_fails_positional_readers(self, monkeypatch):
        """A cell that keeps failing on the dispatcher is poisoned, not
        raised; the analysis wrappers read cells by position, so they
        raise instead of shifting every later cell into its slot."""
        from repro.analysis.degradation import degradation_grid
        from repro.apps.droidbench import record_suite
        from repro.sweep import DispatchError, engine

        real_run_cell = engine.run_cell

        def failing(cell, cache, **kwargs):
            if cell.index == 1:
                raise RuntimeError("cell 1 always fails")
            return real_run_cell(cell, cache, **kwargs)

        # Workers fork after the patch, so they evaluate through it.
        monkeypatch.setattr(engine, "run_cell", failing)
        apps = record_suite()[:4]
        with pytest.raises(DispatchError, match="cell 1 poisoned after 4"):
            degradation_grid(apps, [PIFTConfig(5, 2), PIFTConfig(13, 3)],
                             rates=(0.0,), jobs=2)


class TestSweepCLI:
    def test_sweep_json_parallel(self, capsys):
        from repro.__main__ import main

        code = main([
            "sweep", "--windows", "5,13", "--caps", "2,3",
            "--jobs", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "sweep"
        assert len(payload["cells"]) == 4
        assert payload["timings"]["jobs"] == 2
        assert all(0.0 <= cell["accuracy"] <= 1.0
                   for cell in payload["cells"])

    def test_sweep_cli_serial_parallel_identical_cells(self, capsys):
        from repro.__main__ import main

        main(["sweep", "--windows", "5,13", "--caps", "2",
              "--rates", "0,0.05", "--json"])
        serial = json.loads(capsys.readouterr().out)["cells"]
        main(["sweep", "--windows", "5,13", "--caps", "2",
              "--rates", "0,0.05", "--jobs", "2", "--json"])
        parallel = json.loads(capsys.readouterr().out)["cells"]
        assert serial == parallel

    def test_sweep_human_output_renders_grid(self, capsys):
        from repro.__main__ import main

        code = main(["sweep", "--windows", "5,13", "--caps", "2,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NT\\NI" in out
        assert "best cell" in out

    def test_axis_parsing(self):
        from repro.__main__ import _parse_axis

        assert _parse_axis("1:4") == [1, 2, 3]
        assert _parse_axis("5,13") == [5, 13]

    def test_faults_cli_accepts_jobs(self, capsys):
        from repro.__main__ import main

        code = main([
            "faults", "--suite", "malware", "--rates", "0,0.1",
            "--work", "8", "--jobs", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["rate"] for p in payload["curve"]["points"]] == [0.0, 0.1]
