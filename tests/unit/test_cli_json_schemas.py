"""Schema freeze for the ``sweep`` and ``faults`` CLI ``--json`` output.

Downstream tooling (the CI smoke checks, notebook loaders, the perf
history) parses these documents; these tests pin the key structure so a
refactor can't silently rename or drop fields.  Small grids / low work
keep them tier-1 fast.
"""

import json

import pytest

from repro.__main__ import main


_CACHE = {}


def run_json(capsys, argv):
    key = tuple(argv)
    if key not in _CACHE:
        capsys.readouterr()  # drop anything a previous call left buffered
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        # Every --json document must round-trip through the json module
        # (no NaN/Inf literals, no non-string keys).
        json.loads(json.dumps(payload, allow_nan=False))
        _CACHE[key] = payload
    return _CACHE[key]


class TestSweepJson:
    ARGS = ["sweep", "--windows", "5,13", "--caps", "2,3", "--json"]

    def test_top_level_schema(self, capsys):
        payload = run_json(capsys, self.ARGS)
        assert payload["command"] == "sweep"
        assert {"site", "seed", "cells", "timings"} <= payload.keys()
        assert len(payload["cells"]) == 4

    def test_cell_schema(self, capsys):
        payload = run_json(capsys, self.ARGS)
        for cell in payload["cells"]:
            assert {
                "index", "ni", "nt", "untainting", "vectorized", "rate",
                "site", "seed", "state_spec", "events_tracked",
                "operations", "faults", "accuracy", "report",
            } <= cell.keys()
            report = cell["report"]
            assert {
                "true_positives", "false_positives",
                "true_negatives", "false_negatives",
            } <= report.keys()
            assert 0.0 <= cell["accuracy"] <= 1.0

    def test_timings_schema(self, capsys):
        payload = run_json(capsys, self.ARGS)
        timings = payload["timings"]
        assert {
            "jobs", "wall_seconds", "cells", "events_tracked", "workers",
            "replays_reused",
        } <= timings.keys()
        assert timings["cells"] == 4
        for worker in timings["workers"].values():
            assert {
                "cells", "events", "busy_seconds", "events_per_second",
            } <= worker.keys()

    def test_vectorized_flag_round_trips(self, capsys):
        on = run_json(capsys, self.ARGS)
        off = run_json(capsys, self.ARGS + ["--no-vectorized"])
        assert all(c["vectorized"] for c in on["cells"])
        assert not any(c["vectorized"] for c in off["cells"])
        # Execution strategy must not leak into results: same cells
        # modulo the flag itself and wall-clock bookkeeping.
        def essence(payload):
            return json.dumps(
                [
                    {k: v for k, v in cell.items() if k != "vectorized"}
                    for cell in payload["cells"]
                ],
                sort_keys=True,
            )

        assert essence(on) == essence(off)


class TestFaultsJson:
    ARGS = [
        "faults", "--suite", "malware", "--rates", "0,1e-1",
        "--work", "8", "--json",
    ]

    def test_top_level_schema(self, capsys):
        payload = run_json(capsys, self.ARGS)
        assert payload["command"] == "faults"
        assert {
            "config", "site", "seed", "base_rates", "policy",
            "curve", "accuracy_non_increasing", "latency",
        } <= payload.keys()
        assert payload["config"]["vectorized"] is True

    def test_curve_schema(self, capsys):
        payload = run_json(capsys, self.ARGS)
        points = payload["curve"]["points"]
        assert [p["rate"] for p in points] == [0.0, 0.1]
        for point in points:
            assert {"rate", "faults"} <= point.keys()
            assert "total_injections" in point["faults"]
        # Rate 0 must be fault-free.
        assert points[0]["faults"]["total_injections"] == 0

    def test_latency_schema(self, capsys):
        payload = run_json(capsys, self.ARGS)
        assert [row["rate"] for row in payload["latency"]] == [0.0, 0.1]
        for row in payload["latency"]:
            assert {
                "rate", "late_detections", "mean_events_behind",
                "max_events_behind", "missed", "forced_drops",
                "degraded_checks",
            } <= row.keys()

    def test_no_vectorized_escape_hatch(self, capsys):
        payload = run_json(capsys, self.ARGS + ["--no-vectorized"])
        assert payload["config"]["vectorized"] is False


class TestStoreJson:
    """Schema freeze for ``repro store stats --json`` and the ``store``
    block the sweep/faults documents grow under ``--store``."""

    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("cli-store"))

    def test_stats_schema_on_fresh_store(self, capsys, store_dir):
        capsys.readouterr()
        assert main(["store", "stats", "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "store-stats"
        assert set(payload) >= {
            "command", "root", "store_version", "entries", "payload_bytes",
            "kinds", "quarantined", "journals", "counters",
        }
        assert payload["entries"] == 0
        assert set(payload["counters"]) == {
            "hits", "misses", "writes", "corruptions",
        }

    GRID = ["sweep", "--windows", "5,13", "--caps", "2,3"]

    def test_sweep_store_block_schema(self, capsys, store_dir):
        """Record once ever: a warm store performs zero recordings."""
        argv = self.GRID + ["--store", store_dir, "--json"]
        capsys.readouterr()
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["store"]) == {
            "root", "run_id", "resumed_cells", "recordings", "store_hits",
        }
        assert payload["store"]["root"] == store_dir
        assert payload["store"]["recordings"] == 1

        # Second run against the same store: zero recordings, same cells.
        capsys.readouterr()
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["store"]["recordings"] == 0
        assert warm["store"]["store_hits"] >= 1
        assert json.dumps(warm["cells"], sort_keys=True) == json.dumps(
            payload["cells"], sort_keys=True
        )

    def test_resume_after_a_hard_kill_is_byte_identical(
        self, capsys, tmp_path
    ):
        """A sweep killed by ``os._exit`` after its first cell resumes from
        its journal: one cell spliced, no recording, and the cells print
        byte-identical to an uninterrupted run.  The resumed run starts
        with an empty replay table, so this covers reuse after a crash."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        store_dir = str(tmp_path / "store")
        child = (
            "import os, sys\n"
            "from repro.store import ArtifactStore, RunJournal\n"
            "from repro.sweep import GridSpec, TraceCache, run_sweep\n"
            "store = ArtifactStore(sys.argv[1])\n"
            "cells = list(GridSpec(window_sizes=(5, 13),\n"
            "                      propagation_caps=(2, 3)).cells())\n"
            "journal = RunJournal.create(store.journal_path('killed'),\n"
            "                            cells, 'killed')\n"
            "def kill(result, done, total):\n"
            "    if done == 1:\n"
            "        os._exit(3)\n"
            "run_sweep(cells, cache=TraceCache(backing_store=store),\n"
            "          journal=journal, progress=kill)\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", child, store_dir], env=env, timeout=300,
        )
        assert done.returncode == 3

        capsys.readouterr()
        assert main(self.GRID + [
            "--store", store_dir, "--resume", "killed", "--json",
        ]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["store"]["resumed_cells"] == 1
        assert resumed["store"]["recordings"] == 0
        assert main(self.GRID + ["--store", store_dir, "--json"]) == 0
        uninterrupted = json.loads(capsys.readouterr().out)
        assert json.dumps(resumed["cells"]) == json.dumps(
            uninterrupted["cells"]
        )

    def test_report_and_trace_out_schemas(self, capsys, tmp_path):
        """Schema freeze for ``repro report --json`` and ``--trace-out``,
        on a telemetered ``--jobs 4`` sweep: the trace is
        Perfetto-loadable and covers every cell on dispatcher-worker
        tracks, and the report reconstructs the run from the journal and
        its stream."""
        from repro.telemetry import validate_chrome_trace

        store_dir = str(tmp_path / "report-store")
        trace_path = tmp_path / "run.trace.json"
        capsys.readouterr()
        assert main([
            "sweep", "--windows", "3,5,13,20", "--caps", "2,3",
            "--jobs", "4", "--store", store_dir, "--run-id", "run-smoke",
            "--trace-out", str(trace_path), "--stall-timeout", "120",
            "--json",
        ]) == 0
        sweep_payload = json.loads(capsys.readouterr().out)
        assert sweep_payload["trace_out"] == str(trace_path)

        # validate_chrome_trace checks the required keys (name/ph/ts/
        # pid/tid), non-negative monotonic timestamps per tid, and dur
        # on complete events: the invariants Perfetto's loader needs.
        document = json.loads(trace_path.read_text())
        summary = validate_chrome_trace(document)
        assert summary["spans"] >= 8  # one sweep.cell span per cell
        assert document["otherData"]["run_id"] == "run-smoke"
        cell_spans = [
            event for event in document["traceEvents"]
            if event.get("name") == "sweep.cell" and event["ph"] == "X"
        ]
        assert {
            event["args"].get("cell_index") for event in cell_spans
        } == set(range(8))
        # Every span sits on a dispatcher worker's track; how many of
        # the 4 workers win cells depends on the host's cores, so only
        # genuine cross-process coverage is required.
        tids = {event["tid"] for event in cell_spans}
        assert tids <= {1, 2, 3, 4} and len(tids) >= 2, tids

        capsys.readouterr()
        assert main([
            "report", "run-smoke", "--store", store_dir, "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "report"
        assert {
            "run_id", "fingerprint", "cells_total", "cells_completed",
            "wall_seconds", "per_cell", "per_worker", "slowest_cells",
            "telemetry",
        } <= report.keys()
        assert report["run_id"] == "run-smoke"
        assert report["cells_completed"] == report["cells_total"] == 8
        assert 2 <= len(report["per_worker"]) <= 4, report["per_worker"]
        for row in report["per_cell"]:
            assert {
                "index", "ni", "nt", "rate", "site", "accuracy",
                "events_tracked", "operations", "duration_seconds",
                "worker",
            } <= row.keys()
        for worker in report["per_worker"].values():
            assert {
                "pid", "worker_id", "cells", "events_tracked",
                "busy_seconds", "utilization",
            } <= worker.keys()
        assert {
            "events", "cell_spans", "heartbeats", "stalls",
            "store_hits", "store_misses",
        } <= report["telemetry"].keys()
        assert report["telemetry"]["cell_spans"] == 8

        # Human form renders without a telemetry/store requirement.
        capsys.readouterr()
        assert main(["report", "run-smoke", "--store", store_dir]) == 0
        human = capsys.readouterr().out
        assert "per-worker:" in human and "slowest cells:" in human

    def test_report_unknown_run_exits_with_known_ids(self, capsys, store_dir):
        with pytest.raises(SystemExit, match="runs in this store"):
            main(["report", "no-such-run", "--store", store_dir])

    def test_verify_and_prune_schemas(self, capsys, store_dir):
        capsys.readouterr()
        assert main(["store", "verify", "--store", store_dir, "--json"]) == 0
        verify = json.loads(capsys.readouterr().out)
        assert set(verify) >= {
            "command", "checked", "corrupt", "digests", "quarantined",
        }
        assert verify["corrupt"] == 0
        assert verify["quarantined"] == 0

        capsys.readouterr()
        assert main(["store", "prune", "--store", store_dir, "--json"]) == 0
        prune = json.loads(capsys.readouterr().out)
        assert set(prune) >= {
            "command", "removed_entries", "quarantine_files_removed",
            "removed_bytes",
        }

    def test_verify_exits_nonzero_on_corruption(self, capsys, tmp_path):
        """``repro store verify`` must fail loudly (exit 1) when any
        entry is corrupt or sitting in quarantine — CI gates on it."""
        from pathlib import Path

        store_dir = str(tmp_path / "bad-store")
        capsys.readouterr()
        assert main([
            "sweep", "--windows", "5", "--caps", "2",
            "--store", store_dir, "--json",
        ]) == 0
        capsys.readouterr()
        payload_path = next(Path(store_dir).glob("objects/*/*.suite.gz"))
        payload_path.write_bytes(b"garbage")

        assert main(["store", "verify", "--store", store_dir]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        # The corrupt entry is now quarantined; verify keeps failing
        # until the quarantine is inspected and pruned.
        capsys.readouterr()
        assert main(["store", "verify", "--store", store_dir, "--json"]) == 1
        second = json.loads(capsys.readouterr().out)
        assert second["corrupt"] == 0 and second["quarantined"] == 2
        assert main(["store", "prune", "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--store", store_dir]) == 0


class TestQueueBackendCli:
    """The dispatcher flag family on ``sweep --jobs N``."""

    ARGS = ["sweep", "--windows", "5,13", "--caps", "2,3", "--json"]

    def test_queue_backend_matches_pool_cells(self, capsys):
        serial = run_json(capsys, self.ARGS)
        queued = run_json(capsys, self.ARGS + ["--jobs", "2"])
        assert json.dumps(queued["cells"], sort_keys=True) == json.dumps(
            serial["cells"], sort_keys=True
        )
        assert queued["poisoned"] == []
        timings = queued["timings"]
        assert timings["jobs"] == 2
        assert {"retries", "worker_deaths", "worker_restarts", "poisoned"} <= (
            timings.keys()
        )
        assert timings["worker_deaths"] == 0

    def test_chaos_survives_bit_identical(self, capsys):
        serial = run_json(capsys, self.ARGS)
        chaotic = run_json(capsys, self.ARGS + [
            "--jobs", "2",
            "--lease-timeout", "5", "--chaos", "kill-workers:0.3",
            "--chaos-seed", "1",
        ])
        assert json.dumps(chaotic["cells"], sort_keys=True) == json.dumps(
            serial["cells"], sort_keys=True
        )
        assert chaotic["poisoned"] == []
        assert chaotic["timings"]["worker_deaths"] > 0

    def test_poisoned_cells_surface_in_json_and_stderr(self, capsys):
        capsys.readouterr()
        assert main(self.ARGS + [
            "--jobs", "2", "--max-retries", "0",
            "--chaos", "fail-cells:1", "--chaos-seed", "7",
        ]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["cells"] == []
        assert len(payload["poisoned"]) == 4
        for cell in payload["poisoned"]:
            assert {"index", "attempts", "error"} <= cell.keys()
        assert "poisoned after 1 attempts" in captured.err

    def test_chaos_requires_queue_backend(self):
        """The dispatcher runs only at ``--jobs`` above 1; ``--chaos``
        at ``--jobs 1`` is refused, not dropped."""
        with pytest.raises(SystemExit, match="--jobs above 1"):
            main(self.ARGS + ["--chaos", "kill-workers:0.2"])

    @pytest.mark.parametrize("flags", [
        ["--lease-timeout", "5"],
        ["--max-retries", "0"],
        ["--max-worker-restarts", "2"],
        ["--stall-timeout", "5"],
    ], ids=["lease-timeout", "max-retries", "max-worker-restarts",
            "stall-timeout"])
    def test_dispatcher_flags_require_jobs_above_1(self, flags):
        with pytest.raises(SystemExit, match="--jobs above 1"):
            main(self.ARGS + flags)

    def test_faults_stall_timeout_requires_jobs_above_1(self):
        """``faults`` runs its sweep on the same dispatcher, so its
        ``--stall-timeout`` is refused at ``--jobs 1`` too."""
        with pytest.raises(SystemExit, match="--jobs above 1"):
            main(["faults", "--suite", "malware", "--stall-timeout", "5"])

    def test_bad_chaos_spec_rejected(self):
        with pytest.raises(SystemExit, match="--chaos: "):
            main(self.ARGS + [
                "--jobs", "2", "--chaos", "explode-everything:1",
            ])


class TestColourJson:
    """Schema freeze for the colour-attribution blocks: ``suite
    --colours``, the ``provenance`` subcommand, ``sweep --colours``
    cells, and the run report's ``colour_attribution`` fold."""

    COLOUR_ROW_KEYS = {"colour", "apps", "app_count", "sink_hits", "channels"}
    ATTRIBUTION_KEYS = {
        "window_size", "max_propagations", "attributed_sink_hits",
        "colours", "apps",
    }

    def _assert_attribution_schema(self, attribution):
        assert self.ATTRIBUTION_KEYS <= attribution.keys()
        assert attribution["attributed_sink_hits"] > 0
        for row in attribution["colours"]:
            assert self.COLOUR_ROW_KEYS <= row.keys()
            assert row["app_count"] == len(row["apps"])
            assert row["sink_hits"] >= sum(row["channels"].values()) > 0
        for app in attribution["apps"]:
            assert {
                "app", "category", "leaks", "alarm", "colours", "sink_hits",
            } <= app.keys()
            for hit in app["sink_hits"]:
                assert {
                    "sink", "channel", "index", "pid", "colours",
                } <= hit.keys()

    def test_suite_colours_block_schema(self, capsys):
        plain = run_json(capsys, ["suite", "--json"])
        coloured = run_json(capsys, ["suite", "--colours", "--json"])
        assert "colours" not in plain
        self._assert_attribution_schema(coloured["colours"])
        assert coloured["colours"]["colours"], "no colour attributed a hit"
        # Attribution is a second pass, never a second opinion: the
        # verdict payload is byte-identical with and without it.
        assert json.dumps(plain["report"], sort_keys=True) == json.dumps(
            coloured["report"], sort_keys=True
        )

    def test_provenance_schema(self, capsys):
        payload = run_json(capsys, ["provenance", "--json"])
        assert payload["command"] == "provenance"
        assert {"ni", "nt", "untainting"} <= payload["config"].keys()
        self._assert_attribution_schema(payload)

    def test_sweep_colours_cell_schema(self, capsys):
        plain = run_json(
            capsys, ["sweep", "--windows", "5,13", "--caps", "2", "--json"]
        )
        coloured = run_json(
            capsys,
            ["sweep", "--windows", "5,13", "--caps", "2", "--colours",
             "--json"],
        )
        assert all("colours" not in cell for cell in plain["cells"])
        for cell in coloured["cells"]:
            self._assert_attribution_schema(cell["colours"])
        # The colours key is additive: everything else is unchanged.
        def essence(payload):
            return json.dumps(
                [
                    {k: v for k, v in cell.items() if k != "colours"}
                    for cell in payload["cells"]
                ],
                sort_keys=True,
            )

        assert essence(plain) == essence(coloured)

    def test_report_colour_attribution_schema(self, capsys, tmp_path):
        store_dir = str(tmp_path / "colour-store")
        capsys.readouterr()
        assert main([
            "sweep", "--windows", "5,13", "--caps", "2", "--colours",
            "--store", store_dir, "--run-id", "run-colours", "--json",
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", "run-colours", "--store", store_dir, "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        attribution = report["colour_attribution"]
        assert attribution["cells"] == 2
        assert attribution["colours"], "empty attribution table"
        for row in attribution["colours"]:
            assert {"colour", "apps", "sink_hits"} <= row.keys()
            assert row["sink_hits"] > 0
        capsys.readouterr()
        assert main(["report", "run-colours", "--store", store_dir]) == 0
        human = capsys.readouterr().out
        assert "leak attribution (2 coloured cells):" in human

    def test_plain_report_has_no_attribution(self, capsys, tmp_path):
        store_dir = str(tmp_path / "plain-store")
        capsys.readouterr()
        assert main([
            "sweep", "--windows", "5", "--caps", "2",
            "--store", store_dir, "--run-id", "run-plain", "--json",
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", "run-plain", "--store", store_dir, "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["colour_attribution"] is None
        capsys.readouterr()
        assert main(["report", "run-plain", "--store", store_dir]) == 0
        assert "leak attribution" not in capsys.readouterr().out
