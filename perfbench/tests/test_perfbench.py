"""The benchmark's own tests, on the tiny (smoke) size of every workload.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = bench.WORKLOADS
_CACHE: dict = {}


def smoke(workload: str, seed: int = 1, trace: bool = False,
          references=None):
    """One smoke run; runs with the shipped references are cached."""
    key = (workload, seed, trace)
    if references is not None:
        return bench.run(workload, seed, 1, trace, smoke=True,
                         references=references)
    if key not in _CACHE:
        _CACHE[key] = bench.run(workload, seed, 1, trace, smoke=True)
    return _CACHE[key]


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        bench.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    outcome = smoke(workload, trace=trace)
    result = bench.result_line(outcome, trace)
    units = PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert result["correct"], outcome.checks.failures
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_traced_runs_report_their_layers():
    """Each workload's own layers read non-zero in its traced run."""
    own = {
        "suite_grid": ("sim.build_s", "isa.cpu_run_s", "sweep.run_cell_s",
                       "core.observe_columns_s", "grid_cells_per_s"),
        "malware_replay": ("store.get_runs_s", "store.decode_s",
                           "analysis.replay_coloured_s",
                           "telemetry.overhead_ratio",
                           "replay_sparse_events_per_s"),
        "serve_fleet": ("serve.decode_frame_s", "serve.ingest_s",
                        "serve.check_s", "core.observe_s",
                        "serve.daemon_cpu_share", "verdict_p99_ms"),
    }
    for workload, names in own.items():
        layers = smoke(workload, trace=True).layers
        for name in names:
            assert layers[name] > 0, (workload, name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_only_reorders_work(workload):
    """Per-run verdicts are identical under two seeds (run-interleaving
    invariance: the property serve sharding rests on)."""
    first = smoke(workload, seed=1).verdicts
    second = smoke(workload, seed=2).verdicts
    assert first and first == second


def _corrupt(workload: str, directory: Path) -> None:
    if workload == "suite_grid":
        path = directory / "suite_grid.json"
        data = json.loads(path.read_text())
        data["cells"]["0"]["report"]["true_positives"] += 1
    elif workload == "malware_replay":
        path = directory / "malware_replay_w16.json"
        data = json.loads(path.read_text())
        entry = data["plain"]["LGRoot|ni13|nt3"]
        entry["outcomes"][0][4] = not entry["outcomes"][0][4]
    else:
        path = directory / "serve_fleet.json"
        data = json.loads(path.read_text())
        rows = next(rows for rows in data["truth"].values() if rows)
        rows[0][4] = not rows[0][4]
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_reports_failures(workload, tmp_path):
    references = tmp_path / "references"
    shutil.copytree(HERE / "references", references)
    _corrupt(workload, references)
    outcome = smoke(workload, references=references)
    result = bench.result_line(outcome, False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["passed_ratio"]["value"] < 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    starts, ends = list(tracer.starts), list(tracer.ends)
    summary = tracer.summary()["all"]
    outer, inner, leaf = (ends[i] - starts[i] for i in range(3))
    assert summary["outer"]["self_s"] == pytest.approx(outer - inner)
    assert summary["inner"]["self_s"] == pytest.approx(inner - leaf)
    assert summary["leaf"]["self_s"] == pytest.approx(leaf)
    assert summary["outer"]["calls"] == 1
