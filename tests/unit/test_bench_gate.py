"""Unit tests for the benchmark history store, the perf-regression gate,
and the gate scripts' ``--help``.

The benchmark itself (``benchmarks/bench_sweep_scaling.py``) is tier-2;
the bookkeeping it gates CI on — history parsing, the median baseline,
and the >25% regression rule — is plain logic and belongs in tier-1.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).parent.parent.parent / "benchmarks"

#: Gate scripts whose help text renders a percentage, which argparse
#: reads as a format character unless it is escaped as ``%%``.
GATE_SCRIPTS = (
    "bench_sweep_scaling",
    "bench_tracker_throughput",
    "bench_label_overhead",
    "bench_relay_overhead",
    "bench_serve_fleet",
)


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, _BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_script("bench_sweep_scaling")


def write_history(path, speedups):
    with open(path, "w", encoding="utf-8") as fh:
        for s in speedups:
            fh.write(json.dumps({"vectorized_speedup": s}) + "\n")


class TestHistory:
    def test_missing_file_is_empty(self, bench, tmp_path):
        assert bench.load_history(tmp_path / "absent.jsonl") == []

    def test_roundtrip(self, bench, tmp_path):
        path = tmp_path / "h.jsonl"
        bench.append_history(path, {"vectorized_speedup": 7.5, "mode": "full"})
        bench.append_history(path, {"vectorized_speedup": 8.0, "mode": "full"})
        records = bench.load_history(path)
        assert [r["vectorized_speedup"] for r in records] == [7.5, 8.0]

    def test_malformed_and_foreign_lines_skipped(self, bench, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            "not json\n"
            '{"some_other_tool": 1}\n'
            "\n"
            '{"vectorized_speedup": 6.0}\n',
            encoding="utf-8",
        )
        records = bench.load_history(path)
        assert [r["vectorized_speedup"] for r in records] == [6.0]


class TestBaseline:
    def test_median_odd(self, bench, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(path, [5.0, 50.0, 8.0])
        assert bench.baseline_speedup(bench.load_history(path)) == 8.0

    def test_median_even(self, bench, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(path, [6.0, 10.0])
        assert bench.baseline_speedup(bench.load_history(path)) == 8.0


class TestGate:
    def test_no_history_always_ok(self, bench):
        ok, baseline = bench.check_regression([], 1.0)
        assert ok and baseline is None

    def test_within_tolerance_ok(self, bench):
        history = [{"vectorized_speedup": 10.0}]
        # 25% tolerance: 7.5x against a 10x baseline still passes...
        ok, baseline = bench.check_regression(history, 7.5)
        assert ok and baseline == 10.0

    def test_regression_fails(self, bench):
        history = [{"vectorized_speedup": 10.0}]
        # ...but anything below does not.
        ok, _ = bench.check_regression(history, 7.4)
        assert not ok

    def test_median_resists_noisy_outlier(self, bench):
        history = [{"vectorized_speedup": s} for s in (9.0, 10.0, 2.0)]
        ok, baseline = bench.check_regression(history, 8.0)
        assert ok and baseline == 9.0

    def test_tolerance_constant(self, bench):
        assert bench.REGRESSION_TOLERANCE == 0.25


@pytest.mark.parametrize("name", GATE_SCRIPTS)
def test_help_renders(name, capsys):
    """``--help`` prints usage and exits 0: a bare ``%`` in a help string
    would make argparse raise instead."""
    with pytest.raises(SystemExit) as exited:
        load_script(name).main(["--help"])
    assert exited.value.code == 0
    assert "--gate" in capsys.readouterr().out
