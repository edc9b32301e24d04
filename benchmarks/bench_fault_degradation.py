"""Extension — graceful degradation under deterministic fault injection.

The paper evaluates PIFT on a lossless simulator; a hardware deployment
faces a lossy one.  This bench sweeps the event-loss rate (and, in full
mode, other fault sites) against the DroidBench suite and the malware
samples, producing the accuracy-vs-fault-rate curve and the
detection-latency-under-loss table.

Runnable two ways:

* under pytest-benchmark (tier-2): ``pytest benchmarks/bench_fault_degradation.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_fault_degradation.py
  [--smoke] [--json out.json]`` — tier-1
  ``tests/unit/test_faults.py`` runs ``--smoke``.
"""

import argparse
import json
import sys

from repro.core import PAPER_DEFAULT, OverflowPolicy, PIFTConfig
from repro.analysis.degradation import (
    DEFAULT_RATES,
    degradation_curve,
    detection_latency_table,
    record_malware_runs,
)

#: Reduced sweep for the smoke mode: fewer rates and apps.
SMOKE_RATES = (0.0, 1e-2, 1e-1)

#: Rates harsh enough to actually bend the accuracy curve (full mode).
EXTREME_RATES = (0.0, 1e-1, 0.3, 0.5, 0.8)

SEED = 1


def build_curve(apps, rates=DEFAULT_RATES, config=PAPER_DEFAULT, work=16):
    """The acceptance artifact: accuracy + malware detections per rate."""
    return degradation_curve(
        apps,
        config,
        rates=rates,
        seed=SEED,
        site="event_loss",
        malware_runs=record_malware_runs(work=work),
    )


# -- pytest-benchmark entry points ------------------------------------------


def test_droidbench_degradation_curve(benchmark, suite_runs):
    """Accuracy at (13, 3) is monotone non-increasing in the loss rate."""
    curve = benchmark.pedantic(
        lambda: build_curve(suite_runs), rounds=1, iterations=1
    )
    accuracies = [p.accuracy for p in curve.points]
    print("\naccuracy over loss rates "
          f"{[p.rate for p in curve.points]}: {accuracies}")
    assert curve.accuracy_non_increasing()
    # Loss rate 0 reproduces the paper's 98% headline cell exactly.
    assert curve.points[0].rate == 0.0
    assert curve.points[0].accuracy > 0.98
    assert curve.points[0].fault_stats.total_injections == 0
    # All seven malware samples are detected on the lossless path.
    assert curve.points[0].malware_detected == curve.points[0].malware_total == 7
    assert curve.malware_non_increasing()
    benchmark.extra_info["curve"] = json.dumps(curve.as_dict())


def test_degradation_is_deterministic(benchmark, suite_runs):
    """The same seed reproduces the curve bit-for-bit."""
    def both():
        kwargs = dict(rates=(0.0, 1e-2, 1e-1), seed=SEED)
        return (
            degradation_curve(suite_runs, PAPER_DEFAULT, **kwargs),
            degradation_curve(suite_runs, PAPER_DEFAULT, **kwargs),
        )

    first, second = benchmark.pedantic(both, rounds=1, iterations=1)
    assert first.as_dict() == second.as_dict()


def test_extreme_loss_actually_degrades(benchmark, suite_runs):
    """Past ~10% loss, accuracy visibly decays — the curve is not vacuous."""
    curve = benchmark.pedantic(
        lambda: degradation_curve(
            suite_runs, PAPER_DEFAULT, rates=EXTREME_RATES, seed=SEED
        ),
        rounds=1,
        iterations=1,
    )
    assert curve.accuracy_non_increasing()
    assert curve.points[-1].accuracy < curve.points[0].accuracy
    print("\nextreme-loss accuracy: "
          f"{[(p.rate, round(p.accuracy, 3)) for p in curve.points]}")


def test_detection_latency_under_loss(benchmark, lgroot_trace):
    """The buffered design point's latency table under rising loss.

    BLOCK never force-drops, so any degradation in these rows comes from
    the injected event loss alone — the lossless row must be clean.
    """
    rows = benchmark.pedantic(
        lambda: detection_latency_table(
            lgroot_trace,
            PAPER_DEFAULT,
            rates=SMOKE_RATES,
            seed=SEED,
            policy=OverflowPolicy.BLOCK,
            capacity=128,
            drain_batch=32,
        ),
        rounds=1,
        iterations=1,
    )
    assert [row.rate for row in rows] == list(SMOKE_RATES)
    assert rows[0].forced_drops == 0 and rows[0].degraded_checks == 0
    assert rows[0].missed == 0
    # At 10% loss the run certainly lost events: checks carry the flag.
    assert rows[-1].degraded_checks >= 1
    for row in rows:
        print(f"\n{row.as_dict()}")
    benchmark.extra_info["latency"] = json.dumps(
        [row.as_dict() for row in rows]
    )


# -- standalone mode ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT fault-degradation sweep (standalone mode)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep (fewer apps and rates)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the curve JSON to this file")
    args = parser.parse_args(argv)

    from repro.apps.droidbench import all_apps, record_suite

    if args.smoke:
        apps = record_suite(all_apps()[:12])
        rates = SMOKE_RATES
    else:
        apps = record_suite()
        rates = DEFAULT_RATES

    curve = build_curve(apps, rates=rates)
    latency = detection_latency_table(
        record_malware_runs(work=16)[0].recorded,
        PAPER_DEFAULT,
        rates=rates,
        seed=SEED,
        policy=OverflowPolicy.DROP_OLDEST,
        capacity=128,
        drain_batch=32,
    )
    payload = {
        "mode": "smoke" if args.smoke else "full",
        "curve": curve.as_dict(),
        "latency": [row.as_dict() for row in latency],
        "accuracy_non_increasing": curve.accuracy_non_increasing(),
        "malware_non_increasing": curve.malware_non_increasing(),
    }
    print(json.dumps(payload, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    ok = (
        curve.accuracy_non_increasing()
        and curve.points[0].malware_detected == curve.points[0].malware_total
    )
    if not args.smoke:
        ok = ok and curve.points[0].accuracy > 0.98
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
