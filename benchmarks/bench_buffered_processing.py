"""Extension — off-critical-path (buffered) tracking: §1's trade quantified.

    "…it is possible to move information-flow tracking off the critical
    path in the architecture, such that the load–store stream is buffered
    for delayed processing at a more convenient time (while trading
    prevention for detection, of course)."

The bench replays the LGRoot stream through a bounded FIFO and measures
both sink-check disciplines: blocking (prevention: drain, then answer)
and immediate (detection: answer from stale state, reconcile later).
"""

from repro.analysis.replay import replay_plan_for
from repro.core import PAPER_DEFAULT
from repro.core.buffered import BufferedPIFT


def _feed(buffered, recorded, check_mode: str):
    columns = recorded.trace.columns()
    verdicts = []
    for lo, hi, sources, checks in replay_plan_for(recorded).steps:
        buffered.on_columns(columns, lo, hi)
        if hi == len(columns):
            buffered.drain_all()
        for source in sources:
            buffered.taint_source(source.address_range, pid=source.pid)
        for check in checks:
            if check_mode == "blocking":
                verdicts.append(
                    buffered.check_blocking(check.address_range, pid=check.pid)
                )
            else:
                verdicts.append(buffered.check_immediate(
                    check.address_range, pid=check.pid,
                    sink_name=check.sink_name,
                ))
    return verdicts


def test_blocking_checks_preserve_prevention(benchmark, lgroot_trace):
    def run():
        buffered = BufferedPIFT(PAPER_DEFAULT, capacity=512, drain_batch=128)
        verdicts = _feed(buffered, lgroot_trace, "blocking")
        return buffered, verdicts

    buffered, verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = buffered.stats
    print(
        f"\nblocking discipline: {stats.blocking_checks} checks had to wait "
        f"for {stats.blocking_drain_events} buffered events in total; "
        f"max queue depth {stats.max_queue_depth}"
    )
    # Prevention semantics: the leak is flagged at the sink, synchronously.
    assert any(verdicts)
    assert stats.stale_negatives == 0


def test_immediate_checks_trade_prevention_for_detection(benchmark, lgroot_trace):
    def run():
        # A capacity larger than the trace tail keeps the flow in flight at
        # sink time — the worst case for prevention.
        buffered = BufferedPIFT(
            PAPER_DEFAULT, capacity=1_000_000, drain_batch=4096
        )
        verdicts = _feed(buffered, lgroot_trace, "immediate")
        return buffered, verdicts

    buffered, verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = buffered.stats
    print(
        f"\nimmediate discipline: {stats.immediate_checks} checks answered "
        f"from stale state; {stats.stale_negatives} would-be misses "
        f"reported late (max queue depth {stats.max_queue_depth})"
    )
    # Detection semantics: nothing is lost — every in-flight leak missed at
    # the sink surfaces as a late detection after the drain.
    missed_then_found = stats.stale_negatives
    assert (any(verdicts) and not missed_then_found) or missed_then_found > 0
    if missed_then_found:
        (late, *_) = buffered.late_detections
        print(
            f"late detection of {late.sink_name}: the answer lagged the CPU "
            f"by {late.events_behind} memory events"
        )


def test_small_buffer_bounds_staleness(benchmark, lgroot_trace):
    def run():
        buffered = BufferedPIFT(PAPER_DEFAULT, capacity=64, drain_batch=32)
        _feed(buffered, lgroot_trace, "immediate")
        return buffered

    buffered = benchmark.pedantic(run, rounds=1, iterations=1)
    # The FIFO watermark bounds how far taint state can lag the CPU.
    assert buffered.stats.max_queue_depth <= 64
    print(
        f"\ncapacity-64 FIFO: {buffered.stats.drains} drains, "
        f"{buffered.stats.events_drained} events, "
        f"{buffered.stats.stale_negatives} stale answers"
    )
