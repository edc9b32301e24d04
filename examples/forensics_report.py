#!/usr/bin/env python3
"""Forensics: who leaked what, and what does off-critical-path cost?

Two library extensions built on the paper's machinery:

1. **Provenance** — one Algorithm-1 instance per source label (the
   multi-bit-tag idea of the paper's §6 relatives) attributes each
   malware sample's leak to the exact sources it stole.
2. **Buffered tracking** — the paper's §1 aside: buffering the load/store
   stream moves PIFT off the critical path "while trading prevention for
   detection".  The demo shows the same leak caught synchronously with a
   blocking sink check, and caught *late* with an immediate one.

Run:  python examples/forensics_report.py
"""

from repro.core import PAPER_DEFAULT
from repro.core.buffered import BufferedPIFT
from repro.analysis.replay import replay_plan_for, replay_with_provenance
from repro.apps.malware import SAMPLES, run_sample


def provenance_section() -> None:
    print("1. per-source attribution (NI=13, NT=3)")
    print(f"   {'sample':<13}{'declared':<42}attributed by PIFT")
    for sample in SAMPLES:
        device = run_sample(sample, PAPER_DEFAULT, work=8)
        outcomes = replay_with_provenance(device.recorded, PAPER_DEFAULT)
        leaked = sorted(set().union(*outcomes.values())) if outcomes else []
        short = [name.split(".")[-1] for name in leaked]
        print(f"   {sample.name:<13}{','.join(sample.steals):<42}"
              f"{', '.join(short)}")


def buffering_section() -> None:
    print("\n2. off-critical-path tracking (LGRoot, 512-entry FIFO)")
    sample = SAMPLES[0]
    device = run_sample(sample, PAPER_DEFAULT, work=48)
    recorded = device.recorded

    for mode in ("blocking", "immediate"):
        buffered = BufferedPIFT(
            PAPER_DEFAULT,
            capacity=512 if mode == "blocking" else 1_000_000,
            drain_batch=128,
        )
        columns = recorded.trace.columns()
        verdicts = []
        for lo, hi, sources, checks in replay_plan_for(recorded).steps:
            buffered.on_columns(columns, lo, hi)
            if hi == len(columns):
                buffered.drain_all()
            for source in sources:
                buffered.taint_source(source.address_range, pid=source.pid)
            for check in checks:
                if mode == "blocking":
                    verdicts.append(buffered.check_blocking(
                        check.address_range, pid=check.pid))
                else:
                    verdicts.append(buffered.check_immediate(
                        check.address_range, pid=check.pid,
                        sink_name=check.sink_name))
        buffered.drain_all()
        stats = buffered.stats
        if mode == "blocking":
            print(f"   blocking check : leak flagged at the sink = "
                  f"{any(verdicts)} (prevention); the check waited for "
                  f"{stats.blocking_drain_events} buffered events")
        else:
            print(f"   immediate check: leak flagged at the sink = "
                  f"{any(verdicts)}; late detections = "
                  f"{stats.stale_negatives} (detection, not prevention)")
            for late in buffered.late_detections:
                print(f"     -> {late.sink_name} surfaced "
                      f"{late.events_behind} memory events after the send")


def main() -> None:
    provenance_section()
    buffering_section()


if __name__ == "__main__":
    main()
