"""Write the reference outputs every benchmark run is checked against.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_references.py

References are per run (and per cell), never per seed: the seed only
reorders work.  Regenerate them only on purpose, from a commit whose
verdicts are known good, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    GRID_CAPS, GRID_WINDOWS, REFERENCES, REPLAY_CONFIGS, fingerprint,
    outcome_rows, stats_row,
)
from fleet import SERVE_MALWARE_WORK  # noqa: E402
from workloads import (  # noqa: E402
    MALWARE_WORK, SMOKE_MALWARE_WORK, _canonical_cell,
)


def write(name: str, payload: dict) -> None:
    REFERENCES.mkdir(parents=True, exist_ok=True)
    path = REFERENCES / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=0) + "\n")
    print(f"wrote {path}")


def main() -> None:
    from repro.analysis.degradation import record_malware_runs
    from repro.analysis.replay import replay, replay_coloured
    from repro.apps.droidbench import record_suite
    from repro.core import PIFTConfig
    from repro.sweep import GridSpec, TraceCache, run_sweep

    droidbench = record_suite()
    recordings = {run.name: fingerprint(run.recorded) for run in droidbench}
    grid = run_sweep(
        GridSpec(window_sizes=GRID_WINDOWS, propagation_caps=GRID_CAPS),
        cache=TraceCache(droidbench=droidbench),
    )
    write("suite_grid.json", {
        "recordings": recordings,
        "cells": {str(cell.index): _canonical_cell(cell.as_dict())
                  for cell in grid.cells},
    })

    malware = {}
    for work in sorted({MALWARE_WORK, SMOKE_MALWARE_WORK,
                        SERVE_MALWARE_WORK}):
        runs = record_malware_runs(work=work)
        malware[work] = runs
        payload = {
            "recordings": {run.name: fingerprint(run.recorded)
                           for run in runs},
            "plain": {}, "coloured": {},
        }
        for run in runs:
            for ni, nt in REPLAY_CONFIGS:
                label = f"{run.name}|ni{ni}|nt{nt}"
                for mode, replayer in (("plain", replay),
                                       ("coloured", replay_coloured)):
                    result = replayer(run.recorded, PIFTConfig(ni, nt))
                    payload[mode][label] = {
                        "outcomes": outcome_rows(result),
                        "stats": stats_row(result),
                    }
        write(f"malware_replay_w{work}.json", payload)

    streamed = droidbench + malware[SERVE_MALWARE_WORK]
    serve_config = PIFTConfig(13, 3)
    write("serve_fleet.json", {
        "recordings": {run.name: fingerprint(run.recorded)
                       for run in streamed},
        "truth": {run.name: outcome_rows(replay(run.recorded, serve_config))
                  for run in streamed},
    })


if __name__ == "__main__":
    main()
