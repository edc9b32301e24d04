"""``repro serve`` with the serve-layer spans installed.

Usage: ``python perfbench/traced_serve.py SUMMARY.json [serve flags]``.
Installs the wrappers of :func:`layers.install_serve_layers`, then runs
the daemon through the same CLI entry point users run, so router and
server are built exactly as ``python -m repro serve`` builds them.  On
shutdown it writes the tracer summary to ``SUMMARY.json`` and the raw
spans next to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import install_serve_layers
from tracing import Tracer


def main(argv) -> int:
    summary_path = Path(argv[0])
    tracer = Tracer()
    install_serve_layers(tracer)
    from repro.__main__ import main as repro_main

    code = repro_main(["serve", *argv[1:]])
    tracer.uninstall()
    tracer.dump(summary_path.with_suffix(".npz"))
    summary_path.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
