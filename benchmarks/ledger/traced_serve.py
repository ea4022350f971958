"""``repro serve`` with the ledger's layer wrappers, switched by signal.

Usage: ``python benchmarks/ledger/traced_serve.py TOTALS.json serve [FLAGS...]``

Runs the real CLI entry point with the same wrappers an in-process
traced run uses: SIGUSR1 installs them, SIGUSR2 removes them (they start
removed), so the ledger can alternate traced and untraced slices of one
server's run.  When the server drains (SIGTERM) and returns, the
per-layer totals, counters and span log are written to ``TOTALS.json``.
``src`` must be importable (``PYTHONPATH``).
"""

from __future__ import annotations

import json
import signal
import sys

from layers import LayerTracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    tracer = LayerTracer()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.install())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.uninstall())
    try:
        return repro_main(argv[1:])
    finally:
        tracer.uninstall()
        with open(argv[0], "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
