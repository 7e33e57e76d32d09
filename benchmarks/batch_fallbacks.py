"""Count the batch engine's outcomes over one ``repro`` command.

Every ``MpiWorld.run`` that asked for the batch engine either engaged
it or fell back with a reason code (``RunResult.fallback_reason``).
This script runs a CLI command in-process, tallies those outcomes as
the ``sim.batch.engaged`` / ``sim.batch.fallback.<code>`` counters, and
prints the per-reason table after the command's own output.  Grid jobs
must run in this process, so leave ``--jobs`` at its serial default.

Usage::

    PYTHONPATH=src python benchmarks/batch_fallbacks.py figures all --engine batch --no-cache
    PYTHONPATH=src python benchmarks/batch_fallbacks.py verify --campaign batch --max-examples 25
"""

from __future__ import annotations

import sys
from collections import Counter
from unittest import mock


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from repro.mpi.runtime import MpiWorld
    from repro.telemetry import render_fallback_table
    from repro.telemetry.export import FALLBACK_PREFIX

    counters: Counter = Counter()
    real_run = MpiWorld.run

    def counted_run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        if result.fallback_reason is not None:
            counters[FALLBACK_PREFIX + result.fallback_reason] += 1
        elif result.engine == "batch":
            counters["sim.batch.engaged"] += 1
        return result

    with mock.patch.object(MpiWorld, "run", counted_run):
        rc = cli_main(argv)
    print(render_fallback_table(counters) or "batch engine: no batch runs")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
