"""repro — clock drift, event-trace timestamps, and their correction.

A from-scratch Python reproduction of Becker, Rabenseifner & Wolf,
*"Implications of non-constant clock drifts for the timestamps of
concurrent events"* (IEEE Cluster 2008): a simulated-cluster substrate
(topology, latency models, drift-accurate clocks, discrete-event MPI and
OpenMP runtimes, PMPI/POMP-style tracing) plus the full postmortem
timestamp-synchronization toolchain the paper studies — Cristian offset
measurement, linear offset interpolation, clock-condition violation
analysis, logical clocks, and the controlled logical clock (CLC) with
forward/backward amortization and collective mapping.

Quick start
-----------
>>> from repro import RunOptions, TracingSession
>>> from repro.workloads import SparseConfig, sparse_worker
>>> session = TracingSession(platform="xeon", nprocs=4, duration_hint=60.0,
...                          options=RunOptions(seed=7))
>>> run = session.trace(sparse_worker(SparseConfig(rounds=5)))
>>> report = session.synchronize(run)
>>> report.stage("clc").total_violated
0

``synchronize`` forwards to :func:`correct_trace`, the one correction
entry point (the same code path the CLI and the :mod:`repro.service`
HTTP service execute), which also works without a session::

    from repro import correct_trace
    result = correct_trace("run.npz", interpolation="linear", clc=True)
    result.trace                 # the corrected Trace
    print(result.summary())      # violation counts per stage

See ``examples/`` for complete scenarios, ``docs/service.md`` for the
correction service, and ``benchmarks/`` for the regeneration of every
table and figure in the paper.
"""

from repro.core.api import TracingSession
from repro.core.correct import CorrectionResult, correct_trace
from repro.errors import ReproError
from repro.mpi.runtime import RunResult
from repro.options import RunOptions
from repro.service.client import ServiceClient
from repro.stats import SampleSummary, StoppingRule
from repro.telemetry import TelemetryRecorder

__version__ = "2.0.2"

__all__ = [
    "CorrectionResult",
    "TracingSession",
    "ServiceClient",
    "ReproError",
    "RunOptions",
    "RunResult",
    "SampleSummary",
    "StoppingRule",
    "TelemetryRecorder",
    "__version__",
    "correct_trace",
]
