"""The long-running trace-correction service.

Turns the one-call facade :func:`repro.core.correct.correct_trace` into
a queued, deduplicating, metrics-scraped HTTP service — the deployment
shape the ROADMAP's "correction as a service" item asks for.  Layers,
dependency-downward only:

* :mod:`repro.service.api` — stdlib ``ThreadingHTTPServer`` HTTP/JSON
  front end (submit / status / fetch / cancel / ``/metrics``) over
  kept-alive HTTP/1.1 connections; an inline trace may be submitted as
  its own ``application/x-ndjson`` body, and a status request with
  ``?wait=S`` is held until its job is terminal;
* :mod:`repro.service.application` — :class:`JobManager`: dedup via
  content digests + :class:`repro.cache.ResultCache`, bounded retries,
  dead-letter, per-job audit manifests, waits woken by each terminal
  transition;
* :mod:`repro.service.domain` — requests, job states, and the stable
  machine-readable error codes;
* :mod:`repro.service.infrastructure` — queue, dispatcher threads,
  forked worker processes that run each correction attempt, atomic
  manifest store, thread-safe telemetry facade;
* :mod:`repro.service.client` — ``http.client`` :class:`ServiceClient`,
  one kept-alive connection per thread; its ``wait`` holds, never polls.

Quick start (in-process)::

    from repro.service import JobManager, make_server
    server = make_server(port=0, work_dir="/tmp/repro-service")
    # serve_forever() in a thread; ServiceClient(f"http://127.0.0.1:{server.port}")

or from the CLI: ``repro serve --port 8631`` then ``repro submit
--workload pingpong``.
"""

from repro.service.application import JobManager, execute_correction
from repro.service.api import ServiceServer, make_server
from repro.service.client import ServiceClient
from repro.service.domain import (
    CorrectionRequest,
    JobOutcome,
    JobRecord,
    JobState,
    ServiceError,
    WorkloadSpec,
    classify_error,
)
from repro.service.infrastructure import LockedTelemetry

__all__ = [
    "CorrectionRequest",
    "JobManager",
    "JobOutcome",
    "JobRecord",
    "JobState",
    "LockedTelemetry",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "WorkloadSpec",
    "classify_error",
    "execute_correction",
    "make_server",
]
