"""Domain model of the trace-correction service.

Pure data and rules — no threads, no sockets, no disk beyond hashing
inputs.  The application layer (:mod:`repro.service.application`)
executes jobs over this model; the HTTP layer
(:mod:`repro.service.api`) serializes it.

The central objects:

* :class:`CorrectionRequest` — what a client asks for: exactly one
  trace *source* (an inline ``.jsonl`` payload, a server-local trace
  file or sharded trace directory, or a built-in workload spec) plus
  the correction parameters of
  :func:`repro.core.correct.correct_trace`.  Requests are
  content-addressed: :meth:`CorrectionRequest.digest` folds the source
  identity (payload hashes, not paths), every correction knob, and the
  package version into one SHA-256, which is the deduplication key and
  the :class:`repro.cache.ResultCache` key.
* :class:`JobRecord` — one submitted job's lifecycle:
  ``queued -> running -> done`` with the failure exits ``failed``
  (deterministic error), ``cancelled`` (client cancelled mid-queue) and
  ``dead`` (crashed ``max_attempts`` times, the dead-letter state).  A
  record holds no trace text: the request only as its description,
  the outcome without its corrected trace.
* :class:`ServiceError` and :func:`classify_error` — the stable
  machine-readable error codes every HTTP error body carries.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.errors import (
    ConfigurationError,
    MatchingError,
    ReproError,
    SimulationError,
    SynchronizationError,
    TraceError,
)

__all__ = [
    "CorrectionRequest",
    "ERROR_HTTP_STATUS",
    "JobOutcome",
    "JobRecord",
    "JobState",
    "ServiceError",
    "TERMINAL_STATES",
    "WorkloadSpec",
    "classify_error",
]


class JobState(str, enum.Enum):
    """Lifecycle of a correction job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"        # deterministic error; retrying cannot help
    CANCELLED = "cancelled"  # client cancelled while still queued
    DEAD = "dead"            # crashed max_attempts times (dead-letter)


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.DEAD}
)


#: Stable error code -> HTTP status.  Codes are part of the API
#: contract (documented in docs/service.md); add, never repurpose.
ERROR_HTTP_STATUS = {
    "bad_request": 400,
    "bad_trace": 400,
    "bad_config": 400,
    "unknown_workload": 400,
    "unknown_job": 404,
    "not_ready": 409,
    "not_cancellable": 409,
    "cancelled": 409,
    "not_materializable": 409,
    "sync_failed": 422,
    "worker_crashed": 500,
    "internal": 500,
}


class ServiceError(ReproError):
    """A service-level failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_HTTP_STATUS:
            raise ValueError(f"unknown service error code {code!r}")
        super().__init__(message)
        self.code = code
        self.http_status = ERROR_HTTP_STATUS[code]

    def __reduce__(self):
        # BaseException pickles as cls(*self.args), and args is only the
        # message; a worker process sends the error back by pickle.
        return (ServiceError, (self.code, str(self)))

    def to_json(self) -> dict:
        return {
            "error": {
                "code": self.code,
                "message": str(self),
                "http": self.http_status,
            }
        }


def classify_error(exc: BaseException) -> str:
    """Map an exception to its stable service error code.

    The mapping is intentionally coarse: clients branch on the code,
    humans read the message.  Anything that is not a deliberate
    :class:`ReproError` counts as a worker crash (retryable), including
    the ``BrokenProcessPool`` of a killed worker process.
    """
    if isinstance(exc, ServiceError):
        return exc.code
    if isinstance(exc, (TraceError, MatchingError)):
        return "bad_trace"
    if isinstance(exc, ConfigurationError):
        if "unknown workload" in str(exc):
            return "unknown_workload"
        return "bad_config"
    if isinstance(exc, (SynchronizationError, SimulationError)):
        return "sync_failed"
    if isinstance(exc, ReproError):
        return "bad_request"
    return "worker_crashed"


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A built-in workload to simulate server-side before correcting.

    Field defaults mirror ``repro simulate``, so a spec naming only
    ``name`` corrects exactly what the bare CLI invocation traces.
    """

    name: str
    nprocs: int = 8
    scale: float = 0.02
    seed: int = 0
    platform: str = "xeon"
    placement: str = "scheduler"
    timer: Optional[str] = None
    engine: str = "reference"

    def validate(self) -> None:
        from repro.cluster.pinning import PLACEMENTS
        from repro.options import ENGINES
        from repro.workloads import WORKLOADS

        if self.name not in WORKLOADS:
            raise ServiceError(
                "unknown_workload",
                f"unknown workload {self.name!r}; known: "
                f"{', '.join(sorted(WORKLOADS))}",
            )
        if not isinstance(self.nprocs, int) or self.nprocs < 1:
            raise ServiceError(
                "bad_config", f"nprocs must be a positive int, got {self.nprocs!r}"
            )
        if self.engine not in ENGINES:
            raise ServiceError(
                "bad_config",
                f"unknown engine {self.engine!r}; expected one of {', '.join(ENGINES)}",
            )
        if self.placement not in PLACEMENTS:
            raise ServiceError(
                "bad_config",
                f"unknown placement {self.placement!r} (use 'spread' or 'scheduler')",
            )

    @classmethod
    def from_json(cls, obj: dict) -> "WorkloadSpec":
        if not isinstance(obj, dict) or "name" not in obj:
            raise ServiceError(
                "bad_request", "workload spec must be an object with a 'name'"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ServiceError(
                "bad_request", f"unknown workload field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**obj)


@dataclass(frozen=True)
class CorrectionRequest:
    """One correction job, content-addressed.

    Exactly one of the four sources must be set:

    ``trace_inline``
        A full ``.jsonl`` trace payload (what
        :func:`repro.tracing.writer.trace_to_jsonl` produces).
    ``trace_path``
        A server-local ``.npz`` / ``.jsonl`` trace file.
    ``trace_dir``
        A server-local sharded trace directory — corrected out-of-core;
        the result stays on the server as a sharded directory.
    ``workload``
        A :class:`WorkloadSpec` simulated server-side first.
    """

    trace_inline: Optional[str] = None
    trace_path: Optional[str] = None
    trace_dir: Optional[str] = None
    workload: Optional[WorkloadSpec] = None
    interpolation: str = "linear"
    clc: bool = True
    gamma: float = 0.99
    lmin: float = 0.0

    def validate(self) -> None:
        from repro.core.correct import INTERPOLATIONS, STREAMING_INTERPOLATIONS

        sources = [
            s for s in (
                self.trace_inline, self.trace_path, self.trace_dir, self.workload
            ) if s is not None
        ]
        if len(sources) != 1:
            raise ServiceError(
                "bad_request",
                "give exactly one source: trace_inline, trace_path, "
                f"trace_dir, or workload (got {len(sources)})",
            )
        if self.interpolation not in INTERPOLATIONS:
            raise ServiceError(
                "bad_config",
                f"unknown interpolation {self.interpolation!r}; known: "
                f"{', '.join(INTERPOLATIONS)}",
            )
        if self.trace_dir is not None and self.interpolation not in STREAMING_INTERPOLATIONS:
            raise ServiceError(
                "bad_config",
                f"sharded traces support interpolation "
                f"{', '.join(STREAMING_INTERPOLATIONS)}, not {self.interpolation!r}",
            )
        if self.interpolation == "none" and not self.clc:
            raise ServiceError(
                "bad_request", "nothing to apply: interpolation 'none' without clc"
            )
        if not 0.0 < self.gamma <= 1.0:
            raise ServiceError(
                "bad_config", f"gamma must be in (0, 1], got {self.gamma!r}"
            )
        if self.lmin < 0.0:
            raise ServiceError("bad_config", f"lmin must be >= 0, got {self.lmin!r}")
        if self.workload is not None:
            self.workload.validate()

    # ------------------------------------------------------------------
    @functools.cached_property
    def _inline(self) -> dict:
        """The inline payload's hash and size, once per request object, not per poll."""
        data = self.trace_inline.encode("utf-8")
        return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    def digest(self) -> str:
        """Content digest: the dedup and result-cache key.

        Sources are hashed by *content* where the content is available
        (inline payloads, local files, shard manifests — the manifest
        carries every shard's SHA-256, so hashing it is hashing the
        data), so two requests for the same bytes deduplicate no matter
        how they were submitted.  The package version is folded in via
        :func:`repro.cache.config_digest`, so an upgrade never replays
        a stale result.
        """
        from repro.cache import config_digest

        cfg: dict[str, Any] = {
            "interpolation": self.interpolation,
            "clc": self.clc,
            "gamma": self.gamma,
            "lmin": self.lmin,
        }
        if self.trace_inline is not None:
            cfg["trace_sha256"] = self._inline["sha256"]
        elif self.trace_path is not None:
            cfg["trace_sha256"] = _hash_file(self.trace_path)
        elif self.trace_dir is not None:
            cfg["manifest_sha256"] = _hash_file(Path(self.trace_dir) / "manifest.jsonl")
        elif self.workload is not None:
            cfg["workload"] = dataclasses.asdict(self.workload)
        return config_digest("repro.service.correct_trace", cfg)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "interpolation": self.interpolation,
            "clc": self.clc,
            "gamma": self.gamma,
            "lmin": self.lmin,
        }
        if self.trace_inline is not None:
            out["trace_inline"] = self.trace_inline
        if self.trace_path is not None:
            out["trace_path"] = self.trace_path
        if self.trace_dir is not None:
            out["trace_dir"] = self.trace_dir
        if self.workload is not None:
            out["workload"] = dataclasses.asdict(self.workload)
        return out

    def describe(self) -> dict:
        """`to_json` with inline payloads elided (manifest/status bodies)."""
        out = self.to_json()
        if "trace_inline" in out:
            out["trace_inline"] = dict(self._inline)
        return out

    @classmethod
    def from_json(cls, obj: Any) -> "CorrectionRequest":
        if not isinstance(obj, dict):
            raise ServiceError("bad_request", "request body must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ServiceError(
                "bad_request", f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = dict(obj)
        if kwargs.get("workload") is not None:
            kwargs["workload"] = WorkloadSpec.from_json(kwargs["workload"])
        try:
            request = cls(**kwargs)
        except TypeError as exc:
            raise ServiceError("bad_request", f"malformed request: {exc}") from exc
        request.validate()
        return request


def _hash_file(path) -> str:
    path = Path(path)
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise ServiceError("bad_trace", f"cannot read {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass
class JobOutcome:
    """What a finished correction produced (picklable: cache payload).

    An attempt returns ``trace_jsonl``, the corrected trace in canonical
    ``.jsonl`` form, for materialized sources, and the result cache
    stores it with it; the job table keeps the outcome without it, once
    the text is in the job's result file.  Sharded sources leave the
    result on the server and set ``result_dir`` instead.
    """

    trace_sha256: str
    report: dict
    events: int
    trace_jsonl: Optional[str] = None
    result_dir: Optional[str] = None
    engine: Optional[str] = None
    fallback_reason: Optional[str] = None
    timings: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Result summary (no trace payload — that is the fetch body)."""
        return {
            "trace_sha256": self.trace_sha256,
            "events": self.events,
            "report": self.report,
            "result_dir": self.result_dir,
            "engine": self.engine,
            "fallback_reason": self.fallback_reason,
            "timings": dict(self.timings),
            "materializable": self.result_dir is None,
        }


@dataclass
class JobRecord:
    """One submitted job's full lifecycle state.

    ``request`` is :meth:`CorrectionRequest.describe` of what was
    submitted: knobs and source identity, never an inline payload.
    """

    id: str
    request: dict
    digest: str
    state: JobState = JobState.QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    attempts: int = 0
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    outcome: Optional[JobOutcome] = None
    from_cache: bool = False
    manifest_path: Optional[str] = None
    #: Terminal, and its manifest written (or its write failed).
    settled: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "state": self.state.value,
            "request_digest": self.digest,
            "request": self.request,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "from_cache": self.from_cache,
        }
        if self.error_code is not None:
            out["error"] = {"code": self.error_code, "message": self.error_message}
        if self.outcome is not None:
            out["result"] = self.outcome.to_json()
        return out

    def manifest(self) -> dict:
        """The audit manifest persisted as ``manifest.json``."""
        from repro import __version__

        manifest = {
            "kind": "repro.service.job",
            "version": __version__,
            "job_id": self.id,
            "request_digest": self.digest,
            "request": self.request,
            "state": self.state.value,
            "attempts": self.attempts,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "from_cache": self.from_cache,
        }
        if self.error_code is not None:
            manifest["error"] = {"code": self.error_code, "message": self.error_message}
        if self.outcome is not None:
            manifest["result"] = self.outcome.to_json()
        return manifest
