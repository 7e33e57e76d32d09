"""Application layer: job lifecycle policy over the domain model.

:class:`JobManager` owns every rule the HTTP layer must not:

* **Deduplication, twice.**  A submit whose request digest matches a
  *live or done* job joins that job (counter
  ``service.jobs.deduplicated``) — two identical concurrent submissions
  compute once, structurally.  A submit whose digest hits the
  :class:`repro.cache.ResultCache` is born ``done`` without ever
  queueing (the cache's own ``cache.hit`` counter proves it).
* **Retries and the dead letter.**  A deterministic
  :class:`repro.errors.ReproError` fails the job immediately — the same
  input will fail the same way forever.  Anything else is treated as a
  worker crash: the job is requeued (``service.jobs.retried``) until
  ``max_attempts``, then parked as ``dead`` (``service.jobs.dead``) with
  the last error preserved.  Dead jobs keep their manifest, so the dead
  letter is inspectable on disk.  A killed worker process is such a
  crash; every job in flight on its pool loses that attempt.
* **Manifests.**  Every terminal transition writes the job's
  ``manifest.json`` (request digest, elided request, timings, result
  digests) through :class:`repro.service.infrastructure.ManifestStore`.
* **Results on disk.**  A materialized job's corrected ``.jsonl`` is
  written atomically to ``<work>/jobs/<id>/result.jsonl`` before the job
  is ``done`` (a cache hit writes the cached text there), and the table
  keeps no trace text: a job holds its request payload only until it is
  terminal, and its outcome without the corrected trace.
* **Held waits.**  A terminal transition sets the state under the
  manager's lock, writes the manifest after releasing it (no request
  queues behind the disk), then wakes the :meth:`JobManager.wait` calls
  held on the manager's one condition; :meth:`JobManager.stop` answers
  the held ones with their jobs as they stand.

:func:`execute_correction` is the one function a worker process runs
per attempt.  It is deliberately just a thin adapter from a
:class:`~repro.service.domain.CorrectionRequest` onto
:func:`repro.core.correct.correct_trace` (and
:func:`repro.workloads.simulate_workload` for workload sources) — the
service adds queueing and bookkeeping, never correction semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import shutil
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.atomic import atomic_write
from repro.cache import ResultCache
from repro.service.domain import (
    CorrectionRequest,
    JobOutcome,
    JobRecord,
    JobState,
    ServiceError,
    classify_error,
)
from repro.service.infrastructure import (
    JobQueue,
    LockedTelemetry,
    ManifestStore,
    ProcessExecutor,
    WorkerPool,
)

__all__ = ["JobManager", "RESULT_FILE", "execute_correction"]

#: A materialized job's corrected ``.jsonl``, in its job directory.
RESULT_FILE = "result.jsonl"


def execute_correction(
    request: CorrectionRequest, job_dir: Union[str, Path]
) -> JobOutcome:
    """Run one correction attempt; the worker-side unit of work.

    ``job_dir`` is the job's directory in the manifest store — streamed
    (``trace_dir``) results land in ``<job_dir>/result`` and stay on the
    server; every other source returns the corrected trace inline as
    canonical ``.jsonl``.
    """
    from repro.core.correct import correct_trace
    from repro.tracing.writer import trace_to_jsonl

    job_dir = Path(job_dir)
    kwargs = dict(
        interpolation=request.interpolation,
        clc=request.clc,
        gamma=request.gamma,
        lmin=request.lmin,
    )

    engine = None
    fallback_reason = None
    if request.workload is not None:
        from repro.options import RunOptions
        from repro.workloads import simulate_workload

        spec = request.workload
        run = simulate_workload(
            spec.name,
            nprocs=spec.nprocs,
            scale=spec.scale,
            seed=spec.seed,
            platform=spec.platform,
            placement=spec.placement,
            timer=spec.timer,
            options=RunOptions(engine=spec.engine),
        )
        engine = getattr(run, "engine", None)
        fallback_reason = getattr(run, "fallback_reason", None)
        result = correct_trace(run, **kwargs)
    elif request.trace_inline is not None:
        from repro.tracing.reader import trace_from_jsonl

        trace = trace_from_jsonl(request.trace_inline, label="<inline trace>")
        result = correct_trace(trace, **kwargs)
    elif request.trace_path is not None:
        path = Path(request.trace_path)
        if path.is_dir():
            raise ServiceError(
                "bad_request",
                f"trace_path {path} is a directory; sharded traces go in "
                "trace_dir",
            )
        result = correct_trace(path, **kwargs)
    else:
        out_dir = job_dir / "result"
        result = correct_trace(request.trace_dir, output=out_dir, **kwargs)
        manifest = out_dir / "manifest.jsonl"
        return JobOutcome(
            trace_sha256=hashlib.sha256(manifest.read_bytes()).hexdigest(),
            report=result.to_dict(),
            events=result.trace.total_events(),
            result_dir=str(out_dir),
            timings=dict(result.timings),
        )

    payload = trace_to_jsonl(result.trace)
    return JobOutcome(
        trace_sha256=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        report=result.to_dict(),
        events=result.trace.total_events(),
        trace_jsonl=payload,
        engine=engine,
        fallback_reason=fallback_reason,
        timings=dict(result.timings),
    )


class JobManager:
    """Thread-safe job registry + worker pool + dedup + dead letter.

    Parameters
    ----------
    work_dir:
        Root for per-job manifests and server-side results.
    cache:
        A :class:`ResultCache` for completed outcomes, or ``None`` to
        disable cross-restart dedup (live-job dedup still applies).
    workers:
        Worker-process count, and as many dispatcher threads, each of
        which claims one job at a time and waits on its attempt.
    max_attempts:
        Crash budget per job before it goes to the dead letter.
    executor:
        The per-attempt work function ``(request, job_dir) -> JobOutcome``;
        defaults to :func:`execute_correction` run in forked worker
        processes.  An injected executor runs in the dispatcher thread
        itself; tests inject crashing or recording executors here.
    telemetry:
        A :class:`LockedTelemetry` (created if omitted); scraped by
        ``/metrics``.
    """

    def __init__(
        self,
        work_dir: Union[str, Path],
        cache: Optional[ResultCache] = None,
        workers: int = 2,
        max_attempts: int = 3,
        executor: Optional[Callable[[CorrectionRequest, Path], JobOutcome]] = None,
        telemetry: Optional[LockedTelemetry] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else LockedTelemetry()
        self.store = ManifestStore(work_dir)
        self.cache = cache
        if cache is not None:
            cache.telemetry = self.telemetry
        self.max_attempts = max_attempts
        self.processes = (
            ProcessExecutor(execute_correction, workers, self.telemetry)
            if executor is None else None
        )
        self.executor = executor if executor is not None else self.processes
        self.clock = clock
        self.queue = JobQueue()
        self.pool = WorkerPool(
            self.queue, self._run_job, workers=workers, on_crash=self._note_crash
        )
        import threading

        self._lock = threading.Lock()
        # Notified under _lock as each job settles and at stop().
        self._ended = threading.Condition(self._lock)
        self._stopped = False
        self._jobs: dict[str, JobRecord] = {}
        self._by_digest: dict[str, str] = {}  # digest -> newest job id
        # job id -> its request (inline payload included), until it is terminal
        self._requests: dict[str, CorrectionRequest] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the worker processes, then start the dispatcher threads.

        No dispatcher or HTTP thread runs yet, so no child inherits a lock
        one of them holds; the modules an attempt needs are imported
        first, so no child imports them.
        """
        if self.processes is not None:
            import numpy.ma  # noqa: F401 - np.unique loads it on first use
            import repro.core.correct  # noqa: F401
            import repro.tracing.reader  # noqa: F401
            import repro.tracing.writer  # noqa: F401
            import repro.workloads  # noqa: F401

            self.processes.start()
        self.pool.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Answer every held :meth:`wait`, then stop the workers."""
        with self._lock:
            self._stopped = True
            self._ended.notify_all()
        self.pool.stop(timeout=timeout)
        if self.processes is not None:
            self.processes.stop()

    @property
    def workers_alive(self) -> int:
        """Live worker processes; dispatcher threads for an injected executor."""
        if self.processes is not None:
            return len(self.processes.pids())
        return self.pool.alive

    # ------------------------------------------------------------------
    def submit(self, request: CorrectionRequest) -> JobRecord:
        """Register a job; dedups against live/done jobs and the cache.

        The cache is read, and a hit's trace written to the new job's
        directory, outside the lock; the digest is looked up again after
        that, so two identical submits still join one job.
        """
        request.validate()
        digest = request.digest()
        with self._lock:
            self.telemetry.count("service.jobs.submitted")
            joined = self._join(digest)
            if joined is not None:
                return joined
            job_id = f"job-{next(self._ids):06d}"
        cached = self.cache.load(digest)[1] if self.cache is not None else None
        if isinstance(cached, JobOutcome):
            try:
                cached = self._keep(job_id, cached)
            except OSError:
                cached = None  # computed again
        with self._lock:
            joined = self._join(digest)
            if joined is None:
                job = JobRecord(
                    id=job_id,
                    request=request.describe(),
                    digest=digest,
                    created=self.clock(),
                )
                self._jobs[job_id] = job
                self._by_digest[digest] = job_id
                if isinstance(cached, JobOutcome):
                    job.state = JobState.DONE
                    job.outcome = cached
                    job.from_cache = True
                    job.finished = job.created
                    self.telemetry.count("service.jobs.completed")
                else:
                    self._requests[job_id] = request
        if joined is not None:
            # Another submit of the digest registered first; this id stays unused.
            shutil.rmtree(self.store.root / "jobs" / job_id, ignore_errors=True)
            return joined
        if job.terminal:
            self._settle(job)
        else:
            self.queue.push(job_id)
        return job

    def _join(self, digest: str) -> Optional[JobRecord]:
        """Under the lock: the job a submit of ``digest`` joins, counted as
        deduplicated, or ``None``.  Any job that can still produce (or has
        produced) the answer is joined; failed/cancelled/dead digests
        resubmit."""
        existing_id = self._by_digest.get(digest)
        if existing_id is None:
            return None
        existing = self._jobs[existing_id]
        if existing.terminal and existing.state is not JobState.DONE:
            return None
        self.telemetry.count("service.jobs.deduplicated")
        return existing

    def _keep(self, job_id: str, outcome: JobOutcome) -> JobOutcome:
        """``outcome`` as the table keeps it: its corrected trace written to
        the job's result file (:func:`repro.atomic.atomic_write`) and dropped."""
        if outcome.trace_jsonl is None:
            return outcome
        payload = outcome.trace_jsonl.encode("utf-8")
        atomic_write(self.store.job_dir(job_id) / RESULT_FILE, lambda fh: fh.write(payload))
        return dataclasses.replace(outcome, trace_jsonl=None)

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("unknown_job", f"no job {job_id!r}")
        return job

    def wait(self, job_id: str, timeout: float) -> JobRecord:
        """The job once it has settled (terminal, manifest written), or as
        it stands after ``timeout`` seconds or once the manager stops;
        ``timeout=0`` is :meth:`get`."""
        job = self.get(job_id)
        if timeout > 0:
            with self._lock:
                self._ended.wait_for(lambda: job.settled or self._stopped, timeout)
        return job

    def jobs(self) -> list[JobRecord]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    def metrics(self) -> dict:
        """The telemetry snapshot, with the server's own peak RSS
        (``ru_maxrss``, KiB on Linux) and the job table's size read now."""
        import resource

        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.telemetry.gauge("service.server.peak_rss_mb", peak_kib / 1024)
        self.telemetry.gauge("service.jobs.resident", len(self._jobs))
        return self.telemetry.snapshot()

    def fetch(self, job_id: str) -> JobOutcome:
        """The finished outcome; errors carry the job's state as a code."""
        job = self.get(job_id)
        with self._lock:
            state, outcome = job.state, job.outcome
            code, message = job.error_code, job.error_message
        if state is JobState.DONE and outcome is not None:
            return outcome
        if state is JobState.CANCELLED:
            raise ServiceError("cancelled", f"job {job_id} was cancelled")
        if state is JobState.FAILED:
            raise ServiceError(
                code or "internal", f"job {job_id} failed: {message}"
            )
        if state is JobState.DEAD:
            raise ServiceError(
                "worker_crashed",
                f"job {job_id} crashed {self.max_attempts} times; last error: "
                f"{message}",
            )
        raise ServiceError(
            "not_ready", f"job {job_id} is {state.value}; wait until it is done"
        )

    def result_file(self, job_id: str) -> Path:
        """The finished job's corrected ``.jsonl`` on disk; errors as
        :meth:`fetch`, and ``not_materializable`` for a sharded result."""
        outcome = self.fetch(job_id)
        if outcome.result_dir is not None:
            raise ServiceError(
                "not_materializable",
                f"job {job_id} corrected a sharded trace; its result "
                f"stays on the server at {outcome.result_dir}",
            )
        return self.store.root / "jobs" / job_id / RESULT_FILE

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a still-queued job; running/terminal jobs refuse."""
        job = self.get(job_id)
        with self._lock:
            if job.state is not JobState.QUEUED:
                raise ServiceError(
                    "not_cancellable",
                    f"job {job_id} is {job.state.value}; only queued jobs "
                    "can be cancelled",
                )
            # Between the check above and remove() no worker can claim
            # the id: workers mark RUNNING under this same lock.
            self.queue.remove(job_id)
            job.state = JobState.CANCELLED
            job.finished = self.clock()
            self.telemetry.count("service.jobs.cancelled")
        self._settle(job)
        return job

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _run_job(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                return  # cancelled (or gone) between pop and claim
            request = self._requests[job_id]
            job.state = JobState.RUNNING
            job.attempts += 1
            if job.started is None:
                job.started = self.clock()

        try:
            outcome = self.executor(request, self.store.job_dir(job_id))
        except ServiceError as exc:
            self._finish_error(job, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - classified below
            code = classify_error(exc)
            if code == "worker_crashed":
                self._crash(job, exc)
            else:
                self._finish_error(job, code, str(exc))
        else:
            self._finish_done(job, outcome)

    def _finish_done(self, job: JobRecord, outcome: JobOutcome) -> None:
        try:
            kept = self._keep(job.id, outcome)
        except OSError as exc:
            self._finish_error(job, "internal", f"cannot write the result: {exc}")
            return
        if self.cache is not None:
            self.cache.store(job.digest, outcome)
        with self._lock:
            job.state = JobState.DONE
            job.outcome = kept
            job.finished = self.clock()
            self.telemetry.count("service.jobs.completed")
            if job.started is not None:
                self.telemetry.observe(
                    "service.job.duration", job.finished - job.started
                )
        self._settle(job)

    def _finish_error(self, job: JobRecord, code: str, message: str) -> None:
        with self._lock:
            job.state = JobState.FAILED
            job.error_code = code
            job.error_message = message
            job.finished = self.clock()
            self.telemetry.count("service.jobs.failed")
        self._settle(job)

    def _crash(self, job: JobRecord, exc: BaseException) -> None:
        with self._lock:
            job.error_code = "worker_crashed"
            job.error_message = f"{type(exc).__name__}: {exc}"
            if job.attempts < self.max_attempts:
                job.state = JobState.QUEUED
                self.telemetry.count("service.jobs.retried")
                requeue = True
            else:
                job.state = JobState.DEAD
                job.finished = self.clock()
                self.telemetry.count("service.jobs.dead")
                requeue = False
        if requeue:
            self.queue.push(job.id)
        else:
            self._settle(job)

    def _note_crash(self, job_id: str, exc: BaseException) -> None:
        """Pool-level backstop: _run_job itself raised (a manager bug)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            job.state = JobState.DEAD
            job.error_code = "worker_crashed"
            job.error_message = f"{type(exc).__name__}: {exc}"
            job.finished = self.clock()
            self.telemetry.count("service.jobs.dead")
        self._settle(job)

    # ------------------------------------------------------------------
    def _settle(self, job: JobRecord) -> None:
        """After a terminal transition, outside the lock (a terminal record
        no longer changes): persist the audit manifest, never letting disk
        trouble kill the job, then under the lock drop the job's request,
        mark it settled and wake every held :meth:`wait`."""
        path = None
        try:
            path = str(self.store.write_manifest(job.id, job.manifest()))
        except OSError:
            pass
        finally:
            with self._lock:
                self._requests.pop(job.id, None)
                job.manifest_path = path
                job.settled = True
                self._ended.notify_all()
