"""Infrastructure of the correction service: threads, processes, queue, disk.

Mechanism only — no job-lifecycle policy (that is
:class:`repro.service.application.JobManager`'s).  Four pieces:

* :class:`JobQueue` — a condition-variable FIFO of job ids with the one
  extra operation a correction service needs: :meth:`JobQueue.remove`,
  so a queued job can be cancelled before a worker claims it.
* :class:`WorkerPool` — N daemon dispatcher threads draining the queue
  into a handler callable.  The pool knows nothing about jobs; crash
  isolation (a handler exception must never kill a worker) is the only
  policy it carries.
* :class:`ProcessExecutor` — N forked worker processes that run one
  call each at a time; a dispatcher thread blocks on its call's result,
  so a correction never shares the server's GIL.  A dead worker breaks
  the pool; the executor forks a new one once and re-raises.
* :class:`ManifestStore` — one directory per job under the service work
  dir, holding the audit ``manifest.json`` (atomic replace, so a
  half-written manifest is never observed) and any server-side result
  artifacts (e.g. the corrected shard directory of a ``trace_dir`` job).

:class:`LockedTelemetry` wraps the (deliberately lock-free,
single-threaded) :class:`repro.telemetry.TelemetryRecorder` for the one
place this package shares a recorder across threads: service counters
and timings updated by workers and scraped by ``/metrics``.  Spans stay
unsupported — the recorder's span stack is inherently per-thread.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Optional, Union

from repro.atomic import atomic_write
from repro.telemetry import TelemetryRecorder

__all__ = [
    "JobQueue", "LockedTelemetry", "ManifestStore", "ProcessExecutor", "WorkerPool",
]


class LockedTelemetry:
    """Thread-safe facade over a :class:`TelemetryRecorder`.

    Exposes the scalar half of the telemetry protocol (``count`` /
    ``gauge`` / ``gauge_max`` / ``observe`` / ``snapshot``) behind one
    lock.  ``span`` raises: span nesting is tracked on a plain stack in
    the recorder and cannot be shared between threads — per-job spans
    belong on a per-thread recorder, not here.
    """

    enabled = True

    def __init__(self) -> None:
        self.recorder = TelemetryRecorder()
        self._lock = threading.Lock()

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.recorder.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.recorder.gauge(name, value)

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.recorder.gauge_max(name, value)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self.recorder.observe(name, seconds)

    def snapshot(self) -> dict:
        with self._lock:
            return self.recorder.snapshot()

    def span(self, name, /, **attrs):
        raise RuntimeError(
            "LockedTelemetry does not support spans; use a per-thread "
            "TelemetryRecorder for span recording"
        )

    def counter(self, name: str) -> int:
        """Current value of one counter (0 when never incremented)."""
        with self._lock:
            return int(self.recorder.counters.get(name, 0))


class JobQueue:
    """FIFO of job ids with blocking pop, removal, and shutdown."""

    def __init__(self) -> None:
        self._items: deque[str] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def push(self, job_id: str) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            self._items.append(job_id)
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[str]:
        """Next job id; ``None`` once closed and drained (or on timeout)."""
        with self._cond:
            while not self._items and not self._closed:
                if not self._cond.wait(timeout=timeout):
                    return None
            if self._items:
                return self._items.popleft()
            return None  # closed and drained

    def remove(self, job_id: str) -> bool:
        """Drop a queued id (cancellation); False if a worker already took it."""
        with self._cond:
            try:
                self._items.remove(job_id)
            except ValueError:
                return False
            return True

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class WorkerPool:
    """N daemon threads applying ``handler(job_id)`` to queued ids.

    The handler owns all job semantics, including its own error
    handling; if it still lets an exception escape, the worker reports
    it to ``on_crash`` (if any) and keeps serving — a buggy handler must
    not bleed the pool dry.
    """

    def __init__(
        self,
        queue: JobQueue,
        handler: Callable[[str], None],
        workers: int = 2,
        on_crash: Optional[Callable[[str, BaseException], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.queue = queue
        self.handler = handler
        self.on_crash = on_crash
        self._threads = [
            threading.Thread(target=self._loop, name=f"repro-service-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for t in self._threads:
            t.start()

    def _loop(self) -> None:
        while True:
            job_id = self.queue.pop()
            if job_id is None:
                return
            try:
                self.handler(job_id)
            except BaseException as exc:  # noqa: BLE001 - worker must survive
                if self.on_crash is not None:
                    try:
                        self.on_crash(job_id, exc)
                    except Exception:
                        pass

    def stop(self, timeout: float = 10.0) -> None:
        """Close the queue and join the workers (in-flight jobs finish)."""
        self.queue.close()
        for t in self._threads:
            if t.is_alive():
                t.join(timeout=timeout)

    @property
    def alive(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())


def _exit_with_server(lifeline: tuple) -> None:
    """Worker initializer: exit as soon as the server is gone.

    A worker blocks on a pipe whose write end it holds itself, so it
    would never see the server die and would live on as an orphan.  The
    lifeline's write end is held by the server alone (each worker closes
    its copy here), so the server's death, however it comes, reads as
    end of file.
    """
    read_end, write_end = lifeline
    os.close(write_end)

    def watch() -> None:
        os.read(read_end, 1)
        os._exit(1)

    threading.Thread(target=watch, name="repro-server-watch", daemon=True).start()


def _in_child(fn: Callable, args: tuple) -> tuple:
    """``fn(*args)`` and this worker's peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    import resource

    result = fn(*args)
    return result, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ProcessExecutor:
    """``fn(*args)`` in one of ``workers`` forked worker processes.

    Wraps a fork-context ``concurrent.futures.ProcessPoolExecutor``;
    :meth:`start` forks every worker at once, so a caller can fork
    before it starts any thread.  A call returns ``fn``'s result or
    raises what ``fn`` raised, with the same class.  A dead worker
    breaks the pool: every call in flight on it raises
    ``BrokenProcessPool``, and the first caller to see that forks the
    replacement.  The pool object is its own generation: a caller
    replaces only the pool it saw break, under the lock, so two callers
    never both rebuild.  A call that finds the pool broken before it is
    sent never ran, so it goes to the replacement.  Each result comes
    back with the child's peak RSS, kept as the
    ``service.worker.peak_rss_mb`` gauge on ``telemetry``.
    """

    def __init__(self, fn: Callable, workers: int, telemetry: LockedTelemetry) -> None:
        self.fn = fn
        self.workers = workers
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._pool = None
        self._lifeline = os.pipe()

    def _renew(self, broken):
        """The live pool; forks a new one if the current one is ``broken``."""
        # multiprocessing loads only where a server starts, not with every
        # client that imports repro.service.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._pool is broken:
                if broken is not None:
                    broken.shutdown(wait=False)
                pool = ProcessPoolExecutor(
                    self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_exit_with_server,
                    initargs=(self._lifeline,),
                )
                pool.submit(int).result()  # forks every worker now
                self._pool = pool
            return self._pool

    def start(self) -> None:
        self._renew(None)

    def __call__(self, *args):
        from concurrent.futures.process import BrokenProcessPool

        pool = self._renew(None)
        try:
            future = pool.submit(_in_child, self.fn, args)
        except BrokenProcessPool:
            pool = self._renew(pool)
            future = pool.submit(_in_child, self.fn, args)
        try:
            result, peak_rss_mb = future.result()
        except BrokenProcessPool:
            self._renew(pool)
            raise
        self.telemetry.gauge_max("service.worker.peak_rss_mb", peak_rss_mb)
        return result

    def stop(self) -> None:
        """Shut the pool down; queued calls are cancelled, running ones finish."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        lifeline, self._lifeline = self._lifeline, ()
        for fd in lifeline:
            os.close(fd)

    def pids(self) -> list[int]:
        """Process ids of the live workers (none while a broken pool awaits renewal).

        Lock-free, so ``/healthz`` answers while a replacement is forking.
        """
        # The pool has no public list of its workers; ``_processes`` (pid ->
        # Process) is None once the pool is shut down.
        processes = getattr(self._pool, "_processes", None) or {}
        return [pid for pid, p in list(processes.items()) if p.is_alive()]


class ManifestStore:
    """Per-job directories under the service work dir.

    Layout: ``<root>/jobs/<job_id>/manifest.json`` plus whatever result
    artifacts the job leaves next to it.  Manifest writes are atomic
    (:func:`repro.atomic.atomic_write`), as the cache's are.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def job_dir(self, job_id: str) -> Path:
        path = self.root / "jobs" / job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def manifest_path(self, job_id: str) -> Path:
        return self.root / "jobs" / job_id / "manifest.json"

    def write_manifest(self, job_id: str, manifest: dict) -> Path:
        directory = self.job_dir(job_id)
        target = directory / "manifest.json"
        payload = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        return atomic_write(target, lambda fh: fh.write(payload))

    def read_manifest(self, job_id: str) -> dict:
        return json.loads(self.manifest_path(job_id).read_text(encoding="utf-8"))
