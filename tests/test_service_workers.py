"""The service's worker processes under a killed worker.

A live :class:`JobManager` with its default executor: every attempt
runs in a forked worker process.  A worker is killed with SIGKILL — mid
job, on every attempt, and while idle — and the job lifecycle must
still end each job in exactly one terminal state, with the same bytes
``repro sync`` writes.  Patches made before ``start()`` reach the
workers because they are forked from this process.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

import repro.core.correct
from repro.core.correct import correct_trace
from repro.service import CorrectionRequest, JobManager, JobState, WorkloadSpec
from repro.tracing.writer import trace_to_jsonl
from repro.workloads import simulate_workload

WORKLOAD = dict(name="sparse", nprocs=4, scale=0.02, seed=0)


@pytest.fixture(scope="module")
def local_jsonl():
    """What ``repro sync --clc`` writes for the same workload."""
    return trace_to_jsonl(correct_trace(simulate_workload(**WORKLOAD), clc=True).trace)


@pytest.fixture()
def manager(tmp_path):
    manager = JobManager(tmp_path / "work", workers=2, max_attempts=3)
    yield manager
    manager.stop()


def _request(seed: int = 0) -> CorrectionRequest:
    return CorrectionRequest(workload=WorkloadSpec(**dict(WORKLOAD, seed=seed)))


def _until(predicate, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _finish(job):
    # The state turns terminal under the manager's lock; the job is
    # settled once its manifest is on disk.
    _until(lambda: job.settled, f"{job.id} to end")
    return job


def test_worker_killed_mid_job_costs_one_attempt(manager, local_jsonl, tmp_path, monkeypatch):
    started = tmp_path / "started"
    real = repro.core.correct.correct_trace

    def stall_first_attempt(source, **kwargs):
        if not started.exists():
            started.write_text(str(os.getpid()))
            time.sleep(60)
        return real(source, **kwargs)

    monkeypatch.setattr(repro.core.correct, "correct_trace", stall_first_attempt)
    manager.start()
    job = manager.submit(_request())
    _until(lambda: started.exists() and started.read_text(), "the first attempt")
    os.kill(int(started.read_text()), signal.SIGKILL)

    _finish(job)
    assert job.state is JobState.DONE and job.attempts == 2
    assert manager.telemetry.counter("service.jobs.retried") == 1
    assert manager.telemetry.counter("service.jobs.dead") == 0
    assert manager.result_file(job.id).read_bytes() == local_jsonl.encode("utf-8")
    assert manager.store.read_manifest(job.id)["attempts"] == 2

    # The replacement pool serves the next job.
    nxt = _finish(manager.submit(_request(seed=1)))
    assert nxt.state is JobState.DONE and nxt.attempts == 1
    assert manager.workers_alive == 2


def test_worker_killed_on_every_attempt_dead_letters(manager, monkeypatch):
    def kill_own_worker(source, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(repro.core.correct, "correct_trace", kill_own_worker)
    manager.start()
    job = _finish(manager.submit(_request()))

    assert job.state is JobState.DEAD and job.attempts == 3
    assert job.error_code == "worker_crashed"
    assert job.error_message.startswith("BrokenProcessPool: ")
    assert manager.telemetry.counter("service.jobs.retried") == 2
    assert manager.telemetry.counter("service.jobs.dead") == 1
    assert manager.store.read_manifest(job.id)["state"] == "dead"


def test_idle_worker_killed_costs_the_next_job_nothing(manager, local_jsonl):
    """A worker killed between jobs breaks the pool, but no job was in
    flight: the next job finds the pool broken before it is sent, goes
    to the replacement, and keeps all of its attempts."""
    manager.start()
    first = _finish(manager.submit(_request(seed=1)))
    assert first.state is JobState.DONE
    pids = manager.processes.pids()
    assert len(pids) == manager.workers_alive == 2

    os.kill(pids[0], signal.SIGKILL)
    # The pool terminates the survivor only once it has marked itself broken.
    _until(lambda: manager.workers_alive == 0, "the pool to notice the kill")

    job = _finish(manager.submit(_request()))
    assert job.state is JobState.DONE and job.attempts == 1
    assert manager.telemetry.counter("service.jobs.retried") == 0
    assert manager.result_file(job.id).read_bytes() == local_jsonl.encode("utf-8")
    assert manager.workers_alive == 2
    assert not set(pids) & set(manager.processes.pids())
    assert manager.telemetry.snapshot()["gauges"]["service.worker.peak_rss_mb"] > 0
