"""Tests for the one atomic-write helper (repro.atomic) and its four callers.

Each caller replaces a file through :func:`repro.atomic.atomic_write`.
A write torn mid-way — half the bytes on disk, then "disk full" — must
leave the old target's bytes as they were and no ``*.tmp`` file behind,
and each caller keeps its own error contract: the result cache returns
``False``, a manifest write raises ``OSError``, ``write_trace`` re-raises
and a job whose result file cannot be written ends ``failed``/``internal``.
"""

from __future__ import annotations

import errno
import io
from pathlib import Path

import pytest

import repro.atomic
from repro.cache import ResultCache
from repro.service import CorrectionRequest, JobManager, JobOutcome, JobState, WorkloadSpec
from repro.service.application import RESULT_FILE
from repro.service.infrastructure import ManifestStore
from repro.tracing.events import EventLog, EventType
from repro.tracing.trace import Trace
from repro.tracing.writer import write_trace


def _torn(path, write):
    """:func:`atomic_write` whose writer stops half-way with a full disk."""
    def half(fh):
        whole = io.BytesIO()
        write(whole)
        fh.write(whole.getvalue()[: whole.tell() // 2])
        fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    return repro.atomic.atomic_write(path, half)


def _trace(t0: float) -> Trace:
    log = EventLog()
    for k in range(4):
        log.append(t0 + k, EventType.ENTER, 1, 0, 0, 0)
    return Trace({0: log.freeze()})


class _Manager(JobManager):
    def step(self) -> None:
        self._run_job(self.queue.pop(timeout=0))


def _cache(tmp: Path):
    cache = ResultCache(tmp)
    assert cache.store("d" * 64, {"old": 1})

    def torn():
        assert cache.store("d" * 64, {"new": 2}) is False

    return cache.path_for("d" * 64), torn


def _manifest(tmp: Path):
    store = ManifestStore(tmp)
    target = store.write_manifest("job", {"state": "queued"})

    def torn():
        with pytest.raises(OSError, match="No space"):
            store.write_manifest("job", {"state": "done"})

    return target, torn


def _write_trace(tmp: Path):
    target = write_trace(_trace(0.0), tmp / "t.npz")

    def torn():
        with pytest.raises(OSError, match="No space"):
            write_trace(_trace(1.0), target)

    return target, torn


def _result(tmp: Path):
    def executor(request, job_dir):
        return JobOutcome(trace_sha256="x", report={"stages": []}, events=3, trace_jsonl="{}\n")

    manager = _Manager(tmp / "work", executor=executor)
    job = manager.submit(CorrectionRequest(workload=WorkloadSpec(name="sparse", nprocs=2)))
    target = manager.store.job_dir(job.id) / RESULT_FILE
    target.write_bytes(b"an earlier attempt\n")

    def torn():
        manager.step()
        assert job.state is JobState.FAILED and job.error_code == "internal"
        assert job.outcome is None

    return target, torn


@pytest.mark.parametrize("module, caller", [
    ("repro.cache", _cache),
    ("repro.service.infrastructure", _manifest),
    ("repro.tracing.writer", _write_trace),
    ("repro.service.application", _result),
], ids=["cache", "manifest", "write_trace", "job_result"])
def test_torn_write_keeps_the_old_target(module, caller, tmp_path, monkeypatch):
    target, torn = caller(tmp_path)
    before = target.read_bytes()
    monkeypatch.setattr(f"{module}.atomic_write", _torn)
    torn()
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.rglob("*.tmp")) == []


def test_a_clean_write_replaces(tmp_path):
    target = tmp_path / "f.bin"
    target.write_bytes(b"old")
    assert repro.atomic.atomic_write(target, lambda fh: fh.write(b"new")) == target
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
