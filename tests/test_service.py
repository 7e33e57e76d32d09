"""The correction service's domain model and job lifecycle.

Everything here runs single-threaded: the manager's worker pool is
never started, and ``JobManager._run_job`` is driven by hand through an
injected executor, so every lifecycle transition — done, dedup, cancel,
retry, dead letter — is deterministic.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.errors
from repro.cache import ResultCache
from repro.errors import (
    ConfigurationError,
    MatchingError,
    ReproError,
    SimulationError,
    SynchronizationError,
    TraceError,
)
from repro.service import (
    CorrectionRequest,
    JobManager,
    JobOutcome,
    JobState,
    ServiceError,
    WorkloadSpec,
    classify_error,
)
from repro.service.application import RESULT_FILE
from repro.service.domain import ERROR_HTTP_STATUS
from repro.service.infrastructure import JobQueue, LockedTelemetry


def _request(**overrides) -> CorrectionRequest:
    defaults = dict(workload=WorkloadSpec(name="sparse", nprocs=2))
    defaults.update(overrides)
    return CorrectionRequest(**defaults)


def _outcome(tag: str = "x") -> JobOutcome:
    return JobOutcome(
        trace_sha256=tag, report={"stages": []}, events=3, trace_jsonl="{}\n"
    )


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class TestServiceError:
    def test_known_code_carries_http_status(self):
        exc = ServiceError("unknown_job", "gone")
        assert exc.http_status == 404
        assert exc.to_json() == {
            "error": {"code": "unknown_job", "message": "gone", "http": 404}
        }

    def test_unknown_code_is_a_programming_error(self):
        with pytest.raises(ValueError, match="unknown service error code"):
            ServiceError("whoopsie", "no such code")

    def test_every_code_has_a_sane_status(self):
        for code, status in ERROR_HTTP_STATUS.items():
            assert status in (400, 404, 409, 422, 500), (code, status)

    @pytest.mark.parametrize(
        "exc",
        [getattr(repro.errors, name)("lost in transit") for name in repro.errors.__all__]
        + [ServiceError("bad_trace", "lost in transit")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_survives_pickle(self, exc):
        """A worker process sends its exception back by pickle; the server
        must get the same class, message and code back, or a
        ServiceError breaks the whole process pool."""
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == "lost in transit"
        assert classify_error(back) == classify_error(exc)
        for attr in ("code", "http_status"):
            assert getattr(back, attr, None) == getattr(exc, attr, None)


class TestClassifyError:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (ServiceError("not_ready", "m"), "not_ready"),
            (TraceError("m"), "bad_trace"),
            (MatchingError("m"), "bad_trace"),
            (ConfigurationError("unknown workload 'nope'"), "unknown_workload"),
            (ConfigurationError("jobs must be positive"), "bad_config"),
            (SynchronizationError("m"), "sync_failed"),
            (SimulationError("m"), "sync_failed"),
            (ReproError("m"), "bad_request"),
            (RuntimeError("m"), "worker_crashed"),
            (ZeroDivisionError(), "worker_crashed"),
            (BrokenProcessPool("a worker died"), "worker_crashed"),
        ],
    )
    def test_mapping(self, exc, code):
        assert classify_error(exc) == code
        assert classify_error(exc) in ERROR_HTTP_STATUS


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class TestWorkloadSpec:
    def test_unknown_workload(self):
        with pytest.raises(ServiceError) as err:
            WorkloadSpec(name="nope").validate()
        assert err.value.code == "unknown_workload"

    def test_bad_engine(self):
        with pytest.raises(ServiceError) as err:
            WorkloadSpec(name="sparse", engine="turbo").validate()
        assert err.value.code == "bad_config"

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ServiceError) as err:
            WorkloadSpec.from_json({"name": "sparse", "warp": 9})
        assert err.value.code == "bad_request"


class TestCorrectionRequest:
    def test_exactly_one_source(self):
        with pytest.raises(ServiceError) as err:
            CorrectionRequest().validate()
        assert err.value.code == "bad_request"
        with pytest.raises(ServiceError):
            CorrectionRequest(
                trace_inline="{}", workload=WorkloadSpec(name="sparse")
            ).validate()

    def test_knob_validation(self):
        assert _request().validate() is None
        for bad in (
            _request(interpolation="cubic"),
            _request(gamma=0.0),
            _request(gamma=1.5),
            _request(lmin=-1.0),
            CorrectionRequest(trace_inline="{}", interpolation="none", clc=False),
            CorrectionRequest(trace_dir="/tmp/x", interpolation="regression"),
        ):
            with pytest.raises(ServiceError):
                bad.validate()

    def test_trace_dir_takes_piecewise(self):
        """Piecewise is a per-rank map over the store's measurement sets."""
        assert CorrectionRequest(trace_dir="/tmp/x", interpolation="piecewise").validate() is None

    def test_digest_is_stable_and_knob_sensitive(self):
        assert _request().digest() == _request().digest()
        assert _request().digest() != _request(clc=False).digest()
        assert _request().digest() != _request(
            workload=WorkloadSpec(name="sparse", nprocs=4)
        ).digest()

    def test_inline_and_file_of_same_bytes_share_a_digest(self, tmp_path):
        # Content addressing: the same trace bytes deduplicate no
        # matter whether they arrived inline or as a server-local file.
        payload = '{"kind": "meta"}\n'
        path = tmp_path / "trace.jsonl"
        path.write_text(payload)
        inline = CorrectionRequest(trace_inline=payload)
        by_path = CorrectionRequest(trace_path=str(path))
        assert inline.digest() == by_path.digest()

    def test_from_json_round_trip(self):
        request = _request()
        again = CorrectionRequest.from_json(request.to_json())
        assert again == request
        assert again.digest() == request.digest()

    def test_from_json_rejects_junk(self):
        for body in (None, [], "x", {"sauce": 1}, {"trace_inline": "{}", "x": 1}):
            with pytest.raises(ServiceError) as err:
                CorrectionRequest.from_json(body)
            assert err.value.code == "bad_request"

    def test_describe_elides_inline_payload(self):
        request = CorrectionRequest(trace_inline='{"kind": "meta"}\n')
        described = request.describe()["trace_inline"]
        assert set(described) == {"sha256", "bytes"}
        assert request.to_json()["trace_inline"].startswith('{"kind"')


# ----------------------------------------------------------------------
# Infrastructure
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_fifo_remove_close(self):
        q = JobQueue()
        q.push("a")
        q.push("b")
        q.push("c")
        assert q.remove("b") and not q.remove("b")
        assert q.pop() == "a"
        q.close()
        assert q.pop() == "c"  # closed queues drain
        assert q.pop() is None
        with pytest.raises(RuntimeError):
            q.push("d")


class TestLockedTelemetry:
    def test_counts_and_snapshot(self):
        tele = LockedTelemetry()
        tele.count("service.jobs.submitted")
        tele.count("service.jobs.submitted")
        assert tele.counter("service.jobs.submitted") == 2
        assert tele.counter("never") == 0
        assert tele.snapshot()["counters"]["service.jobs.submitted"] == 2

    def test_spans_are_refused(self):
        with pytest.raises(RuntimeError, match="span"):
            LockedTelemetry().span("sync.pipeline")


# ----------------------------------------------------------------------
# Job lifecycle (manager driven by hand, pool never started)
# ----------------------------------------------------------------------
class _Manager(JobManager):
    """A manager whose queue is drained manually, one job at a time."""

    def step(self) -> None:
        job_id = self.queue.pop(timeout=0)
        assert job_id is not None, "queue unexpectedly empty"
        self._run_job(job_id)


@pytest.fixture()
def recording(tmp_path):
    calls = []

    def executor(request, job_dir):
        calls.append((request, job_dir))
        return _outcome()

    manager = _Manager(tmp_path / "work", executor=executor)
    manager.calls = calls
    return manager


class TestLifecycle:
    def test_submit_runs_to_done_with_manifest(self, recording):
        job = recording.submit(_request())
        assert job.state is JobState.QUEUED
        recording.step()
        assert job.state is JobState.DONE
        assert job.outcome.trace_sha256 == "x"
        assert job.outcome.trace_jsonl is None  # the text lives on disk
        assert recording.result_file(job.id).read_text() == "{}\n"
        assert job.attempts == 1 and not job.from_cache
        assert recording.telemetry.counter("service.jobs.completed") == 1

        manifest = recording.store.read_manifest(job.id)
        assert manifest["state"] == "done"
        assert manifest["request_digest"] == job.digest
        assert manifest["result"]["materializable"] is True
        # the manifest is an audit artifact: valid standalone JSON
        assert json.loads(
            recording.store.manifest_path(job.id).read_text()
        ) == manifest

    def test_duplicate_submit_joins_live_job(self, recording):
        first = recording.submit(_request())
        second = recording.submit(_request())
        assert second is first
        assert len(recording.queue) == 1
        assert recording.telemetry.counter("service.jobs.deduplicated") == 1
        recording.step()
        assert recording.submit(_request()) is first  # done jobs still join
        assert len(recording.calls) == 1  # one compute for three submits

    def test_different_requests_do_not_join(self, recording):
        first = recording.submit(_request())
        second = recording.submit(_request(clc=False))
        assert second is not first
        assert len(recording.queue) == 2

    def test_cancel_mid_queue(self, recording):
        job = recording.submit(_request())
        cancelled = recording.cancel(job.id)
        assert cancelled.state is JobState.CANCELLED
        assert len(recording.queue) == 0
        assert recording.store.read_manifest(job.id)["state"] == "cancelled"
        with pytest.raises(ServiceError) as err:
            recording.cancel(job.id)
        assert err.value.code == "not_cancellable"
        with pytest.raises(ServiceError) as err:
            recording.fetch(job.id)
        assert err.value.code == "cancelled"
        # a cancelled digest does not poison later submissions
        again = recording.submit(_request())
        assert again is not job and again.state is JobState.QUEUED

    def test_fetch_before_done_is_not_ready(self, recording):
        job = recording.submit(_request())
        with pytest.raises(ServiceError) as err:
            recording.fetch(job.id)
        assert err.value.code == "not_ready"
        recording.step()
        assert recording.fetch(job.id).trace_sha256 == "x"

    def test_unknown_job(self, recording):
        with pytest.raises(ServiceError) as err:
            recording.get("job-999999")
        assert err.value.code == "unknown_job"


class TestFailures:
    def test_deterministic_error_fails_without_retry(self, tmp_path):
        def executor(request, job_dir):
            raise SynchronizationError("no offsets measured")

        manager = _Manager(tmp_path / "work", executor=executor)
        job = manager.submit(_request())
        manager.step()
        assert job.state is JobState.FAILED
        assert job.error_code == "sync_failed"
        assert job.attempts == 1 and len(manager.queue) == 0
        with pytest.raises(ServiceError) as err:
            manager.fetch(job.id)
        assert err.value.code == "sync_failed"

    def test_foreign_collective_root_fails_once(self, tmp_path):
        """An uploaded trace whose bcast root is not a member is a
        deterministic trace error: failed after one attempt, not retried
        ``max_attempts`` times and parked dead."""
        from repro.service.application import execute_correction
        from repro.tracing.events import CollectiveOp, EventLog, EventType
        from repro.tracing.trace import Trace
        from repro.tracing.writer import trace_to_jsonl

        logs = {}
        for rank in (0, 1):
            log = EventLog()
            log.append(1.0, EventType.COLL_ENTER, int(CollectiveOp.BCAST), 5, 2, 0)
            log.append(2.0, EventType.COLL_EXIT, int(CollectiveOp.BCAST), 5, 2, 0)
            logs[rank] = log
        request = CorrectionRequest(
            trace_inline=trace_to_jsonl(Trace(logs)), interpolation="none"
        )
        manager = _Manager(tmp_path / "work", executor=execute_correction, max_attempts=3)
        job = manager.submit(request)
        manager.step()
        assert job.state is JobState.FAILED
        assert job.error_code == "bad_trace"
        assert job.attempts == 1 and len(manager.queue) == 0
        assert "root 5 is not among its members" in (
            manager.store.read_manifest(job.id)["error"]["message"]
        )

    @pytest.mark.parametrize(
        "bad_event, names",
        [
            ('{"kind": "event", "rank": 0, "type": "EXIT", "a": 0, "b": 0, "c": 0, "d": 0}', "'ts'"),
            ('{"kind": "event", "rank": 0, "ts": "abc", "type": "EXIT", "a": 0, "b": 0, "c": 0, "d": 0}', "'ts'"),
            ('{"kind": "event", "rank": 0, "ts": 2.0, "type": [], "a": 0, "b": 0, "c": 0, "d": 0}', "event type"),
            ('{"kind": "event", "rank": 0, "ts": 2.0, "type": "EXIT", "a": 99999999999999999999999, "b": 0, "c": 0, "d": 0}', "'a'"),
            ("[1, 2]", "record kind"),
        ],
        ids=["no-ts", "ts-string", "type-list", "a-overflow", "not-an-object"],
    )
    def test_malformed_record_fails_once_on_live_workers(self, tmp_path, bad_event, names):
        """A client's bad payload is the client's error (``bad_trace``,
        first attempt), not three worker crashes and a dead letter."""
        payload = (
            '{"kind": "header", "version": 1, "ranks": [0], "meta": {}}\n'
            '{"kind": "event", "rank": 0, "ts": 1.0, "type": "ENTER", "a": 0, "b": 0, "c": 0, "d": 0}\n'
            + bad_event + "\n"
        )
        manager = JobManager(tmp_path / "work", workers=2, max_attempts=3)
        manager.start()
        try:
            job = manager.wait(manager.submit(CorrectionRequest(trace_inline=payload)).id, 30)
        finally:
            manager.stop()
        assert job.state is JobState.FAILED
        assert job.error_code == "bad_trace" and job.attempts == 1
        assert "<inline trace>:3: " in job.error_message and names in job.error_message
        assert manager.telemetry.counter("service.jobs.failed") == 1
        assert manager.telemetry.counter("service.jobs.retried") == 0
        assert manager.telemetry.counter("service.jobs.dead") == 0
        assert manager.store.read_manifest(job.id)["error"]["code"] == "bad_trace"
        with pytest.raises(ServiceError) as err:
            manager.fetch(job.id)
        assert err.value.http_status == 400

    def test_crash_retries_then_dead_letters(self, tmp_path):
        def executor(request, job_dir):
            raise RuntimeError("segfault cosplay")

        manager = _Manager(tmp_path / "work", executor=executor, max_attempts=3)
        job = manager.submit(_request())

        manager.step()
        assert job.state is JobState.QUEUED and job.attempts == 1
        manager.step()
        assert job.state is JobState.QUEUED and job.attempts == 2
        assert manager.telemetry.counter("service.jobs.retried") == 2

        manager.step()
        assert job.state is JobState.DEAD and job.attempts == 3
        assert len(manager.queue) == 0
        assert manager.telemetry.counter("service.jobs.dead") == 1
        with pytest.raises(ServiceError) as err:
            manager.fetch(job.id)
        assert err.value.code == "worker_crashed"

        manifest = manager.store.read_manifest(job.id)
        assert manifest["state"] == "dead"
        assert "segfault cosplay" in manifest["error"]["message"]

    def test_crash_then_recovery_completes(self, tmp_path):
        attempts = []

        def executor(request, job_dir):
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("transient disk hiccup")
            return _outcome()

        manager = _Manager(tmp_path / "work", executor=executor)
        job = manager.submit(_request())
        manager.step()
        manager.step()
        assert job.state is JobState.DONE and job.attempts == 2

    def test_result_write_error_fails_internal(self, tmp_path):
        """A job whose result file cannot be written is never ``done``."""
        def executor(request, job_dir):
            (job_dir / RESULT_FILE).mkdir()  # os.replace onto it raises OSError
            return _outcome()

        manager = _Manager(tmp_path / "work", executor=executor)
        job = manager.submit(_request())
        manager.step()
        assert job.state is JobState.FAILED and job.attempts == 1
        assert job.error_code == "internal" and job.outcome is None
        assert manager.telemetry.counter("service.jobs.completed") == 0
        with pytest.raises(ServiceError) as err:
            manager.fetch(job.id)
        assert err.value.code == "internal" and err.value.http_status == 500
        assert manager.store.read_manifest(job.id)["error"]["code"] == "internal"
        assert sorted(os.listdir(manager.store.job_dir(job.id))) == [
            "manifest.json", RESULT_FILE
        ]  # the temp file is gone

    def test_dead_digest_resubmits_fresh(self, tmp_path):
        def executor(request, job_dir):
            raise RuntimeError("boom")

        manager = _Manager(tmp_path / "work", executor=executor, max_attempts=1)
        first = manager.submit(_request())
        manager.step()
        assert first.state is JobState.DEAD
        second = manager.submit(_request())
        assert second is not first and second.state is JobState.QUEUED


class TestResultCache:
    def test_cache_hit_skips_the_queue(self, tmp_path):
        calls = []

        def executor(request, job_dir):
            calls.append(1)
            return _outcome()

        cache_dir = tmp_path / "cache"
        first = _Manager(
            tmp_path / "w1", cache=ResultCache(cache_dir), executor=executor
        )
        job = first.submit(_request())
        first.step()
        assert job.state is JobState.DONE and calls == [1]

        # A fresh manager (fresh process, same cache, the first work dir
        # gone): born done, its trace written to its own job directory.
        shutil.rmtree(tmp_path / "w1")
        second = _Manager(
            tmp_path / "w2", cache=ResultCache(cache_dir), executor=executor
        )
        replay = second.submit(_request())
        assert replay.state is JobState.DONE
        assert replay.from_cache
        assert replay.outcome.trace_sha256 == "x"
        assert replay.outcome.trace_jsonl is None
        served = second.result_file(replay.id)
        assert served == tmp_path / "w2" / "jobs" / replay.id / RESULT_FILE
        assert served.read_text() == "{}\n"
        assert calls == [1]
        assert len(second.queue) == 0
        assert second.telemetry.counter("cache.hit") == 1
        assert second.store.read_manifest(replay.id)["from_cache"] is True


class _GatedCache(ResultCache):
    """A result cache whose ``load`` first calls ``gate()``."""

    def __init__(self, root, gate) -> None:
        super().__init__(root)
        self.gate = gate

    def load(self, digest):
        self.gate()
        return super().load(digest)


class TestCacheOutsideTheLock:
    """``submit`` reads the cache (and writes a hit's result) unlocked."""

    def test_blocked_load_does_not_block_status(self, tmp_path):
        entered, release = threading.Event(), threading.Event()
        release.set()

        def gate():
            entered.set()
            assert release.wait(timeout=30)

        manager = _Manager(
            tmp_path / "work", cache=_GatedCache(tmp_path / "cache", gate),
            executor=lambda r, d: _outcome(),
        )
        other = manager.submit(_request())
        entered.clear()
        release.clear()
        blocked = threading.Thread(
            target=manager.submit, args=(_request(clc=False),), daemon=True
        )
        blocked.start()
        assert entered.wait(timeout=10)  # the second submit sits in load

        answered = []
        status = threading.Thread(
            target=lambda: answered.append(manager.get(other.id)), daemon=True
        )
        status.start()
        status.join(timeout=5)
        answered_while_blocked = list(answered)
        release.set()
        blocked.join(timeout=10)
        assert answered_while_blocked == [other]
        assert len(manager.jobs()) == 2

    @pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
    def test_concurrent_identical_submits_make_one_job(self, tmp_path, cached):
        both_loading = threading.Barrier(2, timeout=10)
        cache = _GatedCache(tmp_path / "cache", both_loading.wait)
        if cached:
            ResultCache(cache.root).store(_request().digest(), _outcome())
        manager = _Manager(tmp_path / "work", cache=cache, executor=lambda r, d: _outcome())

        jobs = []
        threads = [
            threading.Thread(target=lambda: jobs.append(manager.submit(_request())))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(jobs) == 2 and jobs[0] is jobs[1]
        assert len(manager.jobs()) == 1
        assert manager.telemetry.counter("service.jobs.deduplicated") == 1
        assert len(manager.queue) == (0 if cached else 1)
        if cached:  # the loser's job directory does not outlive the race
            assert os.listdir(manager.store.root / "jobs") == [jobs[0].id]


class TestManifestOutsideTheLock:
    """A terminal transition writes its manifest after releasing the lock."""

    def test_blocked_manifest_write_does_not_block_the_table(self, recording, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        write = recording.store.write_manifest

        def gated(job_id, manifest):
            entered.set()
            assert release.wait(timeout=30)
            return write(job_id, manifest)

        monkeypatch.setattr(recording.store, "write_manifest", gated)
        job = recording.submit(_request())
        finishing = threading.Thread(target=recording.step, daemon=True)
        finishing.start()
        assert entered.wait(timeout=10)  # the job is done, its manifest unwritten

        answered = {}

        def ask():
            answered["get"] = recording.get(job.id).state
            answered["jobs"] = [j.id for j in recording.jobs()]
            answered["metrics"] = "service.jobs.completed" in recording.metrics()["counters"]
            answered["wait"] = recording.wait(job.id, 0.05).settled

        asking = threading.Thread(target=ask, daemon=True)
        asking.start()
        asking.join(timeout=5)
        answered_while_blocked = dict(answered)
        release.set()
        finishing.join(timeout=10)
        assert answered_while_blocked == {
            "get": JobState.DONE, "jobs": [job.id], "metrics": True, "wait": False,
        }
        # A held wait answers once the manifest is on disk.
        assert recording.wait(job.id, 10).settled
        assert recording.store.read_manifest(job.id)["state"] == "done"
        assert job.manifest_path == str(recording.store.manifest_path(job.id))

    def test_failed_manifest_write_still_settles_the_job(self, recording, monkeypatch):
        def broken(job_id, manifest):
            raise OSError("disk full")

        monkeypatch.setattr(recording.store, "write_manifest", broken)
        job = recording.submit(_request())
        recording.step()
        assert job.state is JobState.DONE and job.settled
        assert job.manifest_path is None
        assert recording.wait(job.id, 10) is job
