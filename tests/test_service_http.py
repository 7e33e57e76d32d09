"""The correction service over real HTTP (in-process, ephemeral port).

A live :class:`ServiceServer` on ``127.0.0.1:0`` with real workers, a
real :class:`ServiceClient`, and real corrections — including the
acceptance property of the service: the trace fetched over HTTP is
byte-identical to correcting the same workload locally through
:func:`correct_trace` (which is what ``repro sync`` runs).
"""

from __future__ import annotations

import hashlib
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.correct import correct_trace
from repro.service import JobManager, ServiceClient, ServiceError, make_server
from repro.tracing.store import write_sharded_trace
from repro.tracing.writer import trace_to_jsonl
from repro.workloads import simulate_workload

WORKLOAD = dict(name="sparse", nprocs=4, scale=0.02, seed=0)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = make_server(
        port=0, work_dir=tmp_path_factory.mktemp("service-work"), workers=2
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(f"http://127.0.0.1:{server.port}")


@pytest.fixture(scope="module")
def local_run():
    return simulate_workload(**WORKLOAD)


@pytest.fixture(scope="module")
def local_jsonl(local_run):
    """What ``repro sync --clc`` produces for the same workload."""
    return trace_to_jsonl(correct_trace(local_run, clc=True).trace)


def _metric(client, name: str) -> float:
    for line in client.metrics().splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


class TestEndToEnd:
    def test_http_correction_matches_local_bytes(self, client, local_jsonl):
        job = client.submit_workload(WORKLOAD["name"], **{
            k: v for k, v in WORKLOAD.items() if k != "name"
        })
        job = client.wait(job["id"])
        assert job["state"] == "done"
        fetched = client.fetch_trace(job["id"])
        assert fetched == local_jsonl  # byte-identical to the CLI path

        report = client.report(job["id"])
        assert report["trace_sha256"] == hashlib.sha256(
            fetched.encode("utf-8")
        ).hexdigest()
        assert report["materializable"] is True
        stages = {s["stage"]: s for s in report["report"]["stages"]}
        clc = stages["clc"]
        assert clc["p2p"]["violated"] == 0 and clc["collective"]["violated"] == 0

    def test_duplicate_submission_computes_once(self, client):
        submitted = _metric(client, "repro_service_jobs_submitted")
        deduped = _metric(client, "repro_service_jobs_deduplicated")

        first = client.submit_workload("sparse", nprocs=2, seed=7)
        second = client.submit_workload("sparse", nprocs=2, seed=7)
        assert second["id"] == first["id"]
        client.wait(first["id"])

        assert _metric(client, "repro_service_jobs_submitted") == submitted + 2
        assert _metric(client, "repro_service_jobs_deduplicated") == deduped + 1

    def test_inline_trace_round_trip(self, client, local_run):
        payload = trace_to_jsonl(local_run.trace)
        job = client.submit_trace(payload, interpolation="align", clc=True)
        job = client.wait(job["id"])
        assert job["state"] == "done"
        # inline payloads are elided from status bodies, never echoed
        assert set(job["request"]["trace_inline"]) == {"sha256", "bytes"}
        assert client.fetch_trace(job["id"]).endswith("\n")

    def test_inline_payload_is_hashed_once_per_request(
        self, server, client, local_run, monkeypatch
    ):
        """Status bodies, the job list and the manifest all describe the
        payload by sha256; none of them may hash 0.1 MB again to do so."""
        import repro.service.domain as domain

        payload = trace_to_jsonl(local_run.trace).replace('"meta": {', '"meta": {"once": 1, ', 1)
        hashed = []

        class CountingHashlib:
            @staticmethod
            def sha256(data=b""):
                hashed.append(len(data))
                return hashlib.sha256(data)

        monkeypatch.setattr(domain, "hashlib", CountingHashlib)
        job = client.submit_trace(payload)
        for _ in range(5):
            status = client.status(job["id"])
        done = client.wait(job["id"])
        listed = [j for j in client.jobs() if j["id"] == job["id"]]
        fetched = client.fetch_trace(job["id"])

        assert hashed == [len(payload.encode("utf-8"))]  # was >= 9 of them
        want = {"sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
                "bytes": len(payload.encode("utf-8"))}
        assert job["request"]["trace_inline"] == want
        assert status["request"]["trace_inline"] == want
        assert listed[0]["request"]["trace_inline"] == want
        manifest = server.manager.store.read_manifest(job["id"])
        assert manifest["request"]["trace_inline"] == want
        assert done["state"] == "done" and fetched.endswith("\n")

    def test_sharded_job_stays_on_the_server(self, client, local_run, tmp_path):
        src = write_sharded_trace(local_run.trace, tmp_path / "shards", 16)
        job = client.submit({"trace_dir": str(src), "interpolation": "linear"})
        job = client.wait(job["id"])
        assert job["state"] == "done"

        report = client.report(job["id"])
        assert report["materializable"] is False
        result_dir = Path(report["result_dir"])
        assert result_dir != src
        assert json.loads(
            (result_dir / "manifest.jsonl").read_text().splitlines()[0]
        )

        with pytest.raises(ServiceError) as err:
            client.fetch_trace(job["id"])
        assert err.value.code == "not_materializable"

    def test_health_and_metrics(self, client):
        health = client.health()
        assert health["ok"] is True and health["workers"] == 2
        text = client.metrics()
        assert "repro_service_jobs_submitted" in text
        assert "repro_service_jobs_completed" in text


class TestErrorCodes:
    """Every error body carries its stable machine-readable code."""

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-424242")
        assert err.value.code == "unknown_job" and err.value.http_status == 404

    def test_unknown_resource_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/v2/nope")
        assert err.value.code == "unknown_job"

    def test_unknown_workload_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"workload": {"name": "fortran_dreams"}})
        assert err.value.code == "unknown_workload"

    def test_bad_knob_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"trace_inline": "{}", "gamma": 2.0})
        assert err.value.code == "bad_config"

    def test_unknown_field_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"sauce": "secret"})
        assert err.value.code == "bad_request"

    def test_invalid_json_body_is_400(self, client):
        req = urllib.request.Request(
            f"{client.base_url}/v1/jobs",
            data=b"not json at all",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        body = json.loads(err.value.read().decode("utf-8"))
        assert err.value.code == 400
        assert body["error"]["code"] == "bad_request"

    def test_done_job_is_not_cancellable(self, client):
        job = client.submit_workload("sparse", nprocs=2, seed=11)
        client.wait(job["id"])
        with pytest.raises(ServiceError) as err:
            client.cancel(job["id"])
        assert err.value.code == "not_cancellable" and err.value.http_status == 409


class TestCancellation:
    """Cancel over HTTP, deterministically: one worker, wedged on a gate."""

    def test_cancel_queued_job(self, tmp_path):
        gate = threading.Event()
        record = []

        def executor(request, job_dir):
            record.append(request.workload.seed)
            gate.wait(timeout=30)
            from repro.service import JobOutcome

            return JobOutcome(
                trace_sha256="t", report={}, events=0, trace_jsonl="{}\n"
            )

        manager = JobManager(tmp_path / "work", workers=1, executor=executor)
        srv = make_server(port=0, manager=manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{srv.port}")
            blocker = client.submit_workload("sparse", nprocs=2, seed=1)
            queued = client.submit_workload("sparse", nprocs=2, seed=2)
            # the single worker is wedged on job 1; job 2 must be queued
            assert client.status(queued["id"])["state"] == "queued"

            cancelled = client.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError) as err:
                client.report(queued["id"])
            assert err.value.code == "cancelled"

            gate.set()
            done = client.wait(blocker["id"])
            assert done["state"] == "done"
            assert record == [1]  # the cancelled job never ran
        finally:
            gate.set()
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
