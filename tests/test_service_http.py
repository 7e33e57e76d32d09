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
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.correct import correct_trace
from repro.service import (
    JobManager,
    ServiceClient,
    ServiceError,
    ServiceServer,
    execute_correction,
    make_server,
)
from repro.service import api
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
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    yield client
    client.close()


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


class TestRequestForms:
    """An inline trace as the JSON form's string or as the x-ndjson body."""

    def test_both_forms_name_one_request(self, client, local_run, tmp_path):
        payload = trace_to_jsonl(local_run.trace)
        knobs = {"clc": True, "gamma": 0.9}  # no other test here asks for this
        deduped = _metric(client, "repro_service_jobs_deduplicated")

        first = client.submit({"trace_inline": payload, **knobs})
        second = client.submit_trace(payload, **knobs)
        assert second["id"] == first["id"]
        assert second["request_digest"] == first["request_digest"]
        assert _metric(client, "repro_service_jobs_deduplicated") == deduped + 1

        assert client.wait(second["id"])["state"] == "done"
        source, synced = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text(payload, encoding="utf-8")
        assert cli_main(
            ["sync", str(source), "--clc", "--gamma", "0.9", "-o", str(synced)]
        ) == 0
        assert client.fetch_trace(second["id"]) == synced.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "fields, body",
        [
            pytest.param("[1, 2]", b"{}\n", id="header-not-an-object"),
            pytest.param("clc=1", b"{}\n", id="header-not-json"),
            pytest.param('{"sauce": 1}', b"{}\n", id="unknown-field"),
            pytest.param('{"trace_inline": "{}"}', b"{}\n", id="trace-in-header"),
            pytest.param("{}", b"\xff\xfe{}\n", id="body-not-utf8"),
            pytest.param("{}", b"", id="empty-body"),
        ],
    )
    def test_malformed_ndjson_submit_is_400(self, client, fields, body):
        headers = {"Content-Type": "application/x-ndjson", "Repro-Request": fields}
        with pytest.raises(ServiceError) as err:
            client._exchange("POST", "/v1/jobs", body, headers)
        assert err.value.code == "bad_request" and err.value.http_status == 400


def _raw_reply(port: int, request: bytes) -> tuple[bytes, bytes]:
    """Send ``request`` on a new connection and read until the server
    closes it; a server that keeps it open fails the read by timeout."""
    data = b""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with request bytes unread
                break
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head, body


class TestRequestBody:
    """A body the server cannot read in full is refused, then the
    connection is closed: its bytes must not become the next request."""

    @pytest.mark.parametrize(
        "headers, extra, status, code",
        [
            pytest.param(b"Content-Length: -5\r\n", b"", 400, "bad_request",
                         id="negative-length"),
            pytest.param(b"Content-Length: 2x\r\n", b"{}", 400, "bad_request",
                         id="non-integer-length"),
            pytest.param(b"Content-Length: 2\r\nContent-Length: 3\r\n", b"{}",
                         400, "bad_request", id="conflicting-lengths"),
            pytest.param(b"Transfer-Encoding: chunked\r\n", b"2\r\n{}\r\n0\r\n\r\n",
                         400, "bad_request", id="chunked"),
            pytest.param(b"", b"", 400, "bad_request", id="no-length"),
            pytest.param(b"Content-Length: %d\r\n" % (api.MAX_BODY_BYTES + 1), b"",
                         400, "bad_request", id="oversize"),
        ],
    )
    def test_unreadable_body_is_400_and_closes(self, server, headers, extra, status, code):
        head, body = _raw_reply(
            server.port,
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n" + extra,
        )
        assert head.startswith(b"HTTP/1.1 %d " % status), head
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["code"] == code

    def test_body_sent_to_a_route_without_one_closes(self, server):
        head, body = _raw_reply(
            server.port,
            b"POST /v1/nope HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
        )
        assert head.startswith(b"HTTP/1.1 404 ") and b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["code"] == "unknown_job"


class _CountingServer(ServiceServer):
    """A service server that keeps every connection it accepts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted: list = []

    def get_request(self):
        sock, address = super().get_request()
        self.accepted.append(sock)
        return sock, address


@pytest.fixture
def counting(tmp_path):
    """A counting server whose corrections run in its dispatcher thread."""
    manager = JobManager(tmp_path / "work", workers=1, executor=execute_correction)
    manager.start()
    srv = _CountingServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{srv.port}")
    yield srv, client
    client.close()
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class _HangUp:
    """A listener that answers the first request it receives, keeping that
    connection open, and hangs up on every later request."""

    def __init__(self) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.accepted = 0
        self.answered = False
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                data = b""
                while chunk := conn.recv(65536):
                    data += chunk
                    if b"\r\n\r\n" not in data:
                        continue
                    if self.answered:
                        break
                    self.answered, data = True, b""
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 2\r\n\r\n{}"
                    )

    def close(self) -> None:
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.sock.close()


class TestTransport:
    """One kept-alive connection per client thread, and its four rules."""

    def test_one_connection_carries_a_round_trip(self, counting, local_run):
        srv, client = counting
        job = client.submit_trace(trace_to_jsonl(local_run.trace), clc=True)
        assert client.wait(job["id"], poll=0.01)["state"] == "done"
        assert client.status(job["id"])["id"] == job["id"]
        assert client.fetch_trace(job["id"]).endswith("\n")
        assert len(srv.accepted) == 1

    def test_stale_connection_is_retried_once(self, counting):
        srv, client = counting
        assert client.health()["ok"] is True
        srv.accepted[0].shutdown(socket.SHUT_RDWR)  # the server drops it while idle
        assert client.health()["ok"] is True
        assert len(srv.accepted) == 2

    def test_only_a_stale_reused_connection_is_retried(self):
        hang = _HangUp()
        try:
            client = ServiceClient(f"http://127.0.0.1:{hang.port}")
            assert client.health() == {}
            with pytest.raises(ServiceError) as err:
                client.health()  # reused: hung up, retried once, hung up again
            assert err.value.code == "internal"
            assert hang.accepted == 2
            with pytest.raises(ServiceError) as err:
                client.health()  # a fresh connection that hangs up: no retry
            assert err.value.code == "internal"
            assert hang.accepted == 3
        finally:
            hang.close()

    def test_unreachable_server_is_internal(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        with pytest.raises(ServiceError) as err:
            ServiceClient(f"http://127.0.0.1:{port}").health()
        assert err.value.code == "internal" and "cannot reach" in str(err.value)

    def test_oversize_body_is_400_and_closes(self, counting, local_run, monkeypatch):
        srv, client = counting
        monkeypatch.setattr(api, "MAX_BODY_BYTES", 1000)
        assert client.health()["ok"] is True
        with pytest.raises(ServiceError) as err:
            client.submit_trace(trace_to_jsonl(local_run.trace))
        assert err.value.code == "bad_request" and "1000-byte limit" in str(err.value)
        assert client.health()["ok"] is True
        assert len(srv.accepted) == 2

    def test_threads_sharing_a_client_get_their_own_replies(self, counting, local_run):
        srv, client = counting
        payload = trace_to_jsonl(local_run.trace)
        ids = [
            client.submit_trace(payload.replace('"meta": {', f'"meta": {{"n": {i}, ', 1))["id"]
            for i in range(4)
        ]
        assert len(set(ids)) == 4
        replies: dict = {job_id: [] for job_id in ids}

        def poll(job_id: str) -> None:
            for _ in range(25):
                replies[job_id].append(client.status(job_id)["id"])

        threads = [threading.Thread(target=poll, args=(i,)) for i in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert replies == {job_id: [job_id] * 25 for job_id in ids}
        assert len(srv.accepted) == 1 + len(ids)

    def test_shutdown_does_not_wait_on_an_idle_connection(self, tmp_path):
        manager = JobManager(tmp_path / "work", workers=1, executor=execute_correction)
        srv = make_server(port=0, manager=manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{srv.port}")
        try:
            assert client.health()["ok"] is True  # its connection stays open
            start = time.monotonic()
            srv.shutdown()
            srv.server_close()
            assert time.monotonic() - start < 5.0
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            client.close()

    def test_small_replies_do_not_wait_on_delayed_acks(self, counting):
        srv, client = counting
        job = client.submit_workload("sparse", nprocs=2, seed=3)
        client.status(job["id"])
        start = time.perf_counter()
        for _ in range(20):
            client.status(job["id"])
        # a reply held back for the peer's delayed ACK costs ~40 ms each
        assert time.perf_counter() - start < 0.25
        assert len(srv.accepted) == 1
