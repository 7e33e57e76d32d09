"""The correction service over real HTTP (in-process, ephemeral port).

A live :class:`ServiceServer` on ``127.0.0.1:0`` with real workers, a
real :class:`ServiceClient`, and real corrections — including the
acceptance property of the service: the trace fetched over HTTP is
byte-identical to correcting the same workload locally through
:func:`correct_trace` (which is what ``repro sync`` runs).
"""

from __future__ import annotations

import gc
import hashlib
import json
import socket
import sys
import threading
import time
import types
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
from repro.tracing.reader import trace_from_jsonl
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


    def test_memory_gauges(self, client):
        resident = len(client.jobs())
        assert _metric(client, "repro_service_server_peak_rss_mb") > 0
        assert _metric(client, "repro_service_jobs_resident") == resident


def _strings(root) -> list:
    """Every ``str`` reachable from ``root`` through containers and
    instance attributes (classes, modules and functions are not followed)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


class TestResultsOnDisk:
    """A settled job's trace text lives in its job directory, not in memory."""

    def test_settled_jobs_hold_no_trace_text(self, server, client, local_run):
        payloads = [
            trace_to_jsonl(local_run.trace).replace(
                '"meta": {', f'"meta": {{"on_disk": {i}, ', 1
            )
            for i in range(3)
        ]
        jobs = [client.submit_trace(payload) for payload in payloads]
        texts = list(payloads)
        for job, payload in zip(jobs, payloads):
            assert client.wait(job["id"])["state"] == "done"
            local = trace_to_jsonl(
                correct_trace(
                    trace_from_jsonl(payload), interpolation="linear", clc=True
                ).trace
            )
            result = server.manager.result_file(job["id"])
            assert result.parent.name == job["id"]
            assert client.fetch_trace(job["id"]) == result.read_text("utf-8") == local
            texts.append(local)

        held = _strings(server.manager.jobs())
        assert not set(texts) & set(held)
        assert max(map(len, held)) < 4096


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


class _LoggingHandler(api._Handler):
    """The service's handler, logging each GET it answers and how long it took."""

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        start = time.monotonic()
        super().do_GET()
        self.server.answered.append((self.path, start, time.monotonic()))


class _CountingServer(ServiceServer):
    """A service server that keeps every connection it accepts and logs
    every GET it answers as ``(path, start, end)``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.RequestHandlerClass = _LoggingHandler
        self.accepted: list = []
        self.answered: list = []

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


@pytest.fixture
def gated(tmp_path):
    """A counting server with one dispatcher and no retries whose jobs wait
    on ``gate``, then end by their workload seed: 2 fails (``bad_trace``),
    3 crashes (``dead``), any other is ``done``."""
    from repro.errors import TraceError
    from repro.service import JobOutcome

    gate = threading.Event()

    def executor(request, job_dir):
        gate.wait(timeout=30)
        if request.workload.seed == 2:
            raise TraceError("<inline trace>:3: no ts")
        if request.workload.seed == 3:
            raise RuntimeError("the worker died")
        return JobOutcome(trace_sha256="t", report={}, events=0, trace_jsonl="{}\n")

    manager = JobManager(tmp_path / "work", workers=1, max_attempts=1, executor=executor)
    manager.start()
    srv = _CountingServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{srv.port}")
    yield srv, client, gate
    gate.set()
    client.close()
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


def _hold(client: ServiceClient, job_id: str, wait) -> tuple[threading.Thread, list]:
    """A status request held for ``wait`` seconds, sent from its own thread;
    the list gets the reply and the ``time.monotonic()`` it came at."""
    reply: list = []

    def send() -> None:
        reply.append(client._json("GET", f"/v1/jobs/{job_id}?wait={wait}"))
        reply.append(time.monotonic())

    thread = threading.Thread(target=send, daemon=True)
    thread.start()
    return thread, reply


def _answered_after(thread: threading.Thread, reply: list, end) -> tuple[dict, float]:
    """Hold ``thread``'s request for a while, end its job with ``end()``,
    and return the reply and how long after the transition it came."""
    time.sleep(0.2)
    assert reply == []  # still held
    ended = time.monotonic()
    end()
    thread.join(timeout=10)
    record, answered = reply
    return record, answered - ended


class TestHeldWait:
    """``GET /v1/jobs/<id>?wait=S`` answers as the job ends, not at the next poll."""

    @pytest.mark.parametrize(
        "seed, state", [(1, "done"), (2, "failed"), (3, "dead")], ids=["done", "failed", "dead"]
    )
    def test_held_get_answers_as_the_job_ends(self, gated, seed, state):
        srv, client, gate = gated
        job = client.submit_workload("sparse", nprocs=2, seed=seed)
        record, late = _answered_after(*_hold(client, job["id"], 10), gate.set)
        assert record["state"] == state
        if state == "failed":
            assert record["error"]["code"] == "bad_trace"
        assert 0 <= late < 0.05

    def test_held_get_answers_as_its_queued_job_is_cancelled(self, gated):
        srv, client, gate = gated
        client.submit_workload("sparse", nprocs=2, seed=1)  # wedges the one dispatcher
        queued = client.submit_workload("sparse", nprocs=2, seed=4)
        record, late = _answered_after(
            *_hold(client, queued["id"], 10), lambda: client.cancel(queued["id"])
        )
        assert record["state"] == "cancelled"
        assert 0 <= late < 0.05

    def test_many_holds_on_many_jobs_all_answer(self, gated):
        """Eight holds on four jobs share one condition; every transition
        wakes all of them and each goes back to waiting on its own job."""
        srv, client, gate = gated
        ids = [client.submit_workload("sparse", nprocs=2, seed=s)["id"] for s in (1, 4, 5, 6)]
        holds = [_hold(client, job_id, 10) for job_id in ids * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            time.sleep(0.2)
            start = time.monotonic()
            gate.set()
            for thread, _ in holds:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread, _ in holds)
        assert [reply[0]["id"] for _, reply in holds] == ids * 2
        assert all(reply[0]["state"] == "done" for _, reply in holds)
        assert max(reply[1] for _, reply in holds) - start < 2.0

    def test_expired_hold_returns_the_job_as_it_stands(self, gated):
        srv, client, gate = gated
        job = client.submit_workload("sparse", nprocs=2, seed=1)
        start = time.monotonic()
        record = client._json("GET", f"/v1/jobs/{job['id']}?wait=0.3")
        assert time.monotonic() - start >= 0.3
        assert record["state"] in ("queued", "running")

    @pytest.mark.parametrize("wait", ["-1", "nan", "inf", "abc", ""])
    def test_bad_wait_is_400_and_keeps_the_connection(self, gated, wait):
        srv, client, gate = gated
        job = client.submit_workload("sparse", nprocs=2, seed=1)
        with pytest.raises(ServiceError) as err:
            client._json("GET", f"/v1/jobs/{job['id']}?wait={wait}")
        assert err.value.code == "bad_request" and err.value.http_status == 400
        assert client.status(job["id"])["id"] == job["id"]
        assert len(srv.accepted) == 1

    def test_client_wait_sends_one_request_per_hold(self, gated):
        srv, client, gate = gated
        short = ServiceClient(client.base_url, timeout=0.4)  # holds of 0.2 s
        job = short.submit_workload("sparse", nprocs=2, seed=1)
        opener = threading.Timer(0.7, gate.set)
        opener.start()
        try:
            start = time.monotonic()
            assert short.wait(job["id"])["state"] == "done"
            elapsed = time.monotonic() - start
        finally:
            opener.cancel()
            short.close()
        holds = [(path, end - begin) for path, begin, end in srv.answered
                 if path.startswith(f"/v1/jobs/{job['id']}?")]
        assert [path for path, _ in holds] == [f"/v1/jobs/{job['id']}?wait=0.200"] * len(holds)
        # every request but the last was held to its end; the last, to the job's
        assert all(took >= 0.19 for _, took in holds[:-1])
        assert 3 <= len(holds) <= elapsed / 0.19 + 1

    def test_shutdown_with_a_held_wait_is_prompt(self, tmp_path):
        # The manager never starts, so its one job stays queued.
        manager = JobManager(tmp_path / "work", workers=1, executor=execute_correction)
        srv = ServiceServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{srv.port}")
        try:
            job = client.submit_workload("sparse", nprocs=2, seed=1)

            def stop() -> None:
                srv.shutdown()
                srv.server_close()

            start = time.monotonic()
            record, late = _answered_after(*_hold(client, job["id"], 60), stop)
            assert time.monotonic() - start < 2.0
            assert record["state"] == "queued" and late < 1.0
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            client.close()

    def test_submit_wait_has_no_deadline(self, gated, monkeypatch, capsys):
        """``repro submit --wait`` blocks until the job ends, across many
        holds, however short a deadline ``ServiceClient.wait`` defaults to."""
        import repro.cli

        srv, client, gate = gated
        monkeypatch.setattr(repro.cli, "_client_for", lambda args: ServiceClient(args.url, timeout=0.2))
        monkeypatch.setattr(ServiceClient.wait, "__defaults__", (0.3, 0.1))
        opener = threading.Timer(1.0, gate.set)
        opener.start()
        try:
            code = cli_main(["submit", "--workload", "sparse", "--nprocs", "2", "--seed", "1",
                             "--wait", "--url", client.base_url])
        finally:
            opener.cancel()
        assert code == 0
        assert "job job-000001: done" in capsys.readouterr().out
        holds = [path for path, _, _ in srv.answered if path.startswith("/v1/jobs/job-000001?")]
        assert len(holds) >= 5
