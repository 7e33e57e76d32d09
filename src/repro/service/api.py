"""HTTP/JSON API of the trace-correction service (stdlib only).

A :class:`http.server.ThreadingHTTPServer` front end over
:class:`repro.service.application.JobManager`.  Routes (all JSON unless
noted):

================================  =====================================
``POST /v1/jobs``                 submit a correction job (body: a
                                  :class:`CorrectionRequest`, or an
                                  inline ``.jsonl`` trace as
                                  ``application/x-ndjson`` with the
                                  other fields in ``Repro-Request``);
                                  202 with the job record, 200 when
                                  dedup/cache made it instantly ``done``
``GET /v1/jobs``                  list job records
``GET /v1/jobs/<id>``             one job's status; with ``?wait=S``
                                  the reply is held until the job is
                                  terminal, for at most ``S`` seconds
                                  (capped at :data:`MAX_WAIT_S`)
``GET /v1/jobs/<id>/report``      the finished outcome summary
                                  (violation report, digests, timings)
``GET /v1/jobs/<id>/trace``       the corrected trace as canonical
                                  ``.jsonl`` text
                                  (``application/x-ndjson``), read
                                  from the job's result file
``POST /v1/jobs/<id>/cancel``     cancel a still-queued job (also
                                  ``DELETE /v1/jobs/<id>``)
``GET /metrics``                  Prometheus text exposition of the
                                  service counters and timings
``GET /healthz``                  liveness + live worker processes
================================  =====================================

Every error body is ``{"error": {"code", "message", "http"}}`` with a
stable machine-readable ``code`` from
:data:`repro.service.domain.ERROR_HTTP_STATUS` — clients branch on the
code, never on message text.

Connections are HTTP/1.1 and kept alive, one handler thread each.  A
request whose body is not read in full (chunked, no or a malformed
``Content-Length``, oversize, or sent to a route that takes none) gets
its error reply with ``Connection: close``, since the next request
would otherwise be parsed out of the unread bytes.
"""

from __future__ import annotations

import json
import math
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.service.application import JobManager
from repro.service.domain import CorrectionRequest, JobState, ServiceError

__all__ = ["ServiceServer", "make_server"]

#: Refuse request bodies beyond this (inline traces are big; abuse is
#: bigger).  64 MiB comfortably fits every built-in workload's trace.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The longest a ``GET /v1/jobs/<id>?wait=S`` holds its reply, whatever
#: ``S`` asks; a held request costs one idle handler thread.
MAX_WAIT_S = 60.0


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the manager lives on ``self.server.manager``."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; on a kept-alive connection
    # Nagle would hold the body back until the peer's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        # Whether this request announced a body nothing has read yet.
        self._unread = "Transfer-Encoding" in self.headers or (
            (self.headers.get("Content-Length") or "0").strip() != "0"
        )
        return True

    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self._unread:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, obj: dict) -> None:
        body = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json")

    def _send_error(self, exc: ServiceError) -> None:
        self._send_json(exc.http_status, exc.to_json())

    def _read_body(self) -> bytes:
        """The whole request body; one it cannot read in full is refused
        (``bad_request``) and its connection closed after the reply."""
        self._unread = True
        if "Transfer-Encoding" in self.headers:
            raise ServiceError(
                "bad_request", "chunked request bodies are not accepted; "
                "send a Content-Length",
            )
        values = self.headers.get_all("Content-Length") or []
        text = values[0].strip() if len(set(values)) == 1 else ""
        if not (text.isascii() and text.isdigit()):
            raise ServiceError(
                "bad_request", "a request body needs one Content-Length of "
                f"decimal digits, got {values!r}",
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                "bad_request",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = self.rfile.read(length)
        if len(body) < length:
            raise ServiceError(
                "bad_request", f"request body ended after {len(body)} of {length} bytes"
            )
        self._unread = False
        return body

    def _json_body(self) -> dict:
        raw = self._read_body()
        if not raw:
            raise ServiceError("bad_request", "request body must be JSON")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError("bad_request", f"invalid JSON body: {exc}") from exc

    def _ndjson_body(self) -> dict:
        """An ``application/x-ndjson`` submit as the JSON form's object.

        The body is the ``.jsonl`` trace itself and ``Repro-Request``
        (default ``{}``) holds the other fields, so the request, its
        digest and its result are those of the JSON form.
        """
        raw = self._read_body()
        try:
            fields = json.loads(self.headers.get("Repro-Request", "{}"))
        except json.JSONDecodeError as exc:
            raise ServiceError(
                "bad_request", f"invalid Repro-Request header: {exc}"
            ) from exc
        if not isinstance(fields, dict):
            raise ServiceError(
                "bad_request", "the Repro-Request header must be a JSON object"
            )
        if "trace_inline" in fields:
            raise ServiceError(
                "bad_request",
                "an x-ndjson submit carries its trace as the body, "
                "not in the Repro-Request header",
            )
        if not raw:
            raise ServiceError("bad_request", "an x-ndjson submit needs a trace body")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError("bad_request", f"trace body is not UTF-8: {exc}") from exc
        return {**fields, "trace_inline": text}

    def _hold(self) -> float:
        """Seconds a status request may hold its reply: its ``?wait=S``
        capped at :data:`MAX_WAIT_S`, or 0 without one."""
        query = urllib.parse.parse_qs(
            self.path.partition("?")[2], keep_blank_values=True
        )
        if "wait" not in query:
            return 0.0
        try:
            (seconds,) = map(float, query["wait"])
        except ValueError:
            seconds = math.nan
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ServiceError(
                "bad_request",
                f"wait must be one finite number of seconds >= 0, got {query['wait']!r}",
            )
        return min(seconds, MAX_WAIT_S)

    def _route(self) -> tuple[str, Optional[str], Optional[str]]:
        """Split ``/v1/jobs/<id>/<verb>`` into (head, job_id, verb)."""
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        if parts[:2] == ["v1", "jobs"]:
            job_id = parts[2] if len(parts) > 2 else None
            verb = parts[3] if len(parts) > 3 else None
            if len(parts) <= 4:
                return "jobs", job_id, verb
        return "/".join(parts), None, None

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        try:
            head, job_id, verb = self._route()
            if head == "metrics":
                from repro.telemetry.export import to_prometheus

                text = to_prometheus(self.manager.metrics())
                self._send(200, text.encode("utf-8"), "text/plain; version=0.0.4")
            elif head == "healthz":
                self._send_json(
                    200,
                    {
                        "ok": True,
                        "workers": self.manager.workers_alive,
                        "queued": len(self.manager.queue),
                    },
                )
            elif head == "jobs" and job_id is None:
                self._send_json(
                    200, {"jobs": [j.to_json() for j in self.manager.jobs()]}
                )
            elif head == "jobs" and verb is None:
                job = self.manager.wait(job_id, self._hold())
                self._send_json(200, job.to_json())
            elif head == "jobs" and verb == "report":
                outcome = self.manager.fetch(job_id)
                self._send_json(200, outcome.to_json())
            elif head == "jobs" and verb == "trace":
                path = self.manager.result_file(job_id)
                try:
                    payload = path.read_bytes()
                except OSError as exc:
                    raise ServiceError("internal", f"cannot read {path}: {exc}") from exc
                self._send(200, payload, "application/x-ndjson")
            else:
                raise ServiceError("unknown_job", f"no such resource: {self.path}")
        except ServiceError as exc:
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        try:
            head, job_id, verb = self._route()
            if head == "jobs" and job_id is None:
                if self.headers.get_content_type() == "application/x-ndjson":
                    body = self._ndjson_body()
                else:
                    body = self._json_body()
                request = CorrectionRequest.from_json(body)
                job = self.manager.submit(request)
                status = 200 if job.state is JobState.DONE else 202
                self._send_json(status, job.to_json())
            elif head == "jobs" and verb == "cancel":
                job = self.manager.cancel(job_id)
                self._send_json(200, job.to_json())
            else:
                raise ServiceError("unknown_job", f"no such resource: {self.path}")
        except ServiceError as exc:
            self._send_error(exc)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        try:
            head, job_id, verb = self._route()
            if head == "jobs" and job_id is not None and verb is None:
                job = self.manager.cancel(job_id)
                self._send_json(200, job.to_json())
            else:
                raise ServiceError("unknown_job", f"no such resource: {self.path}")
        except ServiceError as exc:
            self._send_error(exc)


class ServiceServer(ThreadingHTTPServer):
    """The service's HTTP server; owns a :class:`JobManager`."""

    # Daemon handler threads: server_close() must not wait on a client's
    # idle kept-alive connection.
    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], manager: JobManager, verbose: bool = False
    ) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]

    def shutdown(self) -> None:  # stop workers with the listener
        super().shutdown()
        self.manager.stop()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    manager: Optional[JobManager] = None,
    work_dir=None,
    cache=None,
    workers: int = 2,
    max_attempts: int = 3,
    verbose: bool = False,
) -> ServiceServer:
    """Build a ready (not yet serving) server; ``port=0`` picks a free one.

    With no explicit ``manager`` one is created from ``work_dir`` (a
    temp-style directory the caller owns), ``cache``, and the worker
    knobs.  The manager is started (its worker processes forked) before
    the listening socket is bound, so those workers do not hold the
    port.  Call ``serve_forever()`` to serve and ``shutdown()`` to stop
    both the listener and the workers.
    """
    if manager is None:
        if work_dir is None:
            raise ServiceError("bad_config", "make_server needs work_dir or manager")
        manager = JobManager(
            work_dir, cache=cache, workers=workers, max_attempts=max_attempts
        )
    manager.start()
    try:
        return ServiceServer((host, port), manager, verbose=verbose)
    except BaseException:
        manager.stop()
        raise
