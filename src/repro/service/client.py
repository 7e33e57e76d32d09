"""Python client for the correction service (``http.client``, no dependencies).

:class:`ServiceClient` wraps the HTTP API of :mod:`repro.service.api`
in blocking calls that speak domain objects::

    from repro import ServiceClient
    client = ServiceClient("http://127.0.0.1:8631")
    job = client.submit_workload("pingpong", nprocs=4)
    job = client.wait(job["id"])
    text = client.fetch_trace(job["id"])      # canonical .jsonl

:meth:`ServiceClient.wait` does not poll: each of its requests asks
the server to hold the reply until the job ends, so a finished job is
answered at once and a running one costs one request per hold.

Each thread that uses a client keeps one HTTP/1.1 connection open and
sends every call over it, so a submit, its wait and the fetch cost one
TCP connection, and a client shared by several threads still
gives each thread its own replies.  :meth:`ServiceClient.submit_trace`
posts the ``.jsonl`` text itself as an ``application/x-ndjson`` body,
with the other request fields as a JSON object in the ``Repro-Request``
header, so the trace is neither escaped here nor unescaped by the
server.

Server-side :class:`~repro.service.domain.ServiceError` bodies are
re-raised as :class:`ServiceError` with the same stable ``code``, so
callers branch identically whether the failure happened in-process or
across the wire; a server that cannot be reached is ``internal``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
import weakref
from typing import Optional

from repro.service.domain import ServiceError

__all__ = ["ServiceClient"]

#: Errors that mean a kept-alive connection was closed by the server
#: while idle (``http.client.RemoteDisconnected`` is a
#: ``ConnectionResetError``).  Raised before the response began, they
#: are the one failure worth one retry on a fresh connection.
_STALE = (ConnectionResetError, BrokenPipeError)


class _Slot:
    """One thread's connection to the service, and the URL's path prefix."""

    __slots__ = ("conn", "prefix", "__weakref__")

    def __init__(self, conn: http.client.HTTPConnection, prefix: str) -> None:
        self.conn, self.prefix = conn, prefix


class ServiceClient:
    """Blocking HTTP client; one instance per service base URL.

    Safe to share between threads: each thread has its own connection.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: "weakref.WeakSet[_Slot]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _slot(self) -> _Slot:
        """This thread's connection (it connects on its first request)."""
        slot = getattr(self._local, "slot", None)
        if slot is None:
            parts = urllib.parse.urlsplit(self.base_url)
            kind = {"http": http.client.HTTPConnection,
                    "https": http.client.HTTPSConnection}.get(parts.scheme)
            try:
                if kind is None or not parts.hostname:
                    raise ValueError("not an http(s) URL")
                conn = kind(parts.hostname, parts.port, timeout=self.timeout)
            except (ValueError, http.client.InvalidURL) as exc:  # e.g. a bad port
                raise self._unreachable(exc) from None
            slot = self._local.slot = _Slot(conn, parts.path)
            # Closed when its thread ends or the client is dropped.
            weakref.finalize(slot, conn.close)
            with self._lock:
                self._open.add(slot)
        return slot

    def close(self) -> None:
        """Close every connection this client holds.

        Call it when no request is in flight; a later call opens a new
        connection.
        """
        with self._lock:
            slots = list(self._open)
        for slot in slots:
            slot.conn.close()

    def _unreachable(self, exc: BaseException) -> ServiceError:
        return ServiceError("internal", f"cannot reach {self.base_url}: {exc}")

    def _exchange(
        self, method: str, path: str, data: Optional[bytes], headers: dict
    ) -> tuple[int, bytes, str]:
        """One request and its whole response over this thread's connection.

        A request that fails because a reused connection went stale is
        sent once more on a new connection; any other transport failure
        closes the connection and raises ``internal``.
        """
        slot = self._slot()
        conn, url = slot.conn, slot.prefix + path
        try:
            while True:  # a fresh connection is not reused: one retry at most
                reused = conn.sock is not None
                try:
                    conn.request(method, url, body=data, headers=headers)
                    resp = conn.getresponse()
                    break
                except _STALE as exc:
                    conn.close()
                    if not reused:
                        raise self._unreachable(exc) from exc
            payload = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise self._unreachable(exc) from exc
        except BaseException:
            conn.close()  # a half-read response would poison the next request
            raise
        if not 200 <= resp.status < 300:
            raise self._error_from(resp.status, payload)
        return resp.status, payload, resp.getheader("Content-Type", "")

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, bytes, str]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        return self._exchange(method, path, data, headers)

    @staticmethod
    def _error_from(status: int, payload: bytes) -> ServiceError:
        try:
            obj = json.loads(payload.decode("utf-8"))
            err = obj["error"]
            return ServiceError(err["code"], err["message"])
        except (ValueError, KeyError, TypeError):
            return ServiceError("internal", f"HTTP {status}: {payload[:200]!r}")

    def _json(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        _, payload, _ = self._request(method, path, body)
        return json.loads(payload.decode("utf-8"))

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def submit(self, request: dict) -> dict:
        """Submit a raw :class:`CorrectionRequest` JSON body; returns the job."""
        return self._json("POST", "/v1/jobs", request)

    def submit_trace(self, trace, **knobs) -> dict:
        """Submit an in-memory :class:`~repro.tracing.trace.Trace` (or
        pre-rendered ``.jsonl`` text) inline.

        The text travels as the request body, unescaped; ``knobs`` (the
        other :class:`CorrectionRequest` fields) travel in the
        ``Repro-Request`` header.  The job is the one ``submit`` with
        ``{"trace_inline": text, **knobs}`` names: same digest, same
        dedup, same result.
        """
        if isinstance(trace, str):
            payload = trace
        else:
            from repro.tracing.writer import trace_to_jsonl

            payload = trace_to_jsonl(trace)
        headers = {
            "Accept": "application/json",
            "Content-Type": "application/x-ndjson",
            "Repro-Request": json.dumps(knobs),  # ASCII: a valid header value
        }
        _, body, _ = self._exchange(
            "POST", "/v1/jobs", payload.encode("utf-8"), headers
        )
        return json.loads(body.decode("utf-8"))

    def submit_workload(self, name: str, **spec_and_knobs) -> dict:
        """Submit a built-in workload job.

        Workload fields (``nprocs``, ``scale``, ``seed``, ``platform``,
        ``placement``, ``timer``, ``engine``) go into the spec; anything
        else is a correction knob.
        """
        workload_fields = {
            "nprocs", "scale", "seed", "platform", "placement", "timer", "engine",
        }
        spec = {"name": name}
        knobs = {}
        for key, value in spec_and_knobs.items():
            (spec if key in workload_fields else knobs)[key] = value
        return self.submit({"workload": spec, **knobs})

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def report(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}/report")

    def fetch_trace(self, job_id: str) -> str:
        """The corrected trace as canonical ``.jsonl`` text."""
        _, payload, _ = self._request("GET", f"/v1/jobs/{job_id}/trace")
        return payload.decode("utf-8")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/v1/jobs/{job_id}/cancel")

    def metrics(self) -> str:
        """The raw Prometheus text exposition."""
        _, payload, _ = self._request("GET", "/metrics")
        return payload.decode("utf-8")

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    # ------------------------------------------------------------------
    def wait(
        self, job_id: str, timeout: Optional[float] = 120.0, poll: float = 0.1
    ) -> dict:
        """Block until the job is terminal; returns the final record.

        Each request asks the server to hold its reply until the job
        ends (``GET /v1/jobs/<id>?wait=S``), for at most the time left
        and at most half the socket timeout, so the reply always comes
        before the socket gives up; a job that ends mid-hold answers at
        once.  ``timeout=None`` waits with no deadline.  ``poll`` is
        unused: nothing sleeps between requests.

        Raises :class:`ServiceError` (``not_ready``) on timeout — the
        job keeps running server-side.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # With no socket timeout any hold is safe; the server caps it.
        hold = self.timeout / 2 if self.timeout else 60.0
        while True:
            if deadline is not None:
                hold = min(hold, max(0.0, deadline - time.monotonic()))
            job = self._json("GET", f"/v1/jobs/{job_id}?wait={hold:.3f}")
            if job["state"] not in ("queued", "running"):
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    "not_ready",
                    f"job {job_id} still {job['state']} after {timeout:.0f}s",
                )
