"""The five correction workloads: set-up, one op, checks, traced pass.

All are closed loops (a caller waits for its reply, as ``correct_trace``
and ``ServiceClient.wait`` callers do) with a fixed op count, so the
work done is identical on both sides of a comparison.  Each class
offers the same five steps to ``run.py``:

``setup()``        inputs from the seed, server start, one untimed warm-up op
``timed(n)``       ``n`` timed ops; checks run after each op's clock stops
``verify()``       whole-run checks, returns a list of failures
``traced(n)``      the per-layer pass (spans from ``layers.py``)
``teardown()``     stop the server, drop inputs and every directory made
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

import layers
from inputs import NONCE_SLOT, SRC, fresh_copy, sim_seeds, simulate_pop, synthetic_trace
from layers import SpanLog

from repro.core.correct import correct_trace
from repro.service.client import ServiceClient
from repro.service.domain import ServiceError
from repro.sync.clc import ControlledLogicalClock
from repro.tracing.reader import trace_from_jsonl
from repro.tracing.writer import trace_to_jsonl

HERE = Path(__file__).resolve().parent

#: Client threads of the service workloads: one per core of the 2-core
#: sandbox, all in the one load-generating process.
CLIENTS = 2

#: Sizes at ``--seconds 10`` (op counts scale with ``--seconds``) and under
#: ``--smoke``.  ``traced`` is the op count of the per-layer pass.
SIZES = {
    "inmem_jumpdense": dict(ops=10, traced=3, nprocs=16, scale=0.15, traces=2),
    "inmem_jumpsparse": dict(ops=12, traced=3, events_per_rank=500_000),
    "stream_jumpsparse": dict(ops=12, traced=2, events_per_rank=500_000,
                              shard_events=65_536),
    "svc_distinct": dict(ops=120, traced=3, live=24, nprocs=8, scale=0.01, payloads=4),
    "svc_repeat": dict(ops=1200, traced=3, live=120, nprocs=8, scale=0.01, payloads=4),
}
SMOKE_SIZES = {
    "inmem_jumpdense": dict(ops=3, traced=2, nprocs=8, scale=0.02, traces=1),
    "inmem_jumpsparse": dict(ops=3, traced=2, events_per_rank=20_000),
    "stream_jumpsparse": dict(ops=3, traced=2, events_per_rank=20_000, shard_events=4_096),
    "svc_distinct": dict(ops=8, traced=2, live=4, nprocs=4, scale=0.01, payloads=2),
    "svc_repeat": dict(ops=24, traced=2, live=8, nprocs=4, scale=0.01, payloads=2),
}


class Op(NamedTuple):
    """One timed op.  ``events`` is 0 and ``ok`` False when it failed."""

    seconds: float
    events: int
    ok: bool
    #: Service ops only: perf_counter at submit, after submit, after
    #: wait, after fetch; and the job's final JSON record.
    stamps: Optional[tuple] = None
    job: Optional[dict] = None


class Phase(NamedTuple):
    wall_s: float
    ops: list


def median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def _failed_op(start: float, exc: BaseException) -> Op:
    print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return Op(time.perf_counter() - start, 0, False)


class SingleCaller:
    """What the workloads that call ``correct_trace`` in this process share."""

    def timed(self, n: int) -> Phase:
        # The phase is the ops' own clocks: fresh copies, gc and checks
        # sit between ops, outside every timed region.
        ops = [self._op(i) for i in range(n)]
        return Phase(sum(op.seconds for op in ops), ops)

    def verify(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())


# ----------------------------------------------------------------------
# In-memory workloads
# ----------------------------------------------------------------------
class InMemory(SingleCaller):
    """``correct_trace(trace, interpolation="linear", clc=True)`` on a ``Trace``."""

    def __init__(self, name: str, sizes: dict, seed: int, work: Path) -> None:
        self.name, self.sizes, self.seed = name, sizes, seed
        self.traces: list = []
        self.sim: list[tuple[float, int, str]] = []  # seconds, events, engine

    def setup(self) -> None:
        self.traces, self.sim = [], []
        if self.name == "inmem_jumpdense":
            for s in sim_seeds(self.seed, self.sizes["traces"]):
                run, record = _timed_sim(s, self.sizes, "opteron")
                self.sim.append(record)
                self.traces.append(run.trace)
        else:
            self.traces.append(synthetic_trace(self.seed, self.sizes["events_per_rank"]))
        self._op(0)

    def teardown(self) -> None:
        self.traces = []

    def _fresh(self, i: int):
        # A new Trace per op, made before the clock starts: a reused
        # object would carry its compiled schedule into the next op.
        trace = fresh_copy(self.traces[i % len(self.traces)])
        gc.collect()
        return trace

    def _op(self, i: int) -> Op:
        trace = self._fresh(i)
        start = time.perf_counter()
        try:
            result = correct_trace(trace, interpolation="linear", clc=True)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            return _failed_op(start, exc)
        seconds = time.perf_counter() - start
        return Op(seconds, trace.total_events(), result.stage("clc").total_violated == 0)

    def traced(self, n: int) -> tuple[dict, list, list]:
        spans, counts, ops = SpanLog(), {}, []
        for i in range(n):
            spans.op = i
            # Untraced and traced op swap places every round, so neither
            # always runs in the other's wake.
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    counts.update(layers.traced_correct(self._fresh(i), spans))
                else:
                    ops.append(self._op(i))
            replay_counts, _ = layers.replay_inmemory(self._fresh(i), spans)
            counts.update(replay_counts)
        metrics = _correct_budget(spans, layers.INMEMORY_CHILDREN)
        metrics["trace.overhead_share"] = _overhead_share(
            spans.per_op("core.correct"), [op.seconds for op in ops]
        )
        metrics.update(counts)
        metrics.update(_sim_metrics(self.sim))
        for layer in layers.INMEMORY_CHILDREN:
            metrics[f"{layer}_s"] = spans.median(layer)
        metrics["sync.clc.forward_s"] = spans.median("sync.clc.forward")
        metrics["sync.clc.amortize_s"] = spans.median("sync.clc.amortize")
        return metrics, spans.spans, ops


def _timed_sim(seed: int, sizes: dict, platform: str) -> tuple:
    """One POP run and its ``(seconds, events, engine)`` record for ``sim.*``."""
    start = time.perf_counter()
    run = simulate_pop(seed, sizes["nprocs"], sizes["scale"], platform)
    return run, (time.perf_counter() - start, run.trace.total_events(), run.engine)


def _sim_metrics(sim: list) -> dict:
    if not sim:
        return {}
    seconds = statistics.median(s for s, _, _ in sim)
    return {
        "sim.generate_s": seconds,
        "sim.generate_events_per_s": statistics.median(e for _, e, _ in sim) / seconds,
        "sim.engine_batch_share": sum(eng == "batch" for _, _, eng in sim) / len(sim),
    }


def _correct_budget(spans: SpanLog, children: tuple) -> dict:
    """``core.correct`` total and self time (total minus the replayed children)."""
    totals = spans.per_op("core.correct")
    child_sums = [sum(parts) for parts in zip(*(spans.per_op(c) for c in children))]
    return {
        "core.correct.total_s": statistics.median(totals),
        "core.correct.self_s": statistics.median(
            t - c for t, c in zip(totals, child_sums)
        ),
    }


def _overhead_share(traced: list, untraced: list) -> float:
    """(traced op median − untraced op median) / untraced op median."""
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base


# ----------------------------------------------------------------------
# Streamed workload
# ----------------------------------------------------------------------
class Stream(SingleCaller):
    """``correct_trace(shard_dir, output=fresh_dir, ...)`` through the sharded store."""

    def __init__(self, name: str, sizes: dict, seed: int, work: Path) -> None:
        self.name, self.sizes, self.seed, self.work = name, sizes, seed, work
        self.shards = work / "shards"
        self.outputs = work / "out"
        self.write: dict = {}
        self.shas: set[str] = set()  # of every op's corrected timestamps
        self._made = 0

    def _child(self, *args: str) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args,
             "--seed", str(self.seed),
             "--events-per-rank", str(self.sizes["events_per_rank"])],
            check=True, capture_output=True, text=True, timeout=120,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    def setup(self) -> None:
        self.write = self._child(
            "shard", str(self.shards), "--shard-events", str(self.sizes["shard_events"])
        )
        self._op(0)

    def teardown(self) -> None:
        shutil.rmtree(self.shards, ignore_errors=True)
        shutil.rmtree(self.outputs, ignore_errors=True)

    def _fresh_output(self) -> Path:
        # Every op writes a new directory; dropping the previous one here,
        # before the clock starts, bounds the disk used.
        shutil.rmtree(self.outputs, ignore_errors=True)
        self._made += 1
        out = self.outputs / f"op-{self._made}"
        out.parent.mkdir(parents=True, exist_ok=True)
        gc.collect()
        return out

    def _op(self, i: int) -> Op:
        out = self._fresh_output()
        start = time.perf_counter()
        try:
            result = correct_trace(self.shards, output=out, interpolation="linear", clc=True)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            return _failed_op(start, exc)
        seconds = time.perf_counter() - start
        self.shas.add(layers.timestamps_sha256(result.trace))
        return Op(seconds, result.trace.total_events(),
                  result.stage("clc").total_violated == 0)

    def verify(self) -> list[str]:
        want = self._child("reference")["sha256"]
        if self.shas != {want}:
            return [f"streamed timestamps sha256 {sorted(self.shas)} != in-memory {want}"]
        return []

    def traced(self, n: int) -> tuple[dict, list, list]:
        spans, counts, ops = SpanLog(), {}, []
        for i in range(n):
            spans.op = i
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    layers.traced_correct(self.shards, spans, output=self._fresh_output())
                else:
                    ops.append(self._op(i))
            counts.update(layers.replay_stream(self.shards, self._fresh_output(), spans))
            counts.update(layers.probe_store(self.shards, spans))
        metrics = _correct_budget(spans, layers.STREAM_CHILDREN)
        metrics["trace.overhead_share"] = _overhead_share(
            spans.per_op("core.correct"), [op.seconds for op in ops]
        )
        metrics.update(counts)
        for layer in layers.STREAM_CHILDREN + ("tracing.store.read", "tracing.store.verify"):
            metrics[f"{layer}_s"] = spans.median(layer)
        mb = self.write["bytes"] / 1e6
        metrics["tracing.store.bytes"] = self.write["bytes"]
        metrics["tracing.store.write_s"] = self.write["write_s"]
        metrics["tracing.store.write_mb_per_s"] = mb / self.write["write_s"]
        metrics["tracing.store.read_mb_per_s"] = mb / metrics["tracing.store.read_s"]
        return metrics, spans.spans, ops


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------
class Request(NamedTuple):
    body: str       # the .jsonl payload submitted
    expected: str   # the corrected .jsonl the service must return
    sha256: str     # of ``expected``; must equal the job's trace_sha256
    events: int


class Service:
    """submit → wait → fetch against a live ``repro.cli serve`` subprocess."""

    def __init__(self, name: str, sizes: dict, seed: int, work: Path) -> None:
        self.name, self.sizes, self.seed, self.work = name, sizes, seed, work
        self.distinct = name == "svc_distinct"
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.templates: list[tuple[str, int]] = []  # payload text, events
        self.sim: list[tuple[float, int, str]] = []
        self._oracle: Optional[list[str]] = None
        self._starts = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        self.templates, self.sim = [], []
        for s in sim_seeds(self.seed, self.sizes["payloads"]):
            run, record = _timed_sim(s, self.sizes, "xeon")
            self.sim.append(record)
            if self.distinct:
                run.trace.meta["nonce"] = NONCE_SLOT
            self.templates.append((trace_to_jsonl(run.trace), run.trace.total_events()))
        self._start_server()
        warmup = self._requests(1, "warmup", oracle=False)[0]
        op = self._round_trip(ServiceClient(self.url), warmup)
        if not op.ok:
            raise RuntimeError("warm-up op failed")

    def _start_server(self) -> None:
        # Fresh work and cache dirs per server: a reused cache dir turns
        # every svc_distinct miss into a hit.
        self._starts += 1
        base = self.work / f"server-{self._starts}"
        base.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(base / "stderr.log", "w", encoding="utf-8")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(CLIENTS), "--work-dir", str(base / "work"),
             "--cache-dir", str(base / "cache")],
            env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        deadline = time.monotonic() + 60.0
        while True:
            ready, _, _ = select.select(
                [self.server.stdout], [], [], max(0.0, deadline - time.monotonic())
            )
            line = self.server.stdout.readline() if ready else ""
            if line.startswith("serving on http://"):
                self.url = line.split()[2]
                return
            if not line:
                self.teardown()
                raise RuntimeError(
                    "server did not print its 'serving on' line; see "
                    f"{base / 'stderr.log'}"
                )

    def teardown(self) -> None:
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self._log.close()
            self.server = None
        shutil.rmtree(self.work / f"server-{self._starts}", ignore_errors=True)

    # -- requests -------------------------------------------------------
    def oracle(self) -> list[str]:
        """Per base payload, what ``correct_trace`` + ``trace_to_jsonl`` give locally."""
        if self._oracle is None:
            self._oracle = [
                trace_to_jsonl(
                    correct_trace(
                        trace_from_jsonl(text), interpolation="linear", clc=True
                    ).trace
                )
                for text, _ in self.templates
            ]
        return self._oracle

    def _requests(self, n: int, label: str, oracle: bool = True) -> list[Request]:
        """``n`` requests over the payload pool; svc_distinct stamps a nonce in each."""
        def request(text: str, expected: str, events: int) -> Request:
            sha = hashlib.sha256(expected.encode("utf-8")).hexdigest()
            return Request(text, expected, sha, events)

        pool = [
            (text, self.oracle()[j] if oracle else "", events)
            for j, (text, events) in enumerate(self.templates)
        ]
        if not self.distinct:
            fixed = [request(*entry) for entry in pool]
            return [fixed[i % len(fixed)] for i in range(n)]
        out = []
        for i in range(n):
            text, expected, events = pool[i % len(pool)]
            nonce = f"{self.seed}-{label}-{i}"
            out.append(request(
                text.replace(NONCE_SLOT, nonce), expected.replace(NONCE_SLOT, nonce), events
            ))
        return out

    def _round_trip(self, client: ServiceClient, request: Request) -> Op:
        t0 = time.perf_counter()
        try:
            job = client.submit_trace(request.body)
            t1 = time.perf_counter()
            job = client.wait(job["id"], poll=0.01)
            t2 = time.perf_counter()
            text = client.fetch_trace(job["id"])
            t3 = time.perf_counter()
        except (ServiceError, OSError, http.client.HTTPException) as exc:
            return _failed_op(t0, exc)
        ok = job["state"] == "done" and (
            not request.expected
            or (text == request.expected
                and job["result"]["trace_sha256"] == request.sha256)
        )
        return Op(t3 - t0, request.events, ok, (t0, t1, t2, t3), job)

    def _live(self, requests: list[Request]) -> Phase:
        """Closed loop: each of the ``CLIENTS`` threads sends its next request
        only after its previous reply."""
        ops: list[Optional[Op]] = [None] * len(requests)
        pending = iter(range(len(requests)))
        lock = threading.Lock()

        def client_loop() -> None:
            client = ServiceClient(self.url)
            while True:
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                ops[i] = self._round_trip(client, requests[i])

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return Phase(time.perf_counter() - start, ops)

    def timed(self, n: int) -> Phase:
        requests = self._requests(n, "timed")
        gc.collect()
        return self._live(requests)

    # -- checks ---------------------------------------------------------
    def scrape(self) -> dict:
        """Counters of one ``/metrics`` scrape (absent counters were never bumped)."""
        values = {}
        for line in ServiceClient(self.url).metrics().splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                values[key] = float(value)
        return {
            k: int(values.get(f"repro_service_jobs_{k}", 0))
            for k in ("submitted", "deduplicated", "completed", "failed", "retried", "dead")
        }

    def verify(self) -> list[str]:
        problems = []
        trace = trace_from_jsonl(self.templates[0][0])
        kernel = ControlledLogicalClock().correct(trace).trace
        reference = ControlledLogicalClock().correct_reference(fresh_copy(trace)).trace
        for rank in trace.ranks:
            if not np.array_equal(
                kernel.logs[rank].timestamps, reference.logs[rank].timestamps
            ):
                problems.append(f"CLC kernel != scalar reference on rank {rank}")
        jobs = self.scrape()
        if jobs["failed"] or jobs["dead"]:
            problems.append(f"server reports failed/dead jobs: {jobs}")
        computed = jobs["submitted"] - jobs["deduplicated"]
        want = jobs["submitted"] if self.distinct else len(self.templates)
        if computed != want:
            problems.append(
                f"{computed} jobs computed, expected {want} "
                f"(submitted {jobs['submitted']}, deduplicated {jobs['deduplicated']})"
            )
        return problems

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.server.pid)

    # -- per-layer pass -------------------------------------------------
    def traced(self, n: int) -> tuple[dict, list, list]:
        live = self.sizes["live"]
        plain = self._live(self._requests(live, "plain"))
        recorded = self._live(self._requests(live, "traced"))
        spans = SpanLog()
        for i, op in enumerate(recorded.ops):
            if op.stamps is None:
                continue
            spans.op = i
            t0, t1, t2, t3 = op.stamps
            parent = spans.add("service.client.round_trip", t0, t3)
            spans.add("service.client.submit", t0, t1, parent)
            spans.add("service.client.wait", t1, t2, parent)
            spans.add("service.client.fetch", t2, t3, parent)

        counts = {}
        body = json.dumps({"trace_inline": self._requests(1, "replay")[0].body})
        for i in range(n):
            spans.op = live + i
            counts = layers.replay_service(body.encode("utf-8"), self.work / f"replay-{i}", spans)
            shutil.rmtree(self.work / f"replay-{i}")

        metrics = client_split(recorded.ops)
        metrics.update(_correct_budget(spans, layers.INMEMORY_CHILDREN))
        metrics["trace.overhead_share"] = _overhead_share(
            [op.seconds for op in recorded.ops if op.ok],
            [op.seconds for op in plain.ops if op.ok],
        )
        metrics.update(_sim_metrics(self.sim))
        for layer in layers.INMEMORY_CHILDREN + (
            "tracing.reader.decode", "tracing.writer.encode", "service.api.body_parse",
            "service.domain.from_json", "service.domain.digest",
            "service.application.execute", "service.infrastructure.manifest_write",
            "cache.store", "cache.load",
        ):
            metrics[f"{layer}_s"] = spans.median(layer)
        metrics["sync.clc.forward_s"] = spans.median("sync.clc.forward")
        metrics["sync.clc.amortize_s"] = spans.median("sync.clc.amortize")
        for codec in ("tracing.reader.decode", "tracing.writer.encode"):
            size = counts.pop("bytes." + codec.rsplit(".", 1)[1])
            metrics[f"{codec}_mb_per_s"] = size / 1e6 / metrics[f"{codec}_s"]
        metrics.update(counts)

        # Server-side times of the jobs this pass computed (a dedup hit
        # returns the first job's record again; count each job once).
        jobs = {op.job["id"]: op.job for op in plain.ops + recorded.ops if op.job}
        metrics["service.application.queue_wait_p50_s"] = median(
            j["started"] - j["created"] for j in jobs.values() if j["started"]
        )
        exec_p50 = median(
            j["finished"] - j["started"] for j in jobs.values() if j["started"]
        )
        metrics["service.application.exec_p50_s"] = exec_p50
        metrics["service.application.concurrency_stretch"] = (
            exec_p50 / metrics["service.application.execute_s"]
        )
        for name in ("queue_wait_p50_s", "exec_p50_s"):
            metrics["samples"][f"service.application.{name}"] = len(jobs)
        scraped = self.scrape()
        for key, value in scraped.items():
            metrics[f"service.application.jobs_{key}"] = value
        metrics["service.application.dedup_ratio"] = (
            scraped["deduplicated"] / scraped["submitted"]
        )
        return metrics, spans.spans, plain.ops + recorded.ops


def client_split(ops: list) -> dict:
    """Client-side medians of the three calls of a round trip, and its p90.

    ``samples`` names how many round trips stand behind each percentile.
    """
    good = [op for op in ops if op.ok and op.stamps]
    if not good:
        return {"samples": {}}
    parts = [op.stamps for op in good]
    names = ("submit_p50_s", "wait_p50_s", "fetch_p50_s", "round_trip_p90_s")
    return {
        "samples": {f"service.client.{name}": len(good) for name in names},
        "service.client.submit_p50_s": statistics.median(t1 - t0 for t0, t1, _, _ in parts),
        "service.client.wait_p50_s": statistics.median(t2 - t1 for _, t1, t2, _ in parts),
        "service.client.fetch_p50_s": statistics.median(t3 - t2 for _, _, t2, t3 in parts),
        "service.client.round_trip_p90_s": float(
            np.percentile([op.seconds for op in good], 90)
        ),
    }


WORKLOAD_CLASSES = {
    "inmem_jumpdense": InMemory,
    "inmem_jumpsparse": InMemory,
    "stream_jumpsparse": Stream,
    "svc_distinct": Service,
    "svc_repeat": Service,
}
