"""Outside-in layer probes: the benchmark's own spans around public calls.

Nothing under ``src/`` is instrumented.  A traced op runs the real
entry point once (``core.correct``, with a ``TelemetryRecorder`` on the
public ``telemetry=`` argument so its ``sync.clc.forward/amortize``
spans can be copied), then *replays* the same correction step by step
through each layer's public function with a span around every call.
The replay mirrors ``correct_trace`` one to one, so the children it
times are the children the real call paid for, and
``core.correct.self_s`` is what is left of the real call after them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

import inputs  # noqa: F401  (puts the checkout's src/ on sys.path)

from repro.cache import ResultCache
from repro.core.correct import correct_trace, measurements_from_meta
from repro.service.application import execute_correction
from repro.service.domain import CorrectionRequest
from repro.service.infrastructure import ManifestStore
from repro.sync.clc import ControlledLogicalClock
from repro.sync.interpolation import linear_interpolation
from repro.sync.streaming import (
    streaming_apply_correction,
    streaming_clc_correct,
    streaming_scan_trace,
)
from repro.sync.violations import scan_collectives, scan_messages
from repro.telemetry import TelemetryRecorder
from repro.tracing.reader import trace_from_jsonl
from repro.tracing.store import ChunkedTrace, ShardedTraceReader
from repro.tracing.writer import trace_to_jsonl


class SpanLog:
    """In-memory spans: name, start, end, parent and the op they belong to."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "op": self.op}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = self.add(name, time.perf_counter(), None, parent)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def adopt(self, recorder: TelemetryRecorder, parent: int) -> None:
        """Copy a recorder's spans (same ``perf_counter`` clock) under ``parent``."""
        base = len(self.spans)
        for rec in recorder.spans:
            self.add(rec.name, rec.start, rec.end,
                     parent if rec.parent < 0 else base + rec.parent)

    def per_op(self, name: str) -> list[float]:
        """Summed duration of ``name`` spans, one value per op that has any."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name and s["op"] is not None:
                totals[s["op"]] = totals.get(s["op"], 0.0) + s["end"] - s["start"]
        return [totals[k] for k in sorted(totals)]

    def median(self, name: str) -> Optional[float]:
        values = self.per_op(name)
        return statistics.median(values) if values else None


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def replay_inmemory(trace, spans: SpanLog) -> tuple[dict, object]:
    """``correct_trace(trace, interpolation="linear", clc=True)``, layer by layer.

    ``trace`` must carry no cached schedule (a fresh copy), or
    ``sync.schedule.compile`` times a dictionary lookup.  Returns the
    layer counts and the corrected trace.
    """

    def scan(t) -> int:
        with spans.span("tracing.trace.match"):
            messages = t.messages(strict=False)
        with spans.span("sync.violations.scan"):
            p2p = scan_messages(messages, 0.0)
            coll, _ = scan_collectives(t, 0.0)
        return p2p.violated + coll.violated

    before = scan(trace)
    with spans.span("sync.interpolation.build"):
        correction = linear_interpolation(
            measurements_from_meta(trace.meta, "init_offsets"),
            measurements_from_meta(trace.meta, "final_offsets"),
        )
    with spans.span("sync.interpolation.apply"):
        trace = correction.apply(trace)
    scan(trace)
    with spans.span("sync.schedule.compile"):
        trace.compiled_schedule()
    with spans.span("sync.clc.kernel"):
        result = ControlledLogicalClock().correct(trace)
    after = scan(result.trace)
    counts = {
        "sync.violations.before": before,
        "sync.violations.after": after,
        "sync.clc.jumps": result.jumps,
        "sync.clc.events_moved": result.corrected_events,
    }
    return counts, result.trace


INMEMORY_CHILDREN = (
    "tracing.trace.match", "sync.violations.scan", "sync.interpolation.build",
    "sync.interpolation.apply", "sync.schedule.compile", "sync.clc.kernel",
)


def replay_stream(shard_dir: Path, out_dir: Path, spans: SpanLog) -> dict:
    """The sharded ``correct_trace`` path, call by call; results under ``out_dir``."""
    recorder = TelemetryRecorder()

    def scan(chunked) -> int:
        with spans.span("sync.streaming.scan"):
            reports = streaming_scan_trace(chunked, lmin=0.0)
        return reports["p2p"].violated + reports["collective"].violated

    source = ChunkedTrace(shard_dir)
    before = scan(source)
    correction = linear_interpolation(
        measurements_from_meta(source.meta, "init_offsets"),
        measurements_from_meta(source.meta, "final_offsets"),
    )
    with spans.span("sync.streaming.apply"):
        interpolated = streaming_apply_correction(
            correction, source, out_dir / "interp", telemetry=recorder
        )
    scan(interpolated)
    with spans.span("sync.streaming.clc"):
        result = streaming_clc_correct(
            interpolated, out_dir / "clc", lmin=0.0, telemetry=recorder
        )
    after = scan(result.trace)
    return {
        "sync.violations.before": before,
        "sync.violations.after": after,
        "sync.clc.jumps": result.jumps,
        "sync.clc.events_moved": result.corrected_events,
        "sync.streaming.peak_resident_events":
            int(recorder.gauges["sync.clc.peak_resident_events"]),
        "sync.streaming.shards_read": int(recorder.counters["sync.stream.shards_read"]),
        "sync.streaming.shards_written":
            int(recorder.counters["sync.stream.shards_written"]),
    }


STREAM_CHILDREN = ("sync.streaming.scan", "sync.streaming.apply", "sync.streaming.clc")


def probe_store(shard_dir: Path, spans: SpanLog) -> dict:
    """One full read of every column of every shard, then a digest check."""
    chunked = ChunkedTrace(shard_dir)
    with spans.span("tracing.store.read"):
        for rank in chunked.ranks:
            for _, cols in chunked.iter_shards(rank):
                for col in cols:
                    col.copy()  # the columns are memmaps; touch every page
    with spans.span("tracing.store.verify"):
        reader = ShardedTraceReader(shard_dir, verify_digests=True)
    return {"tracing.store.shards": reader.shard_count()}


def replay_service(body: bytes, work_dir: Path, spans: SpanLog) -> dict:
    """One request through the service's steps in this process, single thread.

    ``json.loads`` → ``CorrectionRequest.from_json`` → ``digest`` →
    ``trace_from_jsonl`` → ``correct_trace`` (traced, then replayed) →
    ``trace_to_jsonl`` → manifest write → result cache store and load,
    followed by the worker's own ``execute_correction`` as one call.
    """
    with spans.span("service.api.body_parse"):
        obj = json.loads(body.decode("utf-8"))
    with spans.span("service.domain.from_json"):
        request = CorrectionRequest.from_json(obj)
    with spans.span("service.domain.digest"):
        digest = request.digest()
    with spans.span("tracing.reader.decode"):
        trace = trace_from_jsonl(request.trace_inline, label="<inline trace>")
    counts = traced_correct(trace, spans)
    again = trace_from_jsonl(request.trace_inline, label="<inline trace>")
    layer_counts, corrected = replay_inmemory(again, spans)
    counts.update(layer_counts)
    with spans.span("tracing.writer.encode"):
        payload = trace_to_jsonl(corrected)
    with spans.span("service.application.execute"):
        outcome = execute_correction(request, work_dir / "replay-job")
    if outcome.trace_jsonl != payload:
        raise AssertionError("execute_correction and the step-by-step replay disagree")
    store = ManifestStore(work_dir / "replay-manifests")
    manifest = {"kind": "repro.service.job", "request_digest": digest,
                "request": request.describe(), "result": outcome.to_json()}
    with spans.span("service.infrastructure.manifest_write"):
        store.write_manifest("job-replay", manifest)
    cache = ResultCache(work_dir / "replay-cache")
    with spans.span("cache.store"):
        cache.store(digest, outcome)
    with spans.span("cache.load"):
        hit, _ = cache.load(digest)
    if not hit:
        raise AssertionError("result cache lost the entry it just stored")
    counts["bytes.decode"] = len(request.trace_inline.encode("utf-8"))
    counts["bytes.encode"] = len(payload.encode("utf-8"))
    return counts


def traced_correct(trace, spans: SpanLog, **kwargs) -> dict:
    """The real ``correct_trace`` call under a span, recorder attached."""
    recorder = TelemetryRecorder()
    with spans.span("core.correct") as index:
        correct_trace(trace, interpolation="linear", clc=True,
                      telemetry=recorder, **kwargs)
    spans.adopt(recorder, index)
    peak = recorder.gauges.get("sync.clc.peak_resident_events")
    return {} if peak is None else {"sync.clc.peak_resident_events": int(peak)}


def timestamps_sha256(trace) -> str:
    """sha256 over every rank's corrected timestamps (``Trace`` or ``ChunkedTrace``)."""
    digest = hashlib.sha256()
    for rank in trace.ranks:
        if isinstance(trace, ChunkedTrace):
            for _, cols in trace.iter_shards(rank):
                digest.update(np.ascontiguousarray(cols[0], dtype="<f8").tobytes())
        else:
            digest.update(
                np.ascontiguousarray(trace.logs[rank].timestamps, dtype="<f8").tobytes()
            )
    return digest.hexdigest()
