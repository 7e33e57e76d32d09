"""Names, units and bounds of everything the end-to-end benchmark reports.

One table per kind, shared by ``run.py`` (what to emit), ``compare.py``
(which bound applies) and the smoke test (which checks the tables agree
with ``BENCHMARK.json`` at the repo root).  A metric reads ``None`` in a
report where its layer is not on the workload's op path; the driver's
result line carries numbers only, so ``None`` becomes ``0`` there.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median by which the metric may worsen.
    #: ``None``: per-layer, no bound.  ``0.0``: any worsening regresses.
    bound: Optional[float] = None


#: workload -> why it exists (one line; mirrored in BENCHMARK.json).
WORKLOADS = {
    "inmem_jumpdense": (
        "POP on Opteron clocks, ~9.7k CLC jumps in 91k events: the paper's "
        "worst case; the CLC stage is ~80% of the op and backward amortization "
        "is at its heaviest, so a kernel change shows here first"
    ),
    "inmem_jumpsparse": (
        "1M synthetic events, 50 jumps: cost follows the event count, not the "
        "jumps (schedule compile, forward pass, send caps); in-memory "
        "throughput must reach streaming throughput here"
    ),
    "stream_jumpsparse": (
        "the same 1M events through tracing.store + sync.streaming shards: "
        "compile is bypassed (predicts no change), bounded peak RSS is the "
        "store's promise"
    ),
    "svc_distinct": (
        "live HTTP service, 2 clients, every payload distinct: JSONL codec, "
        "HTTP, queue and manifest do the work and two workers share the GIL; "
        "the kernel is a minor part"
    ),
    "svc_repeat": (
        "live HTTP service, 4 repeated payloads: body read, json.loads, "
        "digest, dedup lookup and fetch only, kernels idle; any per-submit "
        "tax shows here first"
    ),
}

#: What a user of the system sees.  The first four go to BENCHMARK.json;
#: ``op_p90_s`` and ``failure_rate`` cannot (the driver wants one list
#: for all workloads with values that are never 0), so they ride along
#: in reports and ``compare.py`` only.  The timing bounds are wider than
#: the 10 % the issue asked for: on the 2-core sandbox ten runs of one
#: commit spread 4-7 % in a calm spell and up to 24 % in a noisy one, and
#: a bound below the spread resolves nothing — see README.md, "Steadiness".
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("events_per_s", "events/s", "higher", 0.25),
    Metric("op_p50_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("op_p90_s", "s", "lower", 0.25),
    Metric("failure_rate", "fraction", "lower", 0.0),
]

#: End-to-end metrics declared in BENCHMARK.json (defined on every workload).
DRIVER_END_TO_END = END_TO_END[:4]

PER_LAYER = [
    Metric("sim.generate_s", "s", "lower"),
    Metric("sim.generate_events_per_s", "events/s", "higher"),
    Metric("sim.engine_batch_share", "fraction", "higher"),
    Metric("tracing.trace.match_s", "s", "lower"),
    Metric("sync.violations.scan_s", "s", "lower"),
    Metric("sync.violations.before", "count", "lower"),
    Metric("sync.violations.after", "count", "lower"),
    Metric("sync.interpolation.build_s", "s", "lower"),
    Metric("sync.interpolation.apply_s", "s", "lower"),
    Metric("sync.schedule.compile_s", "s", "lower"),
    Metric("sync.clc.kernel_s", "s", "lower"),
    Metric("sync.clc.forward_s", "s", "lower"),
    Metric("sync.clc.amortize_s", "s", "lower"),
    Metric("sync.clc.jumps", "count", "lower"),
    Metric("sync.clc.events_moved", "count", "lower"),
    Metric("sync.clc.peak_resident_events", "count", "lower"),
    Metric("tracing.store.write_s", "s", "lower"),
    Metric("tracing.store.write_mb_per_s", "MB/s", "higher"),
    Metric("tracing.store.read_s", "s", "lower"),
    Metric("tracing.store.read_mb_per_s", "MB/s", "higher"),
    Metric("tracing.store.verify_s", "s", "lower"),
    Metric("tracing.store.shards", "count", "lower"),
    Metric("tracing.store.bytes", "count", "lower"),
    Metric("sync.streaming.scan_s", "s", "lower"),
    Metric("sync.streaming.apply_s", "s", "lower"),
    Metric("sync.streaming.clc_s", "s", "lower"),
    Metric("sync.streaming.peak_resident_events", "count", "lower"),
    Metric("sync.streaming.shards_read", "count", "lower"),
    Metric("sync.streaming.shards_written", "count", "lower"),
    Metric("core.correct.total_s", "s", "lower"),
    Metric("core.correct.self_s", "s", "lower"),
    Metric("tracing.reader.decode_s", "s", "lower"),
    Metric("tracing.reader.decode_mb_per_s", "MB/s", "higher"),
    Metric("tracing.writer.encode_s", "s", "lower"),
    Metric("tracing.writer.encode_mb_per_s", "MB/s", "higher"),
    Metric("service.api.body_parse_s", "s", "lower"),
    Metric("service.domain.from_json_s", "s", "lower"),
    Metric("service.domain.digest_s", "s", "lower"),
    Metric("service.application.execute_s", "s", "lower"),
    Metric("service.application.queue_wait_p50_s", "s", "lower"),
    Metric("service.application.exec_p50_s", "s", "lower"),
    Metric("service.application.concurrency_stretch", "ratio", "lower"),
    Metric("service.application.jobs_submitted", "count", "higher"),
    Metric("service.application.jobs_deduplicated", "count", "higher"),
    Metric("service.application.jobs_completed", "count", "higher"),
    Metric("service.application.jobs_failed", "count", "lower"),
    Metric("service.application.jobs_retried", "count", "lower"),
    Metric("service.application.jobs_dead", "count", "lower"),
    Metric("service.application.dedup_ratio", "fraction", "higher"),
    Metric("service.infrastructure.manifest_write_s", "s", "lower"),
    Metric("cache.store_s", "s", "lower"),
    Metric("cache.load_s", "s", "lower"),
    Metric("service.client.submit_p50_s", "s", "lower"),
    Metric("service.client.wait_p50_s", "s", "lower"),
    Metric("service.client.fetch_p50_s", "s", "lower"),
    Metric("service.client.round_trip_p90_s", "s", "lower"),
    Metric("trace.overhead_share", "fraction", "lower"),
    Metric("failure_rate", "fraction", "lower"),
]

_INMEMORY_OP = (
    "core.correct.total_s",
    ["tracing.trace.match_s", "sync.violations.scan_s", "sync.interpolation.build_s",
     "sync.interpolation.apply_s", "sync.schedule.compile_s", "sync.clc.kernel_s",
     "core.correct.self_s"],
)
_SERVICE_OP = (
    "op_p50_s",
    ["service.client.submit_p50_s", "service.client.wait_p50_s",
     "service.client.fetch_p50_s"],
)

#: workload -> (the op's time, the layers it splits into).  The budget
#: table closes when the layers add up to the op: children plus self for
#: ``correct_trace`` callers, submit + wait + fetch for service clients.
OP_SPLIT = {
    "inmem_jumpdense": _INMEMORY_OP,
    "inmem_jumpsparse": _INMEMORY_OP,
    "stream_jumpsparse": (
        "core.correct.total_s",
        ["sync.streaming.scan_s", "sync.streaming.apply_s", "sync.streaming.clc_s",
         "core.correct.self_s"],
    ),
    "svc_distinct": _SERVICE_OP,
    "svc_repeat": _SERVICE_OP,
}
