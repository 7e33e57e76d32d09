"""Out-of-core streaming CLC and the in-memory kernel (~2M events).

Not a paper figure — this bench tracks the tentpole promise of the
sharded trace store: the streaming CLC must stay bit-identical to the
in-memory corrector (asserted here on every run, and fuzzed by the
``streaming`` verify campaign) while holding at most ~one shard per
rank resident.  Both paths are timed warm (one untimed pass first) on
the same synthetic 2-rank trace and recorded as two separate
``*_events_per_second`` rates, so either kernel losing its throughput
shows in ``results/latest.json``.  Their ratio says little on its own:
it falls whenever the in-memory side alone gets faster.
"""

import tempfile
import time
from pathlib import Path

import numpy as np
from conftest import emit, record_metric

from repro.sync.clc import ControlledLogicalClock
from repro.sync.streaming import streaming_clc_correct
from repro.telemetry import TelemetryRecorder
from repro.tracing.events import EventLog
from repro.tracing.store import write_sharded_trace
from repro.tracing.trace import Trace

#: ~2M events total across two ranks; every 16th event is a message.
EVENTS_PER_RANK = 1_000_000
MSG_EVERY = 16
VIOLATIONS = 50
SHARD_EVENTS = 65_536


def synthetic_trace(n_per_rank=EVENTS_PER_RANK, msg_every=MSG_EVERY,
                    violations=VIOLATIONS) -> Trace:
    """Two ranks exchanging id-matched messages, a few of them reversed.

    Rank 1's clock leads rank 0's by half a tick, so messages land in
    order except at ``violations`` evenly spaced receives pulled back
    far enough to precede their sends — enough CLC jumps to exercise
    forward control and backward amortization without making the jump
    count itself the workload.
    """
    nmsg = n_per_rank // msg_every
    idx = np.arange(nmsg) * msg_every + (msg_every // 2)
    mids = np.arange(nmsg, dtype=np.int64)

    def cols(rank):
        ts = np.arange(n_per_rank, dtype=np.float64) * 1e-6
        et = np.empty(n_per_rank, dtype=np.int32)
        et[::2] = 0  # ENTER
        et[1::2] = 1  # EXIT
        a = np.zeros(n_per_rank, dtype=np.int64)
        b = np.zeros(n_per_rank, dtype=np.int64)
        c = np.zeros(n_per_rank, dtype=np.int64)
        d = np.full(n_per_rank, -1, dtype=np.int64)
        if rank == 0:
            et[idx] = 2  # SEND
            a[idx] = 1
        else:
            ts += 5e-7
            et[idx] = 3  # RECV
            a[idx] = 0
            bad = idx[:: max(1, nmsg // violations)]
            ts[bad] -= 0.9e-6  # now precedes its send (still monotone)
        d[idx] = mids
        return ts, et, a, b, c, d

    return Trace({r: EventLog.from_arrays(*cols(r)) for r in (0, 1)}, meta={})


def test_streaming_clc_throughput(benchmark):
    trace = synthetic_trace()
    total = trace.total_events()

    # The compiled schedule caches on the Trace object: warm up on one
    # copy, time a fresh one.
    ControlledLogicalClock().correct(synthetic_trace())
    t0 = time.perf_counter()
    ref = ControlledLogicalClock().correct(trace)
    inmemory_s = time.perf_counter() - t0
    inmemory_rate = total / inmemory_s

    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as tmp:
        shards = write_sharded_trace(
            trace, Path(tmp) / "shards", shard_events=SHARD_EVENTS
        )
        recorder = TelemetryRecorder()
        out_seq = iter(range(1_000_000))

        def run():
            return streaming_clc_correct(
                shards, Path(tmp) / f"out{next(out_seq)}", telemetry=recorder
            )

        result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
        streaming_s = benchmark.stats["mean"]
        streaming_rate = total / streaming_s
        peak = int(recorder.gauges["sync.clc.peak_resident_events"])

        # The whole point: same bits, bounded residency.
        got = result.trace.materialize()
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                ref.trace.logs[rank].timestamps, got.logs[rank].timestamps
            )
        assert result.jumps == ref.jumps
        assert peak <= 2 * SHARD_EVENTS

    emit("")
    emit(
        f"streaming CLC: {total} events, {result.jumps} jumps, "
        f"shard={SHARD_EVENTS} -> peak resident {peak} events "
        f"({peak / total * 100:.1f} % of trace); both warm"
    )
    emit(
        f"  streaming  {streaming_s:8.3f} s  {streaming_rate / 1e3:7.0f}k events/s"
    )
    emit(
        f"  in-memory  {inmemory_s:8.3f} s  {inmemory_rate / 1e3:7.0f}k events/s"
    )
    record_metric(
        "test_streaming_clc_throughput",
        events=total,
        shard_events=SHARD_EVENTS,
        peak_resident_events=peak,
        streaming_events_per_second=streaming_rate,
        inmemory_events_per_second=inmemory_rate,
    )
