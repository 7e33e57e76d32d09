"""Latency-measurement kernels (Table II).

Classic ping-pong: rank 0 timestamps each round trip to rank 1 with its
local clock and halves it; per-rep samples give the mean and standard
deviation the paper reports per process placement.  The collective
variant times a full allreduce per repetition.

Both kernels run *untraced* (raw operations) — they are measurement
tools, not applications — and return their samples through the worker's
return value (collected by ``RunResult.results``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["pingpong_worker", "collective_timing_worker", "PING_TAG"]

PING_TAG = 77


def pingpong_worker(repeats: int = 1000, nbytes: int = 0, warmup: int = 10):
    """Build a ping-pong worker; rank 0 returns per-rep one-way latencies.

    Ranks other than 0 and 1 idle through a final barrier-free return,
    so the kernel can run under any communicator size.
    """

    def worker(ctx):
        if ctx.rank == 0:
            samples = np.empty(repeats, dtype=np.float64)
            for i in range(warmup + repeats):
                t1 = yield from ctx.wtime()
                yield from ctx.send_raw(1, tag=PING_TAG, nbytes=nbytes)
                yield from ctx.recv_raw(src=1, tag=PING_TAG)
                t2 = yield from ctx.wtime()
                if i >= warmup:
                    samples[i - warmup] = (t2 - t1) / 2.0
            return samples
        if ctx.rank == 1:
            for _ in range(warmup + repeats):
                yield from ctx.recv_raw(src=0, tag=PING_TAG)
                yield from ctx.send_raw(0, tag=PING_TAG, nbytes=nbytes)
        return None

    worker.batch_key = ("pingpong", repeats, nbytes, warmup)
    return worker


def collective_timing_worker(repeats: int = 200, nbytes: int = 8, warmup: int = 5):
    """Build an allreduce-timing worker; rank 0 returns per-rep latencies.

    Every rank participates in each allreduce; rank 0 measures the local
    completion time of the operation (the common way collective latency
    is reported).
    """

    def worker(ctx):
        samples = np.empty(repeats, dtype=np.float64) if ctx.rank == 0 else None
        for i in range(warmup + repeats):
            if ctx.rank == 0:
                t1 = yield from ctx.wtime()
            yield from ctx.allreduce(nbytes=nbytes, value=1)
            if ctx.rank == 0:
                t2 = yield from ctx.wtime()
                if i >= warmup:
                    samples[i - warmup] = t2 - t1
        return samples

    worker.batch_key = ("collective_timing", repeats, nbytes, warmup)
    return worker
