"""Infrastructure scaling benches for the parallel runner + hot scans.

Not a paper figure.  Two questions, answered with numbers in
``results/latest.{txt,json}``:

* does :func:`repro.analysis.runner.run_grid` actually buy wall-clock on
  a figure-sized grid (and stay bit-for-bit identical to serial)?
* does the process pool keep a deliberately skewed 2000-config sweep
  moving (batches handed out in grid order, ``configs_per_second``
  tracked, results still bit-identical to serial)?
* did the ``violations_by_pair`` vectorization (one
  ``np.unique``/``np.bincount`` pass instead of a boolean mask per rank
  pair) deliver against the original formulation on the 200k-message
  scan table?

The parallel-speedup assertion is gated on the machine actually having
cores to scale onto; the determinism assertion always runs.
"""

import os
import time

import numpy as np
import pytest
from conftest import emit, record_metric

from repro.analysis.experiments import _fig7_one_run, fig7_app_violations
from repro.analysis.runner import run_grid
from repro.options import RunOptions
from repro.sync.violations import resolve_lmin, violations_by_pair
from repro.tracing.trace import MessageTable

# ----------------------------------------------------------------------
# violations_by_pair: vectorized vs. per-pair masking (the old code)
# ----------------------------------------------------------------------
N_MESSAGES = 200_000
N_RANKS = 16


def make_table(n=N_MESSAGES, nranks=N_RANKS, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nranks, n)
    dst = (src + 1 + rng.integers(0, nranks - 1, n)) % nranks
    send = np.sort(rng.uniform(0, 100, n))
    recv = send + rng.normal(5e-6, 3e-6, n)
    z = np.zeros(n, dtype=np.int64)
    return MessageTable(src, dst, z, z, send, recv, z, z)


def by_pair_masking_reference(messages, lmin=0.0):
    """The pre-vectorization implementation, kept as the yardstick."""
    out = {}
    floors = resolve_lmin(lmin, messages.src, messages.dst)
    bad = messages.recv_ts - (messages.send_ts + floors) < 0
    pairs = messages.src * (int(messages.dst.max()) + 1) + messages.dst
    for key in np.unique(pairs):
        mask = pairs == key
        out[(int(messages.src[mask][0]), int(messages.dst[mask][0]))] = (
            int(bad[mask].sum()),
            int(mask.sum()),
        )
    return out


def test_by_pair_scan_rate(benchmark):
    table = make_table()
    result = benchmark(violations_by_pair, table, 1e-6)

    t0 = time.perf_counter()
    reference = by_pair_masking_reference(table, 1e-6)
    reference_s = time.perf_counter() - t0

    assert result == reference  # same dict, same counts
    speedup = reference_s / benchmark.stats["mean"]
    emit("")
    emit(
        f"violations_by_pair: {N_MESSAGES} messages / "
        f"{len(result)} pairs in {benchmark.stats['mean'] * 1e3:.2f} ms "
        f"(masking-loop reference {reference_s * 1e3:.1f} ms, {speedup:.1f}x)"
    )
    record_metric(
        "test_by_pair_scan_rate",
        messages=N_MESSAGES,
        pairs=len(result),
        reference_mean_s=reference_s,
        speedup_vs_masking_loop=speedup,
    )
    assert speedup >= 5.0


# ----------------------------------------------------------------------
# run_grid: fig7-sized grid, serial vs jobs=4
# ----------------------------------------------------------------------
FIG7_GRID = [
    dict(app="pop", rep_seed=1000 + rep, nprocs=16, scale=0.05, timer="tsc")
    for rep in range(4)
]


def test_runner_scaling(benchmark):
    t0 = time.perf_counter()
    serial = run_grid(_fig7_one_run, FIG7_GRID)
    serial_s = time.perf_counter() - t0

    def parallel_run():
        return run_grid(_fig7_one_run, FIG7_GRID, options=RunOptions(jobs=4))

    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_s = benchmark.stats["mean"]

    # Bit-for-bit determinism: the dataclasses compare exact floats.
    assert parallel == serial

    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    emit("")
    emit(
        f"run_grid fig7-sized grid ({len(FIG7_GRID)} jobs): "
        f"serial {serial_s:.2f} s, jobs=4 {parallel_s:.2f} s "
        f"({speedup:.2f}x on {cores} cores) — results identical"
    )
    record_metric(
        "test_runner_scaling",
        grid_jobs=len(FIG7_GRID),
        serial_s=serial_s,
        parallel_s=parallel_s,
        speedup=speedup,
        cores=cores,
    )
    if cores >= 4:
        assert speedup >= 2.0
    else:  # nothing to scale onto; determinism was still verified
        emit(f"  (speedup assertion skipped: only {cores} core(s) available)")


# ----------------------------------------------------------------------
# skewed sweep: 2000 configs with deliberately front-loaded cost
# ----------------------------------------------------------------------
SWEEP_CONFIGS = 2_000
SWEEP_HEAVY = 120  # the first configs cost ~40x the rest


def synthetic_sweep_job(idx, seed):
    """Cheap seeded job whose cost is front-loaded in grid order.

    All the heavy configs sit in the first few batches, so a static
    fan-out (one contiguous slice per worker) would leave the other
    workers idle for the back half of the run; the pool's own queue
    hands each batch to whichever worker is free instead.
    """
    rng = np.random.default_rng(seed)
    size = 60_000 if idx < SWEEP_HEAVY else 1_500
    values = rng.standard_normal(size)
    return float(np.partition(values, size // 2)[size // 2])


SWEEP_GRID = [dict(idx=i, seed=10_000 + i) for i in range(SWEEP_CONFIGS)]


def test_skewed_sweep(benchmark):
    from repro.telemetry import TelemetryRecorder

    t0 = time.perf_counter()
    serial = run_grid(synthetic_sweep_job, SWEEP_GRID)
    serial_s = time.perf_counter() - t0

    recorder = TelemetryRecorder()

    def pooled_run():
        return run_grid(
            synthetic_sweep_job, SWEEP_GRID,
            options=RunOptions(jobs=4, telemetry=recorder),
        )

    pooled = benchmark.pedantic(pooled_run, rounds=1, iterations=1)
    parallel_s = benchmark.stats["mean"]

    # The documented contract: identical results for any jobs value.
    assert pooled == serial

    batches = int(recorder.counters["runner.batches"])
    assert int(recorder.counters["runner.jobs_executed"]) == SWEEP_CONFIGS

    configs_per_second = SWEEP_CONFIGS / parallel_s
    emit("")
    emit(
        f"skewed sweep: {SWEEP_CONFIGS} configs "
        f"({SWEEP_HEAVY} heavy, front-loaded) in {parallel_s:.2f} s "
        f"jobs=4 ({configs_per_second:.0f} configs/s, serial "
        f"{serial_s:.2f} s) over {batches} batches, results identical"
    )
    record_metric(
        "test_skewed_sweep",
        configs=SWEEP_CONFIGS,
        serial_s=serial_s,
        parallel_s=parallel_s,
        configs_per_second=configs_per_second,
        batches=batches,
    )


def test_runner_cache_warm_rerun(benchmark, tmp_path):
    from repro.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    t0 = time.perf_counter()
    cold = fig7_app_violations(
        app="smg2000", runs=3, nprocs=8, scale=0.2,
        options=RunOptions(seed=2, cache=cache),
    )
    cold_s = time.perf_counter() - t0

    def warm():
        return fig7_app_violations(
            app="smg2000", runs=3, nprocs=8, scale=0.2,
            options=RunOptions(seed=2, cache=ResultCache(tmp_path / "cache")),
        )

    result = benchmark.pedantic(warm, rounds=1, iterations=1)
    warm_s = benchmark.stats["mean"]
    assert result.runs == cold.runs
    emit(
        f"result cache: cold fig7 grid {cold_s:.2f} s, warm re-run "
        f"{warm_s * 1e3:.1f} ms ({cold_s / warm_s:.0f}x)"
    )
    record_metric(
        "test_runner_cache_warm_rerun",
        cold_s=cold_s,
        warm_s=warm_s,
        speedup=cold_s / warm_s,
    )
    assert warm_s < cold_s / 5.0
