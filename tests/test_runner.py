"""Tests for the parallel experiment runner (repro.analysis.runner)."""

from __future__ import annotations

import time

import pytest

from repro.analysis import experiments as E
from repro.analysis.runner import _call_batch, derive_seed, run_grid, seed_grid
from repro.cache import ResultCache
from repro.options import RunOptions
from repro.telemetry import TelemetryRecorder


def square(x, offset=0):
    """Module-level so ProcessPoolExecutor workers can import it."""
    return x * x + offset


def failing(x):
    raise ValueError(f"boom {x}")


def failing_first(x):
    if x == 0:
        raise ValueError(f"boom {x}")
    time.sleep(0.2)
    return x


GRID = [dict(x=i) for i in range(7)]


class TestRunGrid:
    def test_serial(self):
        assert run_grid(square, GRID) == [i * i for i in range(7)]

    def test_results_in_grid_order_parallel(self):
        assert run_grid(square, GRID, options=RunOptions(jobs=3)) == [
            i * i for i in range(7)
        ]

    def test_empty_grid(self):
        assert run_grid(square, []) == []
        assert run_grid(square, [], options=RunOptions(jobs=4)) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            run_grid(failing, [dict(x=1), dict(x=2)], options=RunOptions(jobs=2))
        with pytest.raises(ValueError, match="boom"):
            run_grid(failing, [dict(x=1), dict(x=2)])

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "fig7", 2) == derive_seed(7, "fig7", 2)
        assert derive_seed(7, "fig7", 2) != derive_seed(7, "fig7", 3)
        assert derive_seed(8, "fig7", 2) != derive_seed(7, "fig7", 2)

    def test_seed_grid(self):
        grid = seed_grid(dict(a=1), [3, 4])
        assert grid == [dict(a=1, seed=3), dict(a=1, seed=4)]


class TestDeterminism:
    """run_grid with jobs=4 must be bit-for-bit identical to serial."""

    def test_fig7_grid_parallel_equals_serial(self):
        kwargs = dict(app="smg2000", runs=2, nprocs=4, scale=0.2)
        serial = E.fig7_app_violations(**kwargs, options=RunOptions(seed=2))
        parallel = E.fig7_app_violations(
            **kwargs, options=RunOptions(seed=2, jobs=4)
        )
        # Fig7RunStats is a dataclass of floats/ints: == is bit-for-bit.
        assert serial.runs == parallel.runs
        assert serial.app == parallel.app

    def test_fig8_grid_parallel_equals_serial(self):
        kwargs = dict(threads=(2, 4), runs=2, regions=20)
        serial = E.fig8_openmp_violations(**kwargs, options=RunOptions(seed=1))
        parallel = E.fig8_openmp_violations(
            **kwargs, options=RunOptions(seed=1, jobs=4)
        )
        assert serial.threads == parallel.threads
        for n in serial.threads:
            for a, b in zip(serial.reports[n], parallel.reports[n]):
                assert a.instances == b.instances
                assert (a.regions, a.any_violations) == (b.regions, b.any_violations)

    def test_table2_parallel_equals_serial(self):
        kwargs = dict(repeats=100, coll_repeats=30)
        serial = E.table2_latencies(**kwargs, options=RunOptions(seed=0))
        parallel = E.table2_latencies(
            **kwargs, options=RunOptions(seed=0, jobs=4)
        )
        assert serial.rows == parallel.rows  # frozen dataclass equality


class TestRunGridCaching:
    def test_cache_populated_and_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_grid(square, GRID, options=RunOptions(cache=cache))
        assert cache.misses == len(GRID)
        assert cache.stores == len(GRID)
        second = run_grid(square, GRID, options=RunOptions(cache=cache))
        assert second == first
        assert cache.hits == len(GRID)

    def test_parallel_workers_write_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(square, GRID, options=RunOptions(jobs=3, cache=cache))
        reread = ResultCache(tmp_path)
        assert run_grid(
            square, GRID, options=RunOptions(cache=reread)
        ) == [i * i for i in range(7)]
        assert reread.hits == len(GRID)
        assert reread.misses == 0

    def test_partial_hits_only_compute_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(square, GRID[:3], options=RunOptions(cache=cache))
        cache2 = ResultCache(tmp_path)
        out = run_grid(square, GRID, options=RunOptions(cache=cache2))
        assert out == [i * i for i in range(7)]
        assert cache2.hits == 3
        assert cache2.misses == 4


class TestCallWriteThrough:
    """_call_batch must persist results the moment they exist."""

    def test_call_stores_through_to_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        [(value, elapsed)] = _call_batch(square, [dict(x=5)], cache)
        assert value == 25
        assert elapsed >= 0.0
        hit, stored = ResultCache(tmp_path).load(cache.key(square, dict(x=5)))
        assert hit
        assert stored == 25

    def test_call_batch_preserves_order_and_stores_every_job(self, tmp_path):
        cache = ResultCache(tmp_path)
        out = _call_batch(square, GRID, cache)
        assert [v for v, _ in out] == [i * i for i in range(7)]
        assert all(elapsed >= 0.0 for _, elapsed in out)
        fresh = ResultCache(tmp_path)
        for cfg in GRID:
            hit, value = fresh.load(fresh.key(square, cfg))
            assert hit
            assert value == cfg["x"] ** 2

    def test_call_without_cache_root_skips_write_through(self):
        [(value, elapsed)] = _call_batch(square, [dict(x=3)], None)
        assert value == 9
        assert elapsed >= 0.0

    def test_write_through_uses_cache_version(self, tmp_path):
        versioned = ResultCache(tmp_path, version="other")
        _call_batch(square, [dict(x=2)], versioned)
        assert ResultCache(tmp_path, version="other").load(
            versioned.key(square, dict(x=2))
        ) == (True, 4)
        default = ResultCache(tmp_path)
        hit, _ = default.load(default.key(square, dict(x=2)))
        assert not hit  # different version namespace


class TestWorkStealing:
    """Pool runs: contiguous batches handed to the pool in grid order.  No
    lanes or stealing remain; the class keeps its name so test ids hold."""

    def test_batched_parallel_identical_to_serial(self):
        # 200 configs over 3 workers make batches of 8.
        grid = [dict(x=i) for i in range(200)]
        recorder = TelemetryRecorder()
        assert run_grid(
            square, grid, options=RunOptions(jobs=3, telemetry=recorder)
        ) == run_grid(square, grid)
        assert recorder.counters["runner.batches"] == 25

    def test_pool_telemetry_counters(self):
        recorder = TelemetryRecorder()
        grid = [dict(x=i) for i in range(30)]
        run_grid(square, grid, options=RunOptions(jobs=2, telemetry=recorder))
        assert recorder.counters["runner.jobs_executed"] == 30
        assert recorder.counters["runner.batches"] == 30  # 30 // 16 -> batches of 1
        assert 0.0 <= recorder.gauges["runner.worker_utilization"] <= 1.0

    def test_raising_job_stops_the_grid(self, tmp_path):
        """The first config raises: the error propagates, and each worker
        finishes at most the job it was running when the parent saw the
        failure (jobs here last 0.2 s).  The batches in flight (four of 18
        configs) and the ones behind them store nothing else."""
        grid = [dict(x=i) for i in range(300)]
        with pytest.raises(ValueError, match="boom 0"):
            run_grid(failing_first, grid,
                     options=RunOptions(jobs=2, cache=ResultCache(tmp_path)))
        cache = ResultCache(tmp_path)
        stored = sum(cache.load(cache.key(failing_first, cfg))[0] for cfg in grid)
        assert stored <= 2
