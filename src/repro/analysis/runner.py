"""Parallel experiment execution: a deterministic grid runner.

Every paper figure is an embarrassingly parallel grid: independent
``(config, seed)`` simulation jobs whose outputs are aggregated
afterwards.  :func:`run_grid` executes such a grid either serially or
over a :class:`concurrent.futures.ProcessPoolExecutor`, with two
guarantees the figures depend on:

* **bit-for-bit determinism** — each job carries its complete
  configuration (including its seed) in its kwargs, every job seeds its
  own :class:`repro.rng.RngFabric` from those kwargs, and results are
  returned in grid order regardless of completion order.  Running with
  ``jobs=8`` therefore produces *exactly* the bytes of ``jobs=None``;
  there is no shared RNG state to race on.  :func:`derive_seed` is the
  blessed way to mint per-job seeds from a base seed and job names
  (stable across processes and Python versions, unlike ``hash``).

* **transparent caching** — pass a :class:`repro.cache.ResultCache` and
  completed jobs are stored under a content-addressed key; a re-run of
  an unchanged grid never spawns a worker.  Workers write through to the
  same on-disk cache, so a partially-complete interrupted grid resumes
  where it stopped.

Pool runs cut the pending configs into contiguous **batches** (one
pickled round-trip for several jobs) and hand them to the pool in grid
order; the executor's own queue gives the next batch to whichever worker
is free.  At most two batches per worker are in flight at any moment
(*backpressure* — a 100k-config grid never materializes 100k futures).
Telemetry sees ``runner.batches`` / ``runner.jobs_executed`` counters
and a ``runner.worker_utilization`` gauge.

Job functions must be module-level (picklable by reference) and accept
keyword arguments only from their grid entry.  Keep jobs coarse — one
simulation, not one event — so process startup cost stays negligible.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from time import perf_counter
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.cache import ResultCache
from repro.options import RunOptions
from repro.rng import stable_hash32
from repro.telemetry import ensure_telemetry

__all__ = ["run_grid", "derive_seed", "seed_grid"]

#: Ceiling on configs per submitted batch (keeps per-future latency low
#: even on huge grids).
_MAX_BATCH = 32

#: In a pool worker: the event its parent sets once the grid has failed.
_grid_failed = None


def _join_grid(failed) -> None:
    """Pool initializer: keep the parent's failure event."""
    global _grid_failed
    _grid_failed = failed


def derive_seed(base_seed: int, *names) -> int:
    """Deterministic per-job seed from a base seed and job coordinates.

    >>> derive_seed(7, "fig7", 2) == derive_seed(7, "fig7", 2)
    True
    >>> derive_seed(7, "fig7", 2) != derive_seed(7, "fig7", 3)
    True
    """
    return stable_hash32(("seed", int(base_seed)), *names)


def seed_grid(base_config: dict[str, Any], seeds: Iterable[int]) -> list[dict[str, Any]]:
    """Expand one config into a grid varying only its ``seed``."""
    return [{**base_config, "seed": int(s)} for s in seeds]


def _call_batch(func: Callable[..., Any], kwargs_list: list[dict[str, Any]],
                cache: Optional[ResultCache]) -> list[tuple[Any, float]]:
    """Batch body (a worker's, or the whole grid of a serial run): compute
    each job and (best-effort) write through.

    Returns one ``(value, elapsed_seconds)`` pair per job, so the parent
    can account per-job wall time and worker utilization (each worker
    times itself).  The write-through is what makes an interrupted grid
    crash-resilient: results land in the shared on-disk cache the moment
    they exist, not when the parent collects them.
    """
    out = []
    for kwargs in kwargs_list:
        if _grid_failed is not None and _grid_failed.is_set():
            raise RuntimeError("the grid failed; its remaining jobs are dropped")
        start = perf_counter()
        value = func(**kwargs)
        elapsed = perf_counter() - start
        if cache is not None:
            cache.store(cache.key(func, kwargs), value)
        out.append((value, elapsed))
    return out


def _auto_batch(njobs: int, nworkers: int) -> int:
    """Batch size balancing IPC amortization against load balance.

    Aim for ~8 batches per worker so a slow batch near the end of the
    grid leaves the others little to wait for, capped at
    :data:`_MAX_BATCH`; tiny grids degenerate to one config per batch.
    """
    return max(1, min(_MAX_BATCH, njobs // (nworkers * 8)))


def run_grid(
    func: Callable[..., Any],
    grid: Sequence[dict[str, Any]],
    *,
    options: Optional[RunOptions] = None,
) -> list[Any]:
    """Run ``func(**cfg)`` for every ``cfg`` in ``grid``.

    Parameters
    ----------
    func:
        Module-level callable (workers import it by reference).
    grid:
        Sequence of keyword-argument dicts, one per job.  Results come
        back as a list aligned with this sequence.
    options:
        A :class:`repro.options.RunOptions`, the grid's only
        configuration; ``jobs``, ``cache``, and ``telemetry`` are
        consulted here.  ``jobs=None``/``1`` runs in-process (serial);
        ``N > 1`` fans out over a process pool of ``N`` workers.  With a
        ``cache`` (:class:`ResultCache`), hits skip execution entirely;
        misses are stored as soon as they are computed, by the process
        that computed them (crash resilience).  A ``telemetry`` recorder
        is also attached to the cache for load/store latencies, and
        collects ``runner.job`` wall-time observations,
        ``runner.jobs_from_cache`` and ``runner.jobs_executed``
        counters, and for pool runs a ``runner.batches`` counter and a
        ``runner.worker_utilization`` gauge.

    Returns
    -------
    list
        ``[func(**grid[0]), func(**grid[1]), ...]`` — identical for any
        ``jobs`` value.  A job that raises propagates its exception; no
        further batch is handed to the pool, and the workers run no job
        they have not started.
    """
    options = options or RunOptions()
    tele = ensure_telemetry(options.telemetry)
    cache = options.cache
    if cache is not None and tele.enabled:
        cache.telemetry = tele

    configs = [dict(cfg) for cfg in grid]
    results: list[Any] = [None] * len(configs)
    pending = list(range(len(configs)))

    with tele.span("runner.run_grid", func=_func_label(func), njobs=len(configs)) as grid_span:
        if cache is not None:
            still_pending = []
            for i in pending:
                hit, value = cache.load(cache.key(func, configs[i]))
                if hit:
                    results[i] = value
                else:
                    still_pending.append(i)
            pending = still_pending
            if tele.enabled:
                tele.count("runner.jobs_from_cache", len(configs) - len(pending))

        def land(indices: list[int], pairs: list[tuple[Any, float]]) -> float:
            """Results into grid order; returns the jobs' summed wall time."""
            for i, (value, elapsed) in zip(indices, pairs):
                results[i] = value
                if tele.enabled:
                    tele.observe("runner.job", elapsed)
                    tele.count("runner.jobs_executed")
            return sum(elapsed for _, elapsed in pairs)

        nworkers = min(options.jobs or 1, len(pending))
        if nworkers <= 1:
            land(pending, _call_batch(func, [configs[i] for i in pending], cache))
            return results

        # Workers write through on a handle of their own (the parent's
        # carries its recorder and hit/miss counters).
        worker_cache = ResultCache(cache.root, version=cache.version) if cache is not None else None
        batch = _auto_batch(len(pending), nworkers)
        cut = [pending[k:k + batch] for k in range(0, len(pending), batch)]
        batches = iter(cut)
        busy = 0.0
        pool_start = perf_counter() if tele.enabled else 0.0
        failed = multiprocessing.Event()
        with ProcessPoolExecutor(max_workers=nworkers, initializer=_join_grid,
                                 initargs=(failed,)) as pool:
            outstanding: dict[Any, list[int]] = {}

            def submit() -> None:
                indices = next(batches, None)
                if indices is not None:
                    fut = pool.submit(
                        _call_batch, func, [configs[i] for i in indices], worker_cache
                    )
                    outstanding[fut] = indices

            for _ in range(2 * nworkers):
                submit()
            try:
                while outstanding:
                    done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                    for fut in done:
                        # fut.result() re-raises a worker's exception here.
                        busy += land(outstanding.pop(fut), fut.result())
                        submit()
            except BaseException:
                # The executor has already handed queued batches to its
                # workers' call queue, where they cannot be cancelled; so
                # every worker also skips each job it has not started.
                failed.set()
                pool.shutdown(cancel_futures=True)
                raise
        if tele.enabled:
            # Fraction of worker-seconds actually spent inside jobs; the
            # rest is pool startup, pickling, and scheduling slack.
            wall = perf_counter() - pool_start
            if wall > 0:
                tele.gauge("runner.worker_utilization", busy / (nworkers * wall))
            tele.count("runner.batches", len(cut))
            grid_span.set(workers=nworkers, batch=batch)
    return results


def _func_label(func: Callable[..., Any]) -> str:
    return getattr(func, "__qualname__", repr(func))
