"""Parallel experiment execution: a deterministic work-stealing grid runner.

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

Scheduling is *work stealing* rather than a fixed fan-out, so grids of
thousands of configs stay efficient: the pending indices are split into
one contiguous deque per worker lane, each lane pulls **batches** from
the head of its own deque (amortizing inter-process overhead), and a
lane that drains its deque steals half a batch from the tail of the
longest remaining deque.  Only a bounded number of batch futures is in
flight at any moment (*backpressure* — a 100k-config grid never
materializes 100k futures), and telemetry exposes the scheduler:
``runner.steals`` / ``runner.batches`` counters plus
``runner.queue_depth.peak`` and ``runner.inflight.peak`` gauges.
Because results are keyed by grid index and jobs are deterministic,
stealing never changes a single output byte.

Job functions must be module-level (picklable by reference) and accept
keyword arguments only from their grid entry.  Keep jobs coarse — one
simulation, not one event — so process startup cost stays negligible.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from time import perf_counter
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.cache import ResultCache
from repro.errors import ConfigurationError
from repro.options import RunOptions
from repro.rng import stable_hash32

__all__ = ["run_grid", "derive_seed", "resolve_jobs", "seed_grid"]

#: Ceiling on configs per submitted batch (keeps per-future latency low
#: and steal granularity fine even on huge grids).
_MAX_BATCH = 32

#: Batch futures in flight per worker lane: one running, one queued so
#: the pool never idles between completions (this bounds the number of
#: materialized futures at ``2 * nworkers``).
_INFLIGHT_PER_LANE = 2


def derive_seed(base_seed: int, *names) -> int:
    """Deterministic per-job seed from a base seed and job coordinates.

    >>> derive_seed(7, "fig7", 2) == derive_seed(7, "fig7", 2)
    True
    >>> derive_seed(7, "fig7", 2) != derive_seed(7, "fig7", 3)
    True
    """
    return stable_hash32(("seed", int(base_seed)), *names)


def seed_grid(base_config: dict[str, Any], seeds: Iterable[int],
              seed_key: str = "seed") -> list[dict[str, Any]]:
    """Expand one config into a grid varying only its seed."""
    return [{**base_config, seed_key: int(s)} for s in seeds]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/1 -> serial, 0 -> all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _call(func: Callable[..., Any], kwargs: dict[str, Any],
          cache_root, cache_version) -> tuple[Any, float]:
    """Worker-side job body: compute and (best-effort) write through.

    Returns ``(value, elapsed_seconds)`` so the parent can account
    per-job wall time and worker utilization without clock skew games
    (each worker times itself).  The write-through is what makes an
    interrupted grid crash-resilient: results land in the shared
    on-disk cache the moment they exist, not when the parent collects
    them.
    """
    return _call_batch(func, [kwargs], cache_root, cache_version)[0]


def _call_batch(func: Callable[..., Any], kwargs_list: list[dict[str, Any]],
                cache_root, cache_version) -> list[tuple[Any, float]]:
    """Worker-side batch body: one pickled round-trip for many jobs."""
    cache = ResultCache(cache_root, version=cache_version) if cache_root is not None else None
    out = []
    for kwargs in kwargs_list:
        start = perf_counter()
        value = func(**kwargs)
        elapsed = perf_counter() - start
        if cache is not None:
            cache.store(cache.key(func, kwargs), value)
        out.append((value, elapsed))
    return out


class _StealingDeques:
    """Parent-side work-stealing state: one index deque per worker lane.

    Lanes own contiguous slices of the pending indices (cache-friendly:
    neighbouring configs usually share warm inputs).  An owner pops
    batches from the *head* of its deque; a lane whose deque is empty
    steals up to half the remaining work of the longest other deque
    from its *tail* — the classic owner-head/thief-tail split that
    minimizes contention on the hot end.
    """

    def __init__(self, pending: Sequence[int], nlanes: int, batch: int) -> None:
        self.batch = batch
        self.lanes: list[deque[int]] = [deque() for _ in range(nlanes)]
        chunk, extra = divmod(len(pending), nlanes)
        start = 0
        for lane in range(nlanes):
            size = chunk + (1 if lane < extra else 0)
            self.lanes[lane].extend(pending[start:start + size])
            start += size
        self.steals = 0

    def depth(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    def next_batch(self, lane: int) -> list[int]:
        """The lane's next batch of grid indices (own head, else steal)."""
        own = self.lanes[lane]
        if not own:
            victim = max(self.lanes, key=len)
            if not victim:
                return []
            self.steals += 1
            take = min(self.batch, max(1, len(victim) // 2))
            stolen = [victim.pop() for _ in range(take)]
            stolen.reverse()  # keep ascending grid order within the batch
            return stolen
        return [own.popleft() for _ in range(min(self.batch, len(own)))]


def _auto_batch(njobs: int, nworkers: int) -> int:
    """Batch size balancing IPC amortization against steal granularity.

    Aim for ~8 batches per lane so late imbalance can still be stolen
    away, capped at :data:`_MAX_BATCH`; tiny grids degenerate to one
    config per batch.
    """
    return max(1, min(_MAX_BATCH, njobs // (nworkers * 8)))


def run_grid(
    func: Callable[..., Any],
    grid: Sequence[dict[str, Any]],
    *,
    on_result: Optional[Callable[[int, Any], None]] = None,
    options: Optional[RunOptions] = None,
    telemetry=None,
    batch_size: Optional[int] = None,
) -> list[Any]:
    """Run ``func(**cfg)`` for every ``cfg`` in ``grid``.

    Parameters
    ----------
    func:
        Module-level callable (workers import it by reference).
    grid:
        Sequence of keyword-argument dicts, one per job.  Results come
        back as a list aligned with this sequence.
    on_result:
        Optional callback ``(index, result)`` invoked as each job
        finishes (completion order, not grid order) — for progress
        reporting.
    options:
        A :class:`repro.options.RunOptions`; ``jobs``, ``cache``, and
        ``telemetry`` are consulted here.  ``jobs=None``/``1`` runs
        in-process (serial); ``N > 1`` fans out over a process pool of
        ``N`` workers (:func:`resolve_jobs` maps the CLI's ``--jobs 0``
        to every core).  With a ``cache``
        (:class:`ResultCache`), hits skip execution entirely; misses are
        stored after computing (both in the parent and, for crash
        resilience, by the worker that produced them).
    telemetry:
        A :class:`repro.telemetry.TelemetryRecorder`; overrides
        ``options.telemetry`` when both are given.  The recorder is also
        attached to the cache for load/store latencies, and collects
        ``runner.job`` wall-time observations, a
        ``runner.worker_utilization`` gauge, ``runner.steals`` /
        ``runner.batches`` counters and ``runner.queue_depth.peak`` /
        ``runner.inflight.peak`` gauges for pool runs.
    batch_size:
        Configs per submitted batch for pool runs (default: sized
        automatically from the grid and worker count).  Purely a
        scheduling knob — results are identical for any value.

    Returns
    -------
    list
        ``[func(**grid[0]), func(**grid[1]), ...]`` — identical for any
        ``jobs`` value (and any ``batch_size``): work stealing reorders
        *execution*, never results.
    """
    options = options or RunOptions()
    tele = telemetry if telemetry is not None else options.telemetry_or_null
    jobs, cache = options.jobs, options.cache
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
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
                    if on_result is not None:
                        on_result(i, value)
                else:
                    still_pending.append(i)
            pending = still_pending
            if tele.enabled:
                tele.count("runner.jobs_from_cache", len(configs) - len(pending))

        nworkers = min(resolve_jobs(jobs), max(len(pending), 1))
        if nworkers <= 1 or len(pending) <= 1:
            for i in pending:
                if tele.enabled:
                    start = perf_counter()
                value = func(**configs[i])
                if tele.enabled:
                    tele.observe("runner.job", perf_counter() - start)
                    tele.count("runner.jobs_executed")
                if cache is not None:
                    cache.store(cache.key(func, configs[i]), value)
                results[i] = value
                if on_result is not None:
                    on_result(i, value)
            return results

        cache_root = str(cache.root) if cache is not None else None
        cache_version = cache.version if cache is not None else None
        batch = batch_size if batch_size is not None else _auto_batch(len(pending), nworkers)
        deques = _StealingDeques(pending, nworkers, batch)
        busy = 0.0
        batches = 0
        peak_inflight = 0
        pool_start = perf_counter() if tele.enabled else 0.0
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            outstanding: dict[Any, tuple[int, list[int]]] = {}

            def submit(lane: int) -> bool:
                indices = deques.next_batch(lane)
                if not indices:
                    return False
                fut = pool.submit(
                    _call_batch, func, [configs[i] for i in indices],
                    cache_root, cache_version,
                )
                outstanding[fut] = (lane, indices)
                return True

            if tele.enabled:
                tele.gauge_max("runner.queue_depth.peak", deques.depth())
            for lane in range(nworkers):
                for _ in range(_INFLIGHT_PER_LANE):
                    if not submit(lane):
                        break
            while outstanding:
                peak_inflight = max(peak_inflight, len(outstanding))
                done, _ = wait(set(outstanding), return_when=FIRST_COMPLETED)
                for fut in done:
                    lane, indices = outstanding.pop(fut)
                    batches += 1
                    pairs = fut.result()  # re-raises worker exceptions here
                    for i, (value, elapsed) in zip(indices, pairs):
                        if tele.enabled:
                            busy += elapsed
                            tele.observe("runner.job", elapsed)
                            tele.count("runner.jobs_executed")
                        results[i] = value
                        if on_result is not None:
                            on_result(i, value)
                    submit(lane)
        if tele.enabled:
            # Fraction of worker-seconds actually spent inside jobs; the
            # rest is pool startup, pickling, and scheduling slack.
            wall = perf_counter() - pool_start
            if wall > 0:
                tele.gauge("runner.worker_utilization", busy / (nworkers * wall))
            tele.count("runner.steals", deques.steals)
            tele.count("runner.batches", batches)
            tele.gauge_max("runner.inflight.peak", peak_inflight)
            grid_span.set(workers=nworkers, batch=batch, steals=deques.steals)
    return results


def _func_label(func: Callable[..., Any]) -> str:
    return getattr(func, "__qualname__", repr(func))
