"""Batch fast path vs discrete-event engine: bit-for-bit equivalence.

The batch trace generator (repro.sim.batch) compiles the statically
known communication structure of the built-in workloads into per-rank
numpy timeline kernels; its contract is *bit-identity* with the engine
— same timestamps, same event order, same RNG stream positions — so
``engine="batch"`` can be substituted anywhere without changing a
single figure.  The comparison itself is the shared
:func:`repro.verify.oracles.assert_batch_matches_engine` invariant (the
same code the ``batch`` fuzz campaign runs); these tests pin the
deterministic matrix of every workload under every timer technology
and additionally require the fast path to actually *engage* (not fall
back) on each of them.
"""

from __future__ import annotations

import pytest
from conftest import examples
from hypothesis import given

from repro.clocks.factory import TIMER_TECHNOLOGIES
from repro.cluster import inter_node, xeon_cluster
from repro.errors import ConfigurationError
from repro.mpi import MpiWorld
from repro.options import RunOptions
from repro.sim.batch import BatchFallback, run_batch
from repro.verify.cases import BATCH_WORKLOADS
from repro.verify.oracles import assert_batch_matches_engine
from repro.verify.strategies import batch_specs
from repro.workloads import PopConfig, pop_worker


def _params(workload: str, timer: str, **overrides) -> dict:
    base = {
        "workload": workload,
        "nranks": 4,
        "pinning": "inter_node",
        "timer": timer,
        "seed": 11,
        "workload_seed": 3,
        "tracing": True,
        "measure_offsets": True,
        "sync_repeats": 3,
        "mpi_regions": True,
        "trace_buffer_capacity": 8,
        "shape": {},
    }
    base.update(overrides)
    return base


@pytest.mark.parametrize("timer", TIMER_TECHNOLOGIES)
@pytest.mark.parametrize("workload", sorted(BATCH_WORKLOADS))
def test_batch_engages_and_matches(workload, timer):
    """Every built-in workload x every clock model: identical and engaged."""
    taken = assert_batch_matches_engine(_params(workload, timer))
    assert taken == "batch", f"{workload}/{timer} fell back to the engine"


def test_batch_matches_without_tracing_or_offsets():
    for overrides in (
        {"tracing": False},
        {"measure_offsets": False, "expect": None},
        {"tracing": False, "measure_offsets": False, "expect": None},
    ):
        expect_engaged = overrides.pop("expect", "batch")
        taken = assert_batch_matches_engine(
            _params("sparse", "tsc", **overrides)
        )
        if expect_engaged is not None:
            assert taken == expect_engaged


@examples(15)
@given(spec=batch_specs())
def test_batch_fuzz_lite(spec):
    """A tier-1 slice of the ``batch`` fuzz campaign's search space."""
    taken = assert_batch_matches_engine(spec.params)
    if spec.params.get("expect_engaged"):
        assert taken == "batch"


@pytest.mark.parametrize("workload", ["sparse", "pop", "smg2000"])
def test_periodic_sync_engages_and_matches(workload):
    """Piggybacked periodic sync runs batched end-to-end, bit-identical
    (including the periodic_series measurements and RNG states)."""
    for every in (1, 2):
        taken = assert_batch_matches_engine(_params(
            workload, "tsc", periodic_sync_every=every, periodic_sync_repeats=2,
        ))
        assert taken == "batch", f"{workload} (every={every}) fell back"


@pytest.mark.parametrize("workload", ["sparse", "pop", "smg2000"])
def test_congestion_engages_and_matches(workload):
    """Congestion-coupled latency runs batched end-to-end, bit-identical
    (the solver replays the engine's in-flight counter exactly)."""
    for alpha, capacity in ((0.5, 16), (1.0, 1)):
        taken = assert_batch_matches_engine(_params(
            workload, "tsc", congestion_alpha=alpha,
            congestion_capacity=capacity,
        ))
        assert taken == "batch", f"{workload} (alpha={alpha}) fell back"


def test_periodic_and_congestion_together():
    taken = assert_batch_matches_engine(_params(
        "sparse", "mpi_wtime", periodic_sync_every=1, congestion_alpha=0.5,
    ))
    assert taken == "batch"


def _every_collective_worker(root: int, nbytes: int = 24):
    """A worker calling all ten collectives, rooted ones at ``root``.

    It publishes a ``batch_key``, so the batch engine records it by
    running this generator; its results depend on rank only.
    """

    def worker(ctx):
        r = root % ctx.size
        everyone = {i: i for i in range(ctx.size)}
        yield from ctx.compute(1e-4 * (ctx.rank + 1))
        yield from ctx.barrier()
        yield from ctx.bcast(root=r, nbytes=nbytes, payload="x")
        yield from ctx.reduce(root=r, nbytes=nbytes, value=1.0)
        yield from ctx.allreduce(nbytes=nbytes, value=1.0)
        yield from ctx.gather(root=r, nbytes=nbytes, value=ctx.rank)
        yield from ctx.scatter(root=r, nbytes=nbytes, values=everyone)
        yield from ctx.allgather(nbytes=nbytes, value=ctx.rank)
        yield from ctx.alltoall(nbytes=nbytes, values=everyone)
        yield from ctx.scan(nbytes=nbytes, value=1)
        yield from ctx.reduce_scatter(nbytes=nbytes, values=everyone)
        return ctx.rank

    worker.batch_key = ("every_collective", root, nbytes)
    return worker


@pytest.mark.parametrize("nranks,root", [(2, 1), (3, 2), (5, 3), (8, 5)])
@pytest.mark.parametrize("tracing", [True, False])
@pytest.mark.parametrize("periodic_sync_every", [0, 2])
def test_every_collective_engages_and_matches(nranks, root, tracing,
                                              periodic_sync_every):
    """All ten collective algorithms run batched, bit-identical to the
    engine, at power-of-two and other sizes with non-zero roots."""
    from repro.verify.oracles import _batch_world, _require_runs_identical

    params = _params("sparse", "tsc", nranks=nranks,
                     periodic_sync_every=periodic_sync_every)
    runs = {
        engine: _batch_world(params).run(
            _every_collective_worker(root), tracing=tracing, sync_repeats=3,
            options=RunOptions(engine=engine),
        )
        for engine in ("reference", "batch")
    }
    assert runs["batch"].engine == "batch", runs["batch"].fallback_reason
    _require_runs_identical(runs["reference"], runs["batch"], context="collectives")


# ----------------------------------------------------------------------
# Fallback-coverage matrix: one explicit expectation per workload x
# feature, so vectorizing a fallback reason (or regressing one) flips a
# pinned assertion instead of silently changing the execution path.
# ----------------------------------------------------------------------
#: feature -> (world kwargs, run kwargs, expected fallback_reason;
#: None means the fast path must engage).
FALLBACK_COVERAGE = {
    "plain": ({}, {}, None),
    "periodic_sync": ({"periodic_sync_every": 2}, {}, None),
    "congestion": ({"congestion_alpha": 0.5}, {}, None),
    "until": ({}, {"until": 1e9}, "until"),
}


@pytest.mark.parametrize("feature", sorted(FALLBACK_COVERAGE))
@pytest.mark.parametrize("workload", sorted(BATCH_WORKLOADS))
def test_fallback_coverage_matrix(workload, feature):
    from repro.options import RunOptions
    from repro.verify.oracles import _batch_worker

    world_kw, run_kw, expected_reason = FALLBACK_COVERAGE[feature]
    worker = _batch_worker(
        {"workload": workload, "nranks": 4, "workload_seed": 3, "shape": {}}
    )
    result = _world(**world_kw).run(
        worker, options=RunOptions(engine="batch"), **run_kw
    )
    if expected_reason is None:
        assert result.engine == "batch", (
            f"{workload}/{feature} fell back: {result.fallback_reason}"
        )
        assert result.fallback_reason is None
    else:
        assert result.engine == "reference"
        assert result.fallback_reason == expected_reason


def _world(**kwargs) -> MpiWorld:
    preset = xeon_cluster()
    return MpiWorld(
        preset, inter_node(preset.machine, 4), timer="tsc", seed=2,
        duration_hint=60.0, **kwargs,
    )


class TestFallbacks:
    """Dynamic structure must fall back — silently and identically."""

    def test_unknown_engine_rejected(self):
        from repro.workloads import SparseConfig, sparse_worker

        with pytest.raises(ConfigurationError):
            _world().run(
                sparse_worker(SparseConfig(rounds=1)),
                options=RunOptions(engine="turbo"),
            )

    def test_until_falls_back(self):
        from repro.workloads import SparseConfig, sparse_worker

        result = _world().run(
            sparse_worker(SparseConfig(rounds=2)), until=1e9,
            options=RunOptions(engine="batch"),
        )
        assert result.engine == "reference"

    def test_subcommunicator_falls_back_identically(self):
        """pop with row communicators plans a split -> BatchFallback,
        and the fallback reruns the reference engine bit-identically."""
        config = PopConfig(
            steps=2, step_time=1e-3, trace_window=None, grid=(4, 1),
            reductions_per_step=1, row_reductions=True,
        )
        ref = _world().run(
            pop_worker(config, seed=1), options=RunOptions(engine="reference")
        )
        bat = _world().run(
            pop_worker(config, seed=1), options=RunOptions(engine="batch")
        )
        assert bat.engine == "reference"
        assert bat.duration == ref.duration
        assert bat.events_processed == ref.events_processed
        assert bat.rng_states == ref.rng_states

    def test_fallback_raises_before_mutation(self):
        """BatchFallback must surface before any shared state changes,
        so the reference rerun starts from pristine RNG/clock state."""
        config = PopConfig(
            steps=1, step_time=1e-3, trace_window=None, grid=(4, 1),
            row_reductions=True,
        )
        world = _world()
        worker = pop_worker(config, seed=1)
        with pytest.raises(BatchFallback):
            run_batch(world, worker)
        # The aborted attempt must leave the world exactly as a fresh
        # one: the subsequent reference run has to be bit-identical to
        # a run on a never-touched world.
        after = world.run(worker, options=RunOptions(engine="reference"))
        pristine = _world().run(
            pop_worker(config, seed=1), options=RunOptions(engine="reference")
        )
        assert after.duration == pristine.duration
        assert after.events_processed == pristine.events_processed
        assert after.rng_states == pristine.rng_states

    def test_receive_nobody_sends_on(self):
        with pytest.raises(BatchFallback) as caught:
            run_batch(_world(), _messages("lonely", sends=0, receives=1))
        assert caught.value.code == "unmatched_recv"

    def test_one_receive_more_than_sends(self):
        with pytest.raises(BatchFallback) as caught:
            run_batch(_world(), _messages("short", sends=2, receives=3))
        assert caught.value.code == "missing_send"


def _messages(key, *, sends: int, receives: int):
    """Rank 0 sends ``sends`` messages on tag 5, rank 1 posts ``receives``
    receives on it; ``key`` only names the plan."""

    def worker(ctx):
        if ctx.rank == 0:
            for _ in range(sends):
                yield from ctx.send(1, tag=5, nbytes=8)
        elif ctx.rank == 1:
            for _ in range(receives):
                yield from ctx.recv(0, tag=5)
        return None

    worker.batch_key = ("messages", key, sends, receives)
    return worker


class TestPlanCache:
    """Compiled plans stay cached up to a budget of trace events and sends,
    least recently used first out."""

    def test_insert_over_budget_evicts_the_oldest(self, monkeypatch):
        from collections import OrderedDict

        import repro.sim.batch as batch

        monkeypatch.setattr(batch, "_PLAN_CACHE", OrderedDict())
        run_batch(_world(), _messages("a", sends=3, receives=3))
        (weight,) = [plan.weight for plan in batch._PLAN_CACHE.values()]
        assert weight > 0
        monkeypatch.setattr(batch, "_PLAN_CACHE_EVENTS", 2 * weight)

        def cached():
            return [key[0][1] for key in batch._PLAN_CACHE]

        run_batch(_world(), _messages("b", sends=3, receives=3))
        assert cached() == ["a", "b"]
        run_batch(_world(), _messages("a", sends=3, receives=3))  # a hit refreshes "a"
        assert cached() == ["b", "a"]
        run_batch(_world(), _messages("c", sends=3, receives=3))
        assert cached() == ["a", "c"]

    def test_plan_over_budget_is_not_kept(self, monkeypatch):
        from collections import OrderedDict

        import repro.sim.batch as batch

        monkeypatch.setattr(batch, "_PLAN_CACHE", OrderedDict())
        monkeypatch.setattr(batch, "_PLAN_CACHE_EVENTS", 1)
        assert run_batch(_world(), _messages("big", sends=3, receives=3)).engine == "batch"
        assert not batch._PLAN_CACHE


class TestPlanLayout:
    """A compiled plan is flat numpy arrays per rank, not Python objects
    per segment, event or send."""

    def test_pop_plan_is_arrays(self, monkeypatch):
        from collections import OrderedDict

        import numpy as np

        import repro.sim.batch as batch
        from repro.workloads import simulate_workload

        monkeypatch.setattr(batch, "_PLAN_CACHE", OrderedDict())
        run = simulate_workload(
            "pop", nprocs=16, scale=0.15, seed=1, platform="opteron",
            placement="spread", options=RunOptions(engine="batch"),
        )
        assert run.engine == "batch"
        (plan,) = batch._PLAN_CACHE.values()
        for timeline in plan.timelines:
            for name in batch._Timeline.__slots__:
                assert isinstance(getattr(timeline, name), np.ndarray), name
        for name in ("send_src", "send_dst", "send_nbytes"):
            assert isinstance(getattr(plan, name), np.ndarray), name
        for static in plan.latency_cache.values():
            assert all(isinstance(a, np.ndarray) for a in static[:2])
        assert batch._plan_bytes(plan) <= 160 * run.trace.total_events()


class TestSharedClockTies:
    """``_evaluate_clocks`` tie handling: only *cross-rank* ties on a
    shared jittered clock are ambiguous (the engine breaks them on
    scheduling order); same-rank ties evaluate in program order on both
    paths, and private per-rank clocks never merge at all."""

    def _jittered_clock(self, seed=5):
        import numpy as np

        from repro.clocks.base import Clock
        from repro.clocks.drift import ConstantDrift

        return Clock(
            ConstantDrift(1e-6, 0.0), read_jitter=1e-8,
            rng=np.random.default_rng(seed),
        )

    def test_cross_rank_tie_falls_back(self):
        import numpy as np

        from repro.sim.batch import _evaluate_clocks

        clock = self._jittered_clock()
        with pytest.raises(BatchFallback) as exc:
            _evaluate_clocks(
                [np.array([1.0, 2.0]), np.array([2.0, 3.0])], [clock, clock]
            )
        assert exc.value.code == "shared_clock_tie"

    def test_same_rank_tie_matches_scalar_reads(self):
        import numpy as np

        from repro.sim.batch import _evaluate_clocks

        clock = self._jittered_clock()
        values = _evaluate_clocks(
            [np.array([1.0, 2.0, 2.0]), np.array([3.0])], [clock, clock]
        )
        # The engine would evaluate these four reads sequentially in
        # true-time (= program) order on the shared clock.
        scalar = self._jittered_clock()
        expect = [scalar.read(t) for t in (1.0, 2.0, 2.0, 3.0)]
        assert values[0].tolist() == expect[:3]
        assert values[1].tolist() == expect[3:]

    def test_private_clocks_never_merge(self):
        import numpy as np

        from repro.sim.batch import _evaluate_clocks

        a, b = self._jittered_clock(1), self._jittered_clock(2)
        values = _evaluate_clocks(
            [np.array([1.0, 2.0]), np.array([2.0, 3.0])], [a, b]
        )
        sa, sb = self._jittered_clock(1), self._jittered_clock(2)
        assert values[0].tolist() == [sa.read(1.0), sa.read(2.0)]
        assert values[1].tolist() == [sb.read(2.0), sb.read(3.0)]

    def test_unjittered_shared_clock_tie_is_fine(self):
        import numpy as np

        from repro.clocks.base import Clock
        from repro.clocks.drift import ConstantDrift
        from repro.sim.batch import _evaluate_clocks

        clock = Clock(ConstantDrift(1e-6, 0.0))
        values = _evaluate_clocks(
            [np.array([1.0, 2.0]), np.array([2.0, 3.0])], [clock, clock]
        )
        assert values[0].size == 2 and values[1].size == 2


def _fallback_job(rounds: int, engine: str):
    """A run that falls back (``until`` is unsupported by the fast path)."""
    from repro.options import RunOptions
    from repro.workloads import SparseConfig, sparse_worker

    world = _world()
    return world.run(
        sparse_worker(SparseConfig(rounds=rounds)), until=1e9,
        options=RunOptions(engine=engine),
    )


class TestFallbackReasons:
    """Every fallback carries a machine-readable reason code, telemetry
    on or off, and the code survives the runner's result cache."""

    def test_reason_code_attached_without_telemetry(self):
        from repro.options import RunOptions
        from repro.workloads import SparseConfig, sparse_worker

        result = _world().run(
            sparse_worker(SparseConfig(rounds=2)), until=1e9,
            options=RunOptions(engine="batch"),
        )
        assert result.engine == "reference"
        assert result.fallback_reason == "until"

    def test_no_plan_reason(self):
        from repro.options import RunOptions

        def adhoc(ctx):
            yield from ctx.compute(1e-4)
            return None

        result = _world().run(adhoc, options=RunOptions(engine="batch"))
        assert result.engine == "reference"
        assert result.fallback_reason == "no_plan"

    def test_raw_yield_reason(self):
        """A keyed worker that yields engine requests itself cannot be
        recorded; it runs on the reference engine."""
        from repro.options import RunOptions
        from repro.sim.primitives import Compute

        def raw(ctx):
            yield Compute(1e-4)
            return None

        raw.batch_key = ("raw",)
        result = _world().run(raw, options=RunOptions(engine="batch"))
        assert result.engine == "reference"
        assert result.fallback_reason == "raw_yield"

    def test_engaged_and_reference_paths_have_no_reason(self):
        from repro.options import RunOptions
        from repro.workloads import SparseConfig, sparse_worker

        engaged = _world().run(
            sparse_worker(SparseConfig(rounds=2)), options=RunOptions(engine="batch")
        )
        assert engaged.engine == "batch"
        assert engaged.fallback_reason is None

        reference = _world().run(
            sparse_worker(SparseConfig(rounds=2)),
            options=RunOptions(engine="reference"),
        )
        assert reference.fallback_reason is None

    def test_reason_survives_runner_cache_round_trip(self, tmp_path):
        from repro.analysis.runner import run_grid
        from repro.cache import ResultCache
        from repro.options import RunOptions

        grid = [dict(rounds=2, engine="batch")]
        cold = run_grid(
            _fallback_job, grid, options=RunOptions(cache=ResultCache(tmp_path))
        )
        warm_cache = ResultCache(tmp_path)
        warm = run_grid(
            _fallback_job, grid, options=RunOptions(cache=warm_cache)
        )
        assert warm_cache.hits == 1
        assert cold[0].fallback_reason == "until"
        assert warm[0].fallback_reason == "until"
        assert warm[0].rng_states == cold[0].rng_states
