"""Cross-cutting property-based tests (hypothesis) over whole pipelines.

These complement the per-module property tests by exercising the stack
end to end on randomized inputs: arbitrary workloads, timers, and seeds
must uphold the library's global invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import inter_node, scheduler_default, xeon_cluster
from repro.core.correct import correct_trace
from repro.mpi import MpiWorld
from repro.sync.clc import naive_shift_correct
from repro.sync.replay import replay_correct
from repro.sync.violations import scan_collectives, scan_messages
from repro.tracing.events import EventType
from repro.tracing.reader import read_trace
from repro.tracing.writer import write_trace
from repro.workloads import SparseConfig, sparse_worker

TIMERS = ["tsc", "gettimeofday", "mpi_wtime", "timebase", "global"]

slow_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_random_job(seed: int, timer: str, nprocs: int, rounds: int):
    preset = xeon_cluster()
    world = MpiWorld(
        preset,
        inter_node(preset.machine, nprocs),
        timer=timer,
        seed=seed,
        duration_hint=30.0,
    )
    run = world.run(
        sparse_worker(SparseConfig(rounds=rounds, density=0.35), seed=seed)
    )
    return world, run


class TestSimulationInvariants:
    @slow_settings
    @given(
        seed=st.integers(0, 2**16),
        timer=st.sampled_from(TIMERS),
        nprocs=st.integers(2, 6),
        rounds=st.integers(1, 8),
    )
    def test_runs_complete_and_balance(self, seed, timer, nprocs, rounds):
        """No deadlocks; every send has a receive; per-rank logs sorted."""
        _, run = run_random_job(seed, timer, nprocs, rounds)
        trace = run.trace
        counts = trace.event_counts()
        assert counts.get(EventType.SEND, 0) == counts.get(EventType.RECV, 0)
        _ = trace.messages()  # strict matching must close
        for rank in trace.ranks:
            assert trace.logs[rank].is_sorted()

    @slow_settings
    @given(seed=st.integers(0, 2**16), timer=st.sampled_from(TIMERS))
    def test_trace_io_roundtrip_any_simulated_trace(self, seed, timer, tmp_path_factory):
        _, run = run_random_job(seed, timer, nprocs=3, rounds=3)
        path = tmp_path_factory.mktemp("prop") / f"t{seed}.npz"
        loaded = read_trace(write_trace(run.trace, path))
        for rank in run.trace.ranks:
            np.testing.assert_array_equal(
                loaded.logs[rank].timestamps, run.trace.logs[rank].timestamps
            )
            np.testing.assert_array_equal(
                loaded.logs[rank].etypes, run.trace.logs[rank].etypes
            )
        assert len(loaded.messages()) == len(run.trace.messages())


class TestCorrectionInvariants:
    @slow_settings
    @given(seed=st.integers(0, 2**16), timer=st.sampled_from(TIMERS[:3]))
    def test_pipeline_always_ends_clean(self, seed, timer):
        world, run = run_random_job(seed, timer, nprocs=4, rounds=5)
        lmin = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                if i != j:
                    lmin[i, j] = world.min_latency(i, j)
        report = correct_trace(run, lmin=lmin)
        final = report.stages[-1]
        assert final.total_violated == 0
        # Stage sequence never increases violations.
        counts = [s.total_violated for s in report.stages]
        assert counts[-1] <= counts[0]

    @slow_settings
    @given(seed=st.integers(0, 2**16))
    def test_replay_equals_sequential_everywhere(self, seed):
        from repro.sync.clc import ControlledLogicalClock

        _, run = run_random_job(seed, "mpi_wtime", nprocs=4, rounds=5)
        seq = ControlledLogicalClock().correct(run.trace, lmin=1e-7)
        rep = replay_correct(run.trace, lmin=1e-7)
        for rank in run.trace.ranks:
            np.testing.assert_array_equal(
                seq.trace.logs[rank].timestamps, rep.clc.trace.logs[rank].timestamps
            )

    @slow_settings
    @given(seed=st.integers(0, 2**16))
    def test_naive_and_clc_both_clean_naive_never_moves_less(self, seed):
        """Both correctors restore the clock condition; the naive one
        can only shift events at least as far (no gamma glide-back)."""
        from repro.sync.clc import ControlledLogicalClock

        _, run = run_random_job(seed, "mpi_wtime", nprocs=4, rounds=5)
        lmin = 1e-7
        naive = naive_shift_correct(run.trace, lmin=lmin)
        clc = ControlledLogicalClock(gamma=1.0, amortization_window=0.0).correct(
            run.trace, lmin=lmin
        )
        for result in (naive, clc):
            assert scan_messages(result.trace.messages(), lmin=lmin).violated == 0
            coll, _ = scan_collectives(result.trace, lmin=lmin)
            assert coll.violated == 0
        # With gamma=1 and no backward pass, CLC shifts at least as much
        # as naive at every event (it additionally preserves intervals).
        for rank in run.trace.ranks:
            diff = (
                clc.trace.logs[rank].timestamps - naive.trace.logs[rank].timestamps
            )
            assert np.all(diff >= -1e-12)

    @slow_settings
    @given(seed=st.integers(0, 2**16))
    def test_clc_idempotent(self, seed):
        """Correcting an already-corrected trace changes nothing."""
        from repro.sync.clc import ControlledLogicalClock

        _, run = run_random_job(seed, "mpi_wtime", nprocs=4, rounds=4)
        clc = ControlledLogicalClock(gamma=1.0, amortization_window=0.0)
        once = clc.correct(run.trace, lmin=1e-7)
        twice = clc.correct(once.trace, lmin=1e-7)
        assert twice.jumps == 0
        for rank in run.trace.ranks:
            np.testing.assert_allclose(
                twice.trace.logs[rank].timestamps,
                once.trace.logs[rank].timestamps,
                rtol=0,
                atol=1e-12,
            )


class TestGroundTruthInvariant:
    @slow_settings
    @given(seed=st.integers(0, 2**16), nprocs=st.integers(2, 6))
    def test_perfect_clock_traces_never_violate(self, seed, nprocs):
        """The methodology's foundation: with the global clock the
        recorded order equals the true order — zero violations, always."""
        _, run = run_random_job(seed, "global", nprocs, rounds=6)
        assert scan_messages(run.trace.messages(), lmin=0.0).violated == 0
        coll, _ = scan_collectives(run.trace, lmin=0.0)
        assert coll.violated == 0
