"""Tests for exchange-based synchronization (repro.sync.exchange)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import inter_node, xeon_cluster
from repro.errors import SynchronizationError
from repro.mpi import MpiWorld
from repro.sync.exchange import exchange_correction, offsets_from_exchanges
from repro.sync.violations import scan_messages
from repro.tracing.events import CollectiveOp


def run_with_barriers(timer="mpi_wtime", seed=6, rounds=10, spacing=50.0, nprocs=4):
    """Ring exchanges with a barrier per round, spread over minutes so
    the clocks visibly drift between exchanges."""
    preset = xeon_cluster()
    world = MpiWorld(
        preset, inter_node(preset.machine, nprocs), timer=timer, seed=seed,
        duration_hint=rounds * spacing + 60.0,
    )

    def worker(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for _ in range(rounds):
            yield from ctx.sleep(spacing)
            yield from ctx.send(right, tag=1, nbytes=32)
            yield from ctx.recv(src=left, tag=1)
            yield from ctx.barrier()
        return None

    return world, world.run(worker)


class TestOffsetsFromExchanges:
    def test_one_set_per_exchange(self):
        _, run = run_with_barriers(rounds=6)
        sets = offsets_from_exchanges(run.trace)
        assert len(sets) == 6
        for s in sets:
            assert set(s) == {1, 2, 3}

    def test_estimates_track_explicit_measurements(self):
        """The free estimate must agree with the explicit Cristian
        measurement at the run's start to within its uncertainty (the
        collective's duration)."""
        _, run = run_with_barriers(rounds=6)
        sets = offsets_from_exchanges(run.trace)
        first = sets[0]
        for rank, m in first.items():
            explicit = run.init_offsets[rank].offset
            assert m.offset == pytest.approx(explicit, abs=max(m.rtt, 5e-5))


class TestExchangeCorrection:
    def test_reduces_violations_for_free(self):
        _, run = run_with_barriers(timer="mpi_wtime", seed=6)
        before = scan_messages(run.trace.messages(strict=False), 0.0)
        corr = exchange_correction(run.trace)
        after = scan_messages(
            corr.apply(run.trace).messages(refresh=True), 0.0
        )
        assert before.violated > 0
        assert after.violated < before.violated

    def test_requires_enough_exchanges(self):
        preset = xeon_cluster()
        world = MpiWorld(
            preset, inter_node(preset.machine, 3), timer="tsc", duration_hint=10.0
        )

        def worker(ctx):
            yield from ctx.barrier()
            return None

        run = world.run(worker)
        with pytest.raises(SynchronizationError):
            exchange_correction(run.trace)

    def test_master_identity(self):
        _, run = run_with_barriers(rounds=4)
        corr = exchange_correction(run.trace, master=2)
        ts = run.trace.logs[2].timestamps
        np.testing.assert_array_equal(corr.apply_rank(2, ts), ts)


class TestMixedTrace:
    def test_openmp_barriers_are_no_exchanges(self):
        # Three MPI barriers and two OpenMP regions, each with an implicit
        # barrier: the correction is built from the MPI barriers alone,
        # exactly as when the OpenMP events are not there.
        from repro.tracing.events import EventLog, EventType
        from repro.tracing.trace import Trace
        from repro.verify.cases import CaseSpec, build_case

        spec = CaseSpec("mixed", {
            "nranks": 3,
            "profiles": [{}, {"offset": 2e-4, "rate": 1e-5}, {"offset": -3e-4, "rate": -2e-5}],
            "collectives": [
                {"op": int(CollectiveOp.BARRIER), "members": [0, 1, 2],
                 "enters": [t, t + 1e-5, t + 2e-5], "exits": [t + 3e-5] * 3}
                for t in (1.0, 5.0, 9.0)
            ],
            "pomp": [
                {"master": 0, "threads": [0, 1, 2], "t0": t, "t1": t + 1e-3,
                 "skews": [0.1, 0.5, 0.9]}
                for t in (3.0, 7.0)
            ],
        })
        trace = build_case(spec).trace
        ops = trace.collectives().op.tolist()
        assert ops.count(int(CollectiveOp.OMP_BARRIER)) == 2
        mpi_only = Trace({
            rank: EventLog.from_arrays(*(
                column[log.etypes < int(EventType.OMP_FORK)]
                for column in (log.timestamps, log.etypes, log.a, log.b, log.c, log.d)
            ))
            for rank, log in trace.logs.items()
        })
        assert len(offsets_from_exchanges(trace)) == 3
        got = exchange_correction(trace).apply(trace)
        want = exchange_correction(mpi_only).apply(trace)
        for rank in trace.ranks:
            assert np.array_equal(got.logs[rank].timestamps, want.logs[rank].timestamps)
