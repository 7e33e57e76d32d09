"""Tests for the trace-only pipeline correction modes."""

from __future__ import annotations

import pytest

from repro.core.correct import correct_trace
from repro.cluster import inter_node, xeon_cluster
from repro.errors import SynchronizationError
from repro.mpi import MpiWorld
from repro.workloads import SparseConfig, sparse_worker


@pytest.fixture(scope="module")
def drifting_run():
    preset = xeon_cluster()
    world = MpiWorld(
        preset, inter_node(preset.machine, 4), timer="mpi_wtime", seed=6,
        duration_hint=120.0,
    )

    def worker(ctx):
        # Bidirectional ring: error-estimation methods need traffic in
        # both directions of every pair they synchronize over.
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for _ in range(20):
            yield from ctx.sleep(1.0)
            yield from ctx.send(right, tag=1, nbytes=32)
            yield from ctx.send(left, tag=2, nbytes=32)
            yield from ctx.recv(src=left, tag=1)
            yield from ctx.recv(src=right, tag=2)
            yield from ctx.barrier()
        return None

    return world.run(worker)


@pytest.mark.parametrize("mode", ["hull", "minmax", "exchange"])
class TestTraceOnlyModes:
    def test_mode_reduces_violations(self, drifting_run, mode):
        report = correct_trace(drifting_run, interpolation=mode, clc=False)
        raw = report.stage("raw").total_violated
        corrected = report.stage(mode).total_violated
        assert raw > 0
        assert corrected < raw

    def test_mode_plus_clc_is_clean(self, drifting_run, mode):
        report = correct_trace(drifting_run, interpolation=mode, clc=True, lmin=1e-7)
        assert report.stage("clc").total_violated == 0


class TestModeValidation:
    def test_regression_mode_accepted(self, drifting_run):
        report = correct_trace(drifting_run, interpolation="regression", clc=False)
        assert report.stage("regression") is not None

    def test_unknown_mode_rejected(self, drifting_run):
        with pytest.raises(SynchronizationError):
            correct_trace(drifting_run, interpolation="astrology")

    def test_trace_only_modes_need_no_measurements(self, drifting_run):
        """Strip the measurements: trace-only modes still work."""
        from repro.mpi.runtime import RunResult
        from repro.tracing.trace import Trace

        trace = drifting_run.trace
        meta = {k: v for k, v in trace.meta.items() if not k.endswith("_offsets")}
        bare = RunResult(
            trace=Trace(dict(trace.logs), meta=meta), init_offsets=None, final_offsets=None
        )
        report = correct_trace(bare, interpolation="exchange", clc=False)
        assert report.stage("exchange") is not None
        with pytest.raises(SynchronizationError):
            correct_trace(bare, interpolation="linear")
