"""Tests for periodic (Doleschal-style) offset synchronization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import inter_node, xeon_cluster
from repro.core.correct import correct_trace
from repro.errors import SynchronizationError
from repro.mpi import MpiWorld
from repro.workloads import SparseConfig, sparse_worker


def run_with_periodic(every=2, rounds=20, seed=2, timer="tsc", **world_kw):
    preset = xeon_cluster()
    world = MpiWorld(
        preset,
        inter_node(preset.machine, 4),
        timer=timer,
        seed=seed,
        duration_hint=60.0,
        periodic_sync_every=every,
        **world_kw,
    )
    return world.run(
        sparse_worker(SparseConfig(rounds=rounds, collective_every=4), seed=seed)
    )


class TestPeriodicMeasurement:
    def test_series_collected(self):
        run = run_with_periodic(every=2, rounds=20)
        # 20 rounds / collective_every=4 -> 5 collectives; instances
        # 0..4; every=2 matches instances 0, 2, 4.
        assert len(run.periodic_offsets) == 3
        for measurements in run.periodic_offsets:
            assert set(measurements) == {1, 2, 3}

    def test_disabled_by_default(self):
        preset = xeon_cluster()
        world = MpiWorld(
            preset, inter_node(preset.machine, 3), timer="tsc", duration_hint=30.0
        )
        run = world.run(sparse_worker(SparseConfig(rounds=6), seed=1))
        assert run.periodic_offsets == []

    def test_all_measurement_sets_ordering(self):
        run = run_with_periodic(every=2, rounds=20)
        sets = run.all_measurement_sets()
        assert len(sets) == 5  # init + 3 periodic + final
        times = [s[1].worker_time for s in sets]
        assert times == sorted(times)

    def test_measurement_not_traced(self):
        run = run_with_periodic(every=1, rounds=8)
        # Only app SEND/RECV events appear; sync traffic is raw.
        from repro.tracing.events import EventType

        counts = run.trace.event_counts()
        msgs = run.trace.messages()
        assert counts.get(EventType.SEND, 0) == len(msgs)


class TestPiecewisePipeline:
    def test_pipeline_mode(self):
        run = run_with_periodic(every=2, rounds=20, timer="mpi_wtime", seed=5)
        report = correct_trace(run, interpolation="piecewise", clc=False)
        assert [s.stage for s in report.stages] == ["raw", "piecewise"]
        assert report.stage("piecewise").total_violated <= report.stage("raw").total_violated

    def test_requires_measurements(self):
        preset = xeon_cluster()
        world = MpiWorld(
            preset, inter_node(preset.machine, 3), timer="tsc", duration_hint=30.0
        )
        run = world.run(
            sparse_worker(SparseConfig(rounds=4), seed=1), measure_offsets=False
        )
        with pytest.raises(SynchronizationError):
            correct_trace(run, interpolation="piecewise")

    def test_piecewise_beats_linear_on_bent_drift(self):
        """The point of [17]: with non-constant drift between the run's
        endpoints, mid-run knots reduce the residual.  Evaluate on the
        correction functions themselves: the piecewise model tracks the
        measured mid-run offsets that the straight line misses."""
        run = run_with_periodic(every=1, rounds=40, timer="mpi_wtime", seed=9)
        from repro.sync.interpolation import linear_interpolation, piecewise_interpolation

        linear = linear_interpolation(run.init_offsets, run.final_offsets)
        piecewise = piecewise_interpolation(run.all_measurement_sets())
        # At each periodic measurement, compare model prediction to the
        # measured offset (piecewise interpolates them exactly).
        worst_lin = 0.0
        worst_pw = 0.0
        for measurements in run.periodic_offsets:
            for rank, m in measurements.items():
                worst_lin = max(
                    worst_lin, abs(linear.offset_model(rank, m.worker_time) - m.offset)
                )
                worst_pw = max(
                    worst_pw,
                    abs(piecewise.offset_model(rank, m.worker_time) - m.offset),
                )
        assert worst_pw <= worst_lin
        assert worst_pw < 1e-9  # exact at the knots
