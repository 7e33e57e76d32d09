"""Tests for the high-level API (repro.core.api / correct)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.options import RunOptions

from repro import TracingSession, correct_trace
from repro.cluster.pinning import inter_core
from repro.cluster.machines import xeon_cluster
from repro.errors import ConfigurationError, SynchronizationError
from repro.workloads import SparseConfig, sparse_worker


@pytest.fixture(scope="module")
def session():
    return TracingSession(platform="xeon", nprocs=4, timer="mpi_wtime",
                          duration_hint=60.0, options=RunOptions(seed=11))


@pytest.fixture(scope="module")
def run(session):
    return session.trace(sparse_worker(SparseConfig(rounds=12, density=0.4), seed=11))


class TestTracingSession:
    def test_unknown_platform(self):
        with pytest.raises(ConfigurationError):
            TracingSession(platform="cray-1")

    def test_unknown_placement(self):
        with pytest.raises(ConfigurationError):
            TracingSession(placement="everywhere")

    def test_explicit_pinning(self):
        preset = xeon_cluster()
        pin = inter_core(preset.machine)
        session = TracingSession(platform=preset, placement=pin, duration_hint=10.0)
        assert session.pinning is pin

    def test_scheduler_placement(self):
        session = TracingSession(nprocs=10, placement="scheduler", duration_hint=10.0,
                                 options=RunOptions(seed=3))
        nodes = {loc.node for loc in session.pinning}
        assert nodes == {0, 1}  # 10 procs pack into 2 Xeon nodes

    def test_default_timer_from_preset(self):
        session = TracingSession(platform="powerpc", duration_hint=10.0)
        assert session.world.spec.name == "timebase"

    def test_lmin_matrix(self, session):
        mat = session.lmin_matrix()
        assert mat.shape == (4, 4)
        assert mat[0, 1] == pytest.approx(4.29e-6)
        assert np.all(np.diag(mat) == 0)

    def test_trace_produces_offsets(self, run):
        assert run.trace is not None
        assert run.init_offsets is not None and run.final_offsets is not None


class TestSyncPipeline:
    def test_full_chain(self, session, run):
        report = session.synchronize(run)
        stage_names = [s.stage for s in report.stages]
        assert stage_names == ["raw", "linear", "clc"]
        assert report.stage("clc").total_violated == 0
        assert report.clc is not None

    def test_monotone_improvement(self, session, run):
        """Each stage removes violations: raw >= linear >= clc == 0."""
        report = session.synchronize(run)
        raw = report.stage("raw").total_violated
        lin = report.stage("linear").total_violated
        clc = report.stage("clc").total_violated
        assert raw >= lin >= clc == 0

    def test_align_mode(self, session, run):
        report = session.synchronize(run, interpolation="align", clc=False)
        assert [s.stage for s in report.stages] == ["raw", "align"]
        assert report.clc is None

    def test_none_mode(self, session, run):
        report = session.synchronize(run, interpolation="none", clc=False)
        raw = report.stage("raw")
        none_stage = report.stage("none")
        assert none_stage.total_violated == raw.total_violated

    def test_invalid_mode(self, run):
        with pytest.raises(SynchronizationError):
            correct_trace(run, interpolation="quadratic")

    def test_requires_trace(self, session):
        from repro.mpi.runtime import RunResult

        empty = RunResult(trace=None, init_offsets=None, final_offsets=None)
        with pytest.raises(SynchronizationError):
            correct_trace(empty)

    def test_requires_measurements_for_linear(self, session):
        run2 = session.world.run(
            sparse_worker(SparseConfig(rounds=3), seed=1), measure_offsets=False
        )
        with pytest.raises(SynchronizationError):
            correct_trace(run2, interpolation="linear")

    def test_summary_text(self, session, run):
        report = session.synchronize(run)
        text = report.summary()
        assert "raw" in text and "clc" in text and "violations" in text

    def test_stage_lookup_error(self, session, run):
        report = session.synchronize(run)
        with pytest.raises(KeyError):
            report.stage("quantum")

    def test_final_trace_satisfies_condition_with_lmin(self, session, run):
        report = session.synchronize(run)
        from repro.sync.violations import scan_messages

        lmin = session.lmin_matrix()
        rep = scan_messages(report.trace.messages(strict=False), lmin)
        assert rep.violated == 0


class TestDocExample:
    def test_readme_quickstart(self):
        """The module-docstring example must work as written."""
        session = TracingSession(
            platform="xeon", nprocs=4, duration_hint=60.0,
            options=RunOptions(seed=7),
        )
        run = session.trace(sparse_worker(SparseConfig(rounds=5)))
        report = session.synchronize(run)
        assert report.stage("clc").total_violated == 0
