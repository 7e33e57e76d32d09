"""Tests for OpenMP timestamp correction through ``correct_trace``.

The paper leaves open "whether offset alignment or interpolation can
alleviate the errors" of Fig. 8 and lists POMP semantics as a CLC
limitation; these tests pin the answers the model gives.  Per-thread
offset measurements feed the ``align``/``linear`` interpolations, and
the CLC enforces fork, join and barrier as collective instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import correct_trace
from repro.errors import SynchronizationError, TraceError
from repro.openmp.team import OmpTeamConfig, run_parallel_for_benchmark
from repro.sync.order import build_dependencies
from repro.sync.violations import scan_pomp
from repro.tracing.events import CollectiveOp, EventLog, EventType
from repro.tracing.trace import Trace


@pytest.fixture(scope="module")
def measured_trace():
    return run_parallel_for_benchmark(
        OmpTeamConfig(threads=4, regions=80), seed=2, measure_offsets=True
    )


def _interpolated(trace: Trace, scheme: str) -> Trace:
    return correct_trace(trace, interpolation=scheme, clc=False, scan=False).trace


def _clc(trace: Trace, lmin: float = 0.0):
    return correct_trace(trace, interpolation="none", clc=True, lmin=lmin)


class TestThreadCorrections:
    def test_alignment_removes_offset_violations(self, measured_trace):
        before = scan_pomp(measured_trace)
        assert before.any_violations > 0  # the Fig. 8 situation
        after = scan_pomp(_interpolated(measured_trace, "align"))
        # Offsets dominate on the SMP node; alignment answers the open
        # question affirmatively in this model.
        assert after.any_violations < before.any_violations
        assert after.pct("any") < 5.0

    def test_linear_also_works(self, measured_trace):
        assert scan_pomp(_interpolated(measured_trace, "linear")).pct("any") < 5.0

    def test_measurements_required(self):
        trace = run_parallel_for_benchmark(
            OmpTeamConfig(threads=4, regions=10), seed=1, measure_offsets=False
        )
        for scheme in ("align", "linear"):
            with pytest.raises(SynchronizationError, match="offsets measured|measurements"):
                _interpolated(trace, scheme)

    def test_unknown_scheme(self, measured_trace):
        with pytest.raises(SynchronizationError):
            _interpolated(measured_trace, "cubic")

    def test_measurement_accuracy(self, measured_trace):
        """The shm Cristian estimate must recover the actual inter-chip
        offsets to well under the offsets themselves."""
        raw = measured_trace.meta["init_offsets"]
        # Offsets are sub-microsecond per the Itanium preset; estimates
        # must be in that range, not wildly off.
        for tid, (w, o) in raw.items():
            assert abs(o) < 3e-6


class TestPompDependencies:
    def test_constraints_extracted(self, measured_trace):
        deps = build_dependencies(measured_trace)
        assert deps  # plenty of constraints
        # Spot-check one instance: every worker PAR_ENTER depends on the
        # master's FORK.
        log1 = measured_trace.logs[1]
        enters = [
            i for i in log1.select(EventType.OMP_PAR_ENTER) if int(log1.d[i]) == 0
        ]
        assert enters
        sources = deps[(1, int(enters[0]))]
        log0 = measured_trace.logs[0]
        assert [log0.etypes[i] for (_, i) in sources] == [int(EventType.OMP_FORK)]

    def test_instances_per_region(self, measured_trace):
        table = measured_trace.collectives()
        ops = {CollectiveOp(op) for op in table.op.tolist()}
        assert ops == {CollectiveOp.OMP_FORK, CollectiveOp.OMP_JOIN, CollectiveOp.OMP_BARRIER}
        assert len(table) == 3 * 80 and len(set(table.instance.tolist())) == 3 * 80
        fork = table[int(np.flatnonzero(table.op == CollectiveOp.OMP_FORK)[0])]
        # The master roots the fork: its enter is OMP_FORK, its exit its
        # own PAR_ENTER; a worker enters and exits at its PAR_ENTER.
        assert fork.root == 0 and fork.ranks.tolist() == [0, 1, 2, 3]
        assert fork.exit_idx[0] == fork.enter_idx[0] + 1
        assert np.array_equal(fork.enter_idx[1:], fork.exit_idx[1:])


def _region_logs(events: dict[int, list[tuple[float, EventType]]]) -> Trace:
    logs = {}
    for tid, rows in events.items():
        log = EventLog()
        for t, etype in rows:
            log.append(t, etype, 501, len(events), 0, 7)
        logs[tid] = log
    return Trace(logs)


_MASTER = [(1.0, EventType.OMP_FORK), (1.1, EventType.OMP_PAR_ENTER),
           (1.5, EventType.OMP_BARRIER_ENTER), (1.6, EventType.OMP_BARRIER_EXIT),
           (1.8, EventType.OMP_PAR_EXIT), (1.9, EventType.OMP_JOIN)]
_WORKER = [(0.9, EventType.OMP_PAR_ENTER), (1.4, EventType.OMP_BARRIER_ENTER),
           (1.55, EventType.OMP_BARRIER_EXIT), (1.85, EventType.OMP_PAR_EXIT)]


class TestPartialRegions:
    """A cut region is a partial collective instance: it raises, as an MPI one does."""

    def test_whole_region_is_repaired(self):
        result = _clc(_region_logs({0: _MASTER, 1: _WORKER}))
        assert result.stage("raw").total_violated > 0
        assert result.stage("clc").total_violated == 0
        assert scan_pomp(result.trace).any_violations == 0

    @pytest.mark.parametrize("dropped", [EventType.OMP_FORK, EventType.OMP_JOIN])
    def test_region_without_its_root(self, dropped):
        master = [row for row in _MASTER if row[1] is not dropped]
        with pytest.raises(TraceError, match="not among its members"):
            _clc(_region_logs({0: master, 1: _WORKER}))

    def test_barrier_without_its_exit(self):
        worker = [row for row in _WORKER if row[1] is not EventType.OMP_BARRIER_EXIT]
        with pytest.raises(TraceError, match="unclosed"):
            _clc(_region_logs({0: _MASTER, 1: worker}))

    def test_sliced_region(self):
        trace = _region_logs({0: _MASTER, 1: _WORKER})
        with pytest.raises(TraceError, match="not among its members"):
            _clc(trace.slice(0.0, 1.88))  # cuts the master's OMP_JOIN alone
        assert _clc(trace.slice(0.0, 10.0)).clc.jumps > 0


class TestPompClc:
    def test_repairs_without_measurements(self):
        trace = run_parallel_for_benchmark(
            OmpTeamConfig(threads=4, regions=60), seed=3, measure_offsets=False
        )
        before = scan_pomp(trace)
        assert before.any_violations > 0
        result = _clc(trace).clc
        after = scan_pomp(result.trace)
        assert after.any_violations == 0
        assert result.jumps > 0

    def test_preserves_thread_event_order(self):
        trace = run_parallel_for_benchmark(
            OmpTeamConfig(threads=4, regions=40), seed=3
        )
        result = _clc(trace).clc
        for tid in result.trace.ranks:
            ts = result.trace.logs[tid].timestamps
            assert np.all(np.diff(ts) >= -1e-15)

    def test_never_moves_backward(self):
        trace = run_parallel_for_benchmark(
            OmpTeamConfig(threads=8, regions=30), seed=5
        )
        result = _clc(trace).clc
        for tid in trace.ranks:
            shift = result.trace.logs[tid].timestamps - trace.logs[tid].timestamps
            assert np.all(shift >= -1e-15)

    def test_clean_trace_untouched(self):
        trace = run_parallel_for_benchmark(
            OmpTeamConfig(threads=8, regions=20, timer="global"), seed=1
        )
        result = _clc(trace).clc
        assert result.jumps == 0
        assert result.corrected_events == 0

    def test_streamed_equals_inmemory(self, tmp_path):
        from repro.tracing.store import ShardedTraceReader, write_sharded_trace

        trace = run_parallel_for_benchmark(OmpTeamConfig(threads=4, regions=20), seed=3)
        write_sharded_trace(trace, tmp_path / "in", shard_events=7)
        streamed = correct_trace(
            tmp_path / "in", interpolation="none", clc=True, output=tmp_path / "out"
        )
        inmem = _clc(trace)
        assert inmem.clc.jumps > 0 and streamed.clc.jumps == inmem.clc.jumps
        assert [s.to_dict() for s in streamed.stages] == [
            s.to_dict() for s in inmem.stages if s.stage != "none"
        ]
        out = ShardedTraceReader(tmp_path / "out").read_trace()
        for tid in trace.ranks:
            assert np.array_equal(out.logs[tid].timestamps, inmem.trace.logs[tid].timestamps)
