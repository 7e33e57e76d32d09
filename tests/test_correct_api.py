"""The ``correct_trace`` facade: one code path, every source kind.

The facade's contract is that the CLI, the session, the service
workers, and direct callers all produce bit-identical corrections for
the same input.  These tests pin that down via the canonical ``.jsonl``
encoding, which is byte-stable (unlike ``.npz``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.correct import (
    INTERPOLATIONS,
    STREAMING_INTERPOLATIONS,
    CorrectionResult,
    correct_trace,
    scan_source,
)
from repro.errors import SynchronizationError, TraceFormatError
from repro.tracing.events import EventLog
from repro.tracing.store import ChunkedTrace, write_sharded_trace
from repro.tracing.trace import Trace
from repro.tracing.writer import trace_to_jsonl, write_trace
from repro.workloads import simulate_workload


@pytest.fixture(scope="module")
def run():
    return simulate_workload("sparse", nprocs=4, scale=0.02, seed=3)


@pytest.fixture(scope="module")
def reference_jsonl(run):
    """The corrected trace from the RunResult path, canonical form."""
    return trace_to_jsonl(correct_trace(run).trace)


class TestSources:
    def test_run_result(self, run):
        result = correct_trace(run)
        assert isinstance(result, CorrectionResult)
        assert isinstance(result.trace, Trace)
        assert [s.stage for s in result.stages] == ["raw", "linear", "clc"]
        assert result.applied_clc and not result.streamed
        assert result.stage("clc").total_violated == 0

    def test_trace_object_matches_run_result(self, run, reference_jsonl):
        result = correct_trace(run.trace)
        assert trace_to_jsonl(result.trace) == reference_jsonl

    @pytest.mark.parametrize("suffix", [".npz", ".jsonl"])
    def test_path_matches_run_result(self, run, reference_jsonl, tmp_path, suffix):
        path = write_trace(run.trace, tmp_path / f"trace{suffix}")
        result = correct_trace(path)
        assert trace_to_jsonl(result.trace) == reference_jsonl

    def test_sharded_dir_matches_inmemory_counts(self, run, tmp_path):
        src = write_sharded_trace(run.trace, tmp_path / "shards", shard_events=16)
        streamed = correct_trace(src, output=tmp_path / "out")
        inmemory = correct_trace(run.trace)
        assert streamed.streamed
        assert isinstance(streamed.trace, ChunkedTrace)
        assert streamed.trace.total_events() == run.trace.total_events()
        for s_stage, m_stage in zip(streamed.stages, inmemory.stages):
            assert s_stage.stage == m_stage.stage
            assert s_stage.total_violated == m_stage.total_violated
            assert s_stage.total_checked == m_stage.total_checked

    def test_bad_source_type_rejected(self):
        with pytest.raises(TraceFormatError, match="cannot correct"):
            correct_trace(42)


class TestKnobs:
    def test_scan_false_skips_scans_but_not_correction(self, run, reference_jsonl):
        result = correct_trace(run, scan=False)
        assert result.stages == []
        assert trace_to_jsonl(result.trace) == reference_jsonl

    def test_output_writes_trace(self, run, tmp_path):
        out = tmp_path / "corrected.jsonl"
        result = correct_trace(run, output=out)
        assert result.output == out
        assert out.read_text() == trace_to_jsonl(result.trace)

    def test_unknown_interpolation(self, run):
        with pytest.raises(SynchronizationError, match="unknown interpolation"):
            correct_trace(run, interpolation="cubic")

    def test_measurement_modes_run_end_to_end(self, run):
        # The trace-only modes need denser bidirectional traffic than
        # this small fixture carries; they are covered by their own
        # test modules.  Here: every measurement-free-of-structure mode.
        for mode in ("none", "align", "linear"):
            assert mode in INTERPOLATIONS
            result = correct_trace(run, interpolation=mode, scan=False)
            assert result.interpolation == mode

    def test_piecewise_reads_trace_meta(self, run, tmp_path):
        """Init and final offsets are two measurement sets: piecewise over a
        trace file is the RunResult's, with no periodic sync at all."""
        assert "periodic_offsets" not in run.trace.meta
        reference = trace_to_jsonl(correct_trace(run, interpolation="piecewise").trace)
        path = write_trace(run.trace, tmp_path / "trace.jsonl")
        assert trace_to_jsonl(correct_trace(path, interpolation="piecewise").trace) == reference


class TestStreamingGuards:
    @pytest.fixture()
    def sharded(self, run, tmp_path):
        return write_sharded_trace(run.trace, tmp_path / "s", shard_events=16)

    def test_output_required(self, sharded):
        with pytest.raises(SynchronizationError, match="output"):
            correct_trace(sharded)

    def test_whole_trace_modes_refused(self, sharded, tmp_path):
        assert "regression" not in STREAMING_INTERPOLATIONS
        with pytest.raises(SynchronizationError, match="whole trace"):
            correct_trace(sharded, interpolation="regression", output=tmp_path / "o")

    def test_noop_request_refused(self, sharded, tmp_path):
        with pytest.raises(SynchronizationError, match="nothing to apply"):
            correct_trace(
                sharded, interpolation="none", clc=False, output=tmp_path / "o"
            )


class TestSingleCodePath:
    def test_scan_source_matches_raw_stage(self, run):
        reports = scan_source(run)
        raw = correct_trace(run).stage("raw")
        assert reports["p2p"].violated == raw.p2p.violated
        assert reports["collective"].violated == raw.collective.violated

    def test_scan_source_sharded_matches(self, run, tmp_path):
        src = write_sharded_trace(run.trace, tmp_path / "s", shard_events=16)
        sharded = scan_source(src)
        inmemory = scan_source(run.trace)
        assert sharded["p2p"].violated == inmemory["p2p"].violated
        assert sharded["collective"].violated == inmemory["collective"].violated

    @pytest.mark.parametrize("window", [None, 0.0, 1e-4])
    def test_sharded_dir_honours_amortization_window(self, tmp_path, window):
        # Two ranks, every 16th event a message, every 10th message's
        # receive pulled back before its send: the auto window, no
        # window and a fixed one each move a different set of events.
        n = 2000
        idx = np.arange(n // 16) * 16 + 8
        zeros = np.zeros(n, dtype=np.int64)
        logs = {}
        for rank in (0, 1):
            ts = np.arange(n) * 1e-6 + rank * 5e-7
            etypes, a, d = zeros.copy(), zeros.copy(), zeros - 1
            etypes[idx], a[idx], d[idx] = 2 + rank, 1 - rank, np.arange(idx.size)  # SEND / RECV
            if rank:
                ts[idx[::10]] -= 0.9e-6
            logs[rank] = EventLog.from_arrays(ts, etypes, a, zeros, zeros, d)
        trace = Trace(logs)
        knobs = dict(interpolation="none", amortization_window=window)
        inmemory = correct_trace(trace, **knobs)
        src = write_sharded_trace(trace, tmp_path / "s", shard_events=256)
        streamed = correct_trace(src, output=tmp_path / "o", **knobs)
        assert inmemory.clc.jumps == len(idx[::10])
        moved = {w: correct_trace(trace, interpolation="none", amortization_window=w).clc.corrected_events
                 for w in (None, 0.0, 1e-4)}
        assert len(set(moved.values())) == 3
        got = streamed.trace.materialize()
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                got.logs[rank].timestamps, inmemory.trace.logs[rank].timestamps
            )
        stats = lambda result: dataclasses.replace(result.clc, trace=None)  # noqa: E731
        assert stats(streamed) == stats(inmemory)
        assert streamed.trace.meta["clc"] == inmemory.trace.meta["clc"]
