"""Tests for the out-of-core streaming kernels (repro.sync.streaming).

The heavy lifting — bit-identity of the streaming CLC and violation
scan against the in-memory kernels — is delegated to the same
:func:`repro.verify.oracles.assert_streamed_matches_inmemory` helper
the ``streaming`` fuzz campaign uses, pinned here at the shard sizes
that exercise every boundary case: one event per shard, two, a prime
that misaligns with every rank length, and one larger than the trace.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import inter_node, xeon_cluster
from repro.errors import ConfigurationError
from repro.mpi.runtime import MpiWorld
from repro.options import RunOptions
from repro.sync.clc import ControlledLogicalClock
from repro.sync.streaming import streaming_clc_correct, streaming_scan_trace
from repro.sync.violations import scan_trace
from repro.tracing.events import EventLog, EventType
from repro.tracing.store import ChunkedTrace, write_sharded_trace
from repro.tracing.trace import Trace
from repro.verify.oracles import assert_streamed_matches_inmemory
from repro.workloads import build_workload


def _run(options=None, nprocs: int = 4, seed: int = 5):
    preset = xeon_cluster()
    world = MpiWorld(
        preset, inter_node(preset.machine, nprocs), timer="tsc", seed=seed,
        duration_hint=10.0,
    )
    built = build_workload("sparse", nprocs, 0.2, seed)
    return world.run(
        built.worker,
        tracing_initially=built.tracing_initially,
        options=options or RunOptions(),
    )


@pytest.fixture(scope="module")
def sim_trace():
    return _run().trace


class TestBitIdentity:
    @pytest.mark.parametrize("shard_events", [1, 2, 7, 10**6])
    def test_matches_inmemory(self, sim_trace, shard_events):
        assert_streamed_matches_inmemory(sim_trace, shard_events)

    def test_matches_with_window_and_lmin(self, sim_trace):
        assert_streamed_matches_inmemory(
            sim_trace, 3, lmin=1e-6, gamma=1.0, window=0.5
        )

    def test_scan_counts(self, sim_trace, tmp_path):
        d = write_sharded_trace(sim_trace, tmp_path / "s", shard_events=5)
        ref = scan_trace(sim_trace)
        got = streaming_scan_trace(d)
        for kind in ref:
            assert got[kind].checked == ref[kind].checked
            assert got[kind].violated == ref[kind].violated
            np.testing.assert_array_equal(got[kind].indices, ref[kind].indices)

    def test_clc_result_is_chunked(self, sim_trace, tmp_path):
        d = write_sharded_trace(sim_trace, tmp_path / "s", shard_events=5)
        result = streaming_clc_correct(d, tmp_path / "out")
        assert isinstance(result.trace, ChunkedTrace)
        ref = ControlledLogicalClock().correct(sim_trace)
        assert result.jumps == ref.jumps
        assert result.max_shift == ref.max_shift


class TestRunOptionsValidation:
    def test_shard_events_requires_trace_dir(self):
        with pytest.raises(ConfigurationError, match="requires trace_dir"):
            RunOptions(shard_events=64)

    def test_shard_events_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="positive"):
            RunOptions(trace_dir=tmp_path, shard_events=0)


class TestSpillRun:
    def test_spill_run_is_bit_identical(self, sim_trace, tmp_path):
        run = _run(RunOptions(trace_dir=tmp_path / "spill", shard_events=8))
        assert isinstance(run.trace, ChunkedTrace)
        got = run.trace.materialize()
        assert got.ranks == sim_trace.ranks
        for rank in sim_trace.ranks:
            a, b = sim_trace.logs[rank], got.logs[rank]
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.etypes, b.etypes)
            np.testing.assert_array_equal(a.d, b.d)


class TestCliSharded:
    def test_full_tool_loop(self, tmp_path, capsys):
        shards = tmp_path / "shards"
        rc = main([
            "simulate", "--workload", "sparse", "--nprocs", "4", "--seed", "5",
            "--scale", "0.2", "--trace-out", str(shards), "--shard-events", "8",
        ])
        assert rc == 0
        rc = main(["report", str(shards)])
        assert rc == 0
        assert "(sharded)" in capsys.readouterr().out
        rc = main(["scan", str(shards)])
        assert rc in (0, 1)
        fixed = tmp_path / "fixed"
        rc = main(["sync", str(shards), "--clc", "-o", str(fixed)])
        assert rc == 0
        assert main(["scan", str(fixed)]) == 0

    def test_materializing_interpolation_is_refused(self, tmp_path, capsys):
        shards = tmp_path / "shards"
        assert main([
            "simulate", "--nprocs", "2", "--trace-out", str(shards),
        ]) == 0
        rc = main([
            "sync", str(shards), "--interpolation", "hull",
            "-o", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "whole trace in memory" in capsys.readouterr().err

    def test_output_flags_are_exclusive(self, tmp_path, capsys):
        rc = main([
            "simulate", "--nprocs", "2", "-o", str(tmp_path / "t.npz"),
            "--trace-out", str(tmp_path / "s"),
        ])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err


class TestBackwardPassLocality:
    def test_unreached_shards_are_not_rewritten(self, tmp_path, monkeypatch):
        """Three reversed receives in 2 x 4096 events: the backward pass
        rewrites only the forward temp files an amortization window
        reaches, and the result is still the in-memory one."""
        n, every, shard = 4096, 16, 256
        idx = np.arange(n // every) * every + every // 2
        bad = idx[[40, 120, 200]]

        def log(rank):
            ts = np.arange(n, dtype=np.float64) * 1e-6
            et = np.zeros(n, dtype=np.int32)
            et[1::2] = int(EventType.EXIT)
            a = np.zeros(n, dtype=np.int64)
            d = np.full(n, -1, dtype=np.int64)
            if rank == 0:
                et[idx] = int(EventType.SEND)
                a[idx] = 1
            else:
                ts += 5e-7
                et[idx] = int(EventType.RECV)
                ts[bad] -= 0.9e-6
            d[idx] = np.arange(idx.size)
            zeros = np.zeros(n, dtype=np.int64)
            return EventLog.from_arrays(ts, et, a, zeros, zeros, d)

        trace = Trace({0: log(0), 1: log(1)})
        shards = write_sharded_trace(trace, tmp_path / "s", shard_events=shard)

        saves: dict[str, int] = {}
        real_save = np.save

        def counting_save(path, arr):
            saves[Path(path).name] = saves.get(Path(path).name, 0) + 1
            real_save(path, arr)

        monkeypatch.setattr(np, "save", counting_save)
        result = streaming_clc_correct(shards, tmp_path / "out")
        monkeypatch.undo()

        ref = ControlledLogicalClock().correct(trace)
        got = result.trace.materialize()
        for rank in trace.ranks:
            assert got.logs[rank].timestamps.tobytes() == ref.trace.logs[rank].timestamps.tobytes()
        assert result.jumps == ref.jumps == 3
        assert len(saves) == 2 * (n // shard)  # one forward file per shard
        rewritten = {name for name, count in saves.items() if count > 1}
        assert rewritten == {f"fwd_r1_s{int(k) // shard}.npy" for k in bad}
