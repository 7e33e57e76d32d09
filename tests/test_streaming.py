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
from repro.errors import ConfigurationError, SynchronizationError
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


#: 2 x 4096 events, a message every 16th; receives 40, 120 and 200 precede their sends.
_N, _EVERY, _REVERSED = 4096, 16, (40, 120, 200)


def _reversed_pair_trace() -> Trace:
    """Rank 0 sends to rank 1 in lockstep; three receives are pulled before their sends."""
    idx = np.arange(_N // _EVERY) * _EVERY + _EVERY // 2
    bad = idx[list(_REVERSED)]

    def log(rank):
        ts = np.arange(_N, dtype=np.float64) * 1e-6
        et = np.zeros(_N, dtype=np.int32)
        et[1::2] = int(EventType.EXIT)
        a = np.zeros(_N, dtype=np.int64)
        d = np.full(_N, -1, dtype=np.int64)
        if rank == 0:
            et[idx] = int(EventType.SEND)
            a[idx] = 1
        else:
            ts += 5e-7
            et[idx] = int(EventType.RECV)
            ts[bad] -= 0.9e-6
        d[idx] = np.arange(idx.size)
        zeros = np.zeros(_N, dtype=np.int64)
        return EventLog.from_arrays(ts, et, a, zeros, zeros, d)

    end = _N * 1e-6 + 1.0
    meta = {
        "init_offsets": {0: (0.0, 0.0), 1: (0.0, 2e-7)},
        "final_offsets": {0: (end, 0.0), 1: (end, 3e-7)},
    }
    return Trace({0: log(0), 1: log(1)}, meta=meta)


def _reversed_shards(shard_events: int) -> set[int]:
    """Ordinals of rank 1's shards holding a reversed receive."""
    return {(k * _EVERY + _EVERY // 2) // shard_events for k in _REVERSED}


class TestBackwardPassLocality:
    def test_unreached_shards_are_not_rewritten(self, tmp_path, monkeypatch):
        """Three reversed receives in 2 x 4096 events: the backward pass
        rewrites only the forward temp files an amortization window
        reaches, and the result is still the in-memory one."""
        shard = 256
        trace = _reversed_pair_trace()
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
        assert len(saves) == 2 * (_N // shard)  # one forward file per shard
        rewritten = {name for name, count in saves.items() if count > 1}
        assert rewritten == {f"fwd_r1_s{si}.npy" for si in _reversed_shards(shard)}


class TestFusedCorrection:
    """``correct_trace(shard_dir)``: what one streamed correction reads and writes."""

    SHARD = 512  # 2 ranks x 4096 events: 8 shards a rank, 16 in the store

    @pytest.fixture(scope="class")
    def tally(self, tmp_path_factory):
        """One traced ``correct_trace`` with every shard load, temp save and write counted."""
        import tempfile

        from repro import TelemetryRecorder, correct_trace
        from repro.tracing.store import ShardedTraceReader, ShardedTraceWriter

        root = tmp_path_factory.mktemp("fused")
        trace = _reversed_pair_trace()
        shards = write_sharded_trace(trace, root / "s", shard_events=self.SHARD)
        loads: dict[tuple[str, str], int] = {}
        writes: dict[str, int] = {}
        saves: dict[str, int] = {}
        temp_loads: list[str] = []
        temp_dirs: list[str] = []
        real = (ShardedTraceReader.load_shard, ShardedTraceWriter._write_shard,
                np.save, np.load, tempfile.mkdtemp)

        def load_shard(self, rec):
            key = (self.directory.name, rec.file)
            loads[key] = loads.get(key, 0) + 1
            return real[0](self, rec)

        def write_shard(self, rank, cols):
            name = f"{self.directory.name}/{self._seq}"
            writes[name] = writes.get(name, 0) + 1
            return real[1](self, rank, cols)

        def save(path, arr):
            saves[Path(path).name] = saves.get(Path(path).name, 0) + 1
            return real[2](path, arr)

        def load(path, *args, **kwargs):
            temp_loads.append(Path(path).name)
            return real[3](path, *args, **kwargs)

        def mkdtemp(*args, **kwargs):
            made = real[4](*args, **kwargs)
            temp_dirs.append(Path(made).name)
            return made

        recorder = TelemetryRecorder()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ShardedTraceReader, "load_shard", load_shard)
            patch.setattr(ShardedTraceWriter, "_write_shard", write_shard)
            patch.setattr(np, "save", save)
            patch.setattr(np, "load", load)
            patch.setattr(tempfile, "mkdtemp", mkdtemp)
            result = correct_trace(
                shards, output=root / "out", interpolation="linear", clc=True,
                telemetry=recorder,
            )
        return dict(trace=trace, result=result, recorder=recorder, loads=loads,
                    writes=writes, saves=saves, temp_loads=temp_loads, temp_dirs=temp_dirs)

    def test_counters_equal_the_calls_made(self, tally):
        """``sync.stream.shards_read`` / ``shards_written`` count every load and write."""
        counters = tally["recorder"].counters
        assert counters["sync.stream.shards_read"] == (
            sum(tally["loads"].values()) + len(tally["temp_loads"])
        )
        assert counters["sync.stream.shards_written"] == sum(tally["writes"].values()) == 16
        # One shard a rank at most; here rank 0 never waits, so one shard in all.
        assert tally["recorder"].gauges["sync.clc.peak_resident_events"] == self.SHARD

    def test_shard_load_budget(self, tally):
        """Three sweeps over the input, one write and one read of the output,
        no intermediate store; forward temps rewritten only where a window reaches."""
        source = {k: v for k, v in tally["loads"].items() if k[0] == "s"}
        output = {k: v for k, v in tally["loads"].items() if k[0] == "out"}
        assert len(source) == len(output) == 16
        assert max(source.values()) <= 3
        assert max(output.values()) <= 1
        assert set(tally["writes"].values()) == {1} and len(tally["writes"]) == 16
        assert all(name.startswith("repro-stream-") for name in tally["temp_dirs"])
        assert len(tally["saves"]) == 16  # one forward file per shard
        rewritten = {name for name, count in tally["saves"].items() if count > 1}
        assert rewritten == {f"fwd_r1_s{si}.npy" for si in _reversed_shards(self.SHARD)}

    def test_result_is_the_inmemory_one(self, tally):
        from repro import correct_trace

        ref = correct_trace(tally["trace"], interpolation="linear", clc=True)
        got = tally["result"]
        materialized = got.trace.materialize()
        for rank in ref.trace.ranks:
            assert (materialized.logs[rank].timestamps.tobytes()
                    == ref.trace.logs[rank].timestamps.tobytes())
        assert [s.stage for s in got.stages] == ["raw", "linear", "clc"]
        assert [s.total_violated for s in got.stages] == [s.total_violated for s in ref.stages]
        assert got.clc.jumps == ref.clc.jumps == 3
        assert sorted(got.timings) == sorted(ref.timings) == ["clc", "interpolate"]

    def test_lands_and_visits(self, tally):
        """``sync.stream.lands`` counts the receives the forward sweep landed:
        the 3 reversed ones (rank 0 only sends, so no send moves and no
        other receive can bind) of rank 1's 256.  ``sync.stream.visits``:
        one visit a shard, rank 0 running ahead and rank 1 finding every
        send behind rank 0's cursor."""
        counters = tally["recorder"].counters
        assert counters["sync.stream.lands"] == len(_REVERSED) == 3
        assert counters["sync.stream.visits"] == 16

    def test_forward_writes_match_inmemory(self, tally):
        """``sync.clc.forward_writes`` counts the events the forward pass moved,
        the same number on both paths (a carried shard-edge slot is not an event)."""
        from repro import TelemetryRecorder, correct_trace

        recorder = TelemetryRecorder()
        correct_trace(tally["trace"], interpolation="linear", clc=True, telemetry=recorder)
        writes = recorder.counters["sync.clc.forward_writes"]
        assert tally["recorder"].counters["sync.clc.forward_writes"] == writes > 0

    def test_lands_match_inmemory(self, tally):
        """The in-memory forward pass lands what the streamed sweep lands:
        the 3 reversed receives, not all 256 of rank 1's."""
        from repro import TelemetryRecorder, correct_trace

        recorder = TelemetryRecorder()
        correct_trace(tally["trace"], interpolation="linear", clc=True, telemetry=recorder)
        lands = recorder.counters["sync.clc.lands"]
        assert lands == tally["recorder"].counters["sync.stream.lands"] == len(_REVERSED) == 3


@pytest.mark.parametrize("shard_events", [1, 7])
def test_forward_writes_count_moved_events(sim_trace, tmp_path, shard_events):
    from repro import TelemetryRecorder

    inmem, streamed = TelemetryRecorder(), TelemetryRecorder()
    clc = ControlledLogicalClock(gamma=1.0, amortization_window=0.0, telemetry=inmem)
    result = clc.correct(sim_trace)
    d = write_sharded_trace(sim_trace, tmp_path / "s", shard_events=shard_events)
    streaming_clc_correct(d, tmp_path / "out", gamma=1.0, amortization_window=0.0,
                          telemetry=streamed)
    moved = sum(
        int(np.count_nonzero(result.trace.logs[r].timestamps != sim_trace.logs[r].timestamps))
        for r in sim_trace.ranks
    )
    assert inmem.counters["sync.clc.forward_writes"] == moved > 0
    assert streamed.counters["sync.clc.forward_writes"] == moved


class TestSourceIsNeverTheOutput:
    def _store(self, tmp_path):
        d = write_sharded_trace(_reversed_pair_trace(), tmp_path / "d", shard_events=1024)
        return d, {p.name: p.read_bytes() for p in d.iterdir()}

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_correct_trace_refuses_and_touches_nothing(self, tmp_path, spelling):
        from repro import correct_trace
        from repro.errors import SynchronizationError

        d, before = self._store(tmp_path)
        output = d if spelling == "same" else d / ".." / d.name
        with pytest.raises(SynchronizationError, match="is the source directory"):
            correct_trace(d, output=output, interpolation="linear", clc=True)
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before

    def test_cli_exits_nonzero(self, tmp_path, capsys):
        d, before = self._store(tmp_path)
        assert main(["sync", str(d), "--clc", "-o", str(d)]) != 0
        assert "is the source directory" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before


def _pinned_trace(strip_ids: bool = False) -> Trace:
    """What the pre-scan's array join and the forward publish/block must get right.

    At two events a shard: a receive four shards after its send and one
    four shards *before* it (both directions of carried pending state),
    a send never received, receives never sent (one without any id), a
    barrier whose enter closes one shard and whose exit opens the next,
    and a rank without events.  ``strip_ids`` erases every match id — a
    negative send id is what switches matching to FIFO channels.
    """
    from repro.tracing.events import CollectiveOp

    E, barrier = EventType, int(CollectiveOp.BARRIER)
    pad = lambda t: (t, E.ENTER, 1, 0, 0, 0)  # noqa: E731
    rows = {
        0: [(1.00, E.SEND, 1, 0, 8, 0), pad(1.05), pad(1.10),
            (1.15, E.COLL_ENTER, barrier, 0, 3, 0), (1.40, E.COLL_EXIT, barrier, 0, 3, 0),
            pad(1.45), pad(1.50), pad(1.55),
            (1.60, E.RECV, 1, 0, 8, 1), (1.90, E.SEND, 2, 0, 8, 2), pad(1.95)],
        1: [(1.02, E.SEND, 0, 0, 8, 1), pad(1.04),
            (1.20, E.COLL_ENTER, barrier, 0, 3, 0), (1.41, E.COLL_EXIT, barrier, 0, 3, 0),
            pad(1.42), pad(1.43), pad(1.44), pad(1.45),
            (1.50, E.RECV, 0, 0, 8, 0), (1.55, E.SEND, 2, 0, 8, 7),
            (1.60, E.RECV, 0, 0, 8, 9), (1.65, E.RECV, 0, 0, 8, -1)],
        2: [(1.01, E.COLL_ENTER, barrier, 0, 3, 0), (1.05, E.RECV, 0, 0, 8, 2),
            (1.42, E.COLL_EXIT, barrier, 0, 3, 0), pad(1.50)],
        3: [],
    }
    return _from_rows(rows, strip_ids)


def _from_rows(rows: dict, strip_ids: bool = False) -> Trace:
    """A trace from per-rank ``(t, etype, a, b, c, d)`` rows, transfer ids erased on request."""
    logs = {}
    for rank, events in rows.items():
        log = EventLog()
        for t, etype, a, b, c, d in events:
            if strip_ids and etype in (EventType.SEND, EventType.RECV):
                d = -1
            log.append(t, etype, a, b, c, d)
        logs[rank] = log.freeze()
    return Trace(logs)


class TestPinnedJoinCases:
    @pytest.mark.parametrize("strip_ids", [False, True], ids=["by-id", "fifo"])
    @pytest.mark.parametrize("shard_events", [1, 2, 3])
    def test_matches_inmemory(self, strip_ids, shard_events):
        assert_streamed_matches_inmemory(_pinned_trace(strip_ids), shard_events, lmin=1e-6)

    def test_the_cases_are_what_they_claim(self, tmp_path):
        """The trace really has carried, dropped and straddling pieces."""
        trace = _pinned_trace()
        assert len(trace.messages(strict=False)) == 3  # of 4 sends and 6 receives
        d = write_sharded_trace(trace, tmp_path / "s", shard_events=2)
        reader = ChunkedTrace(d).reader
        assert reader.shard_index(1, 8) - reader.shard_index(0, 0) >= 3
        assert reader.shard_index(0, 9) - reader.shard_index(2, 1) >= 3
        assert reader.shard_index(0, 3) + 1 == reader.shard_index(0, 4)
        assert reader.rank_events(3) == 0
        got = streaming_scan_trace(d)
        assert got["p2p"].checked == 3 and got["collective"].checked == 3


def _backward_collective_trace(op: int) -> Trace:
    """Two instances of ``op`` over three ranks, padded so shards split them;
    the last rank exits the first instance before it enters it."""
    E = EventType
    rows = {}
    for rank in range(3):
        events = [(0.1 * rank, E.ENTER, 1, 0, 0, 0)]
        for inst in range(2):
            t = 1.0 + inst + 0.1 * rank
            pair = [(t, E.COLL_ENTER), (t + 0.05, E.COLL_EXIT)]
            if rank == 2 and inst == 0:
                pair = [(t, E.COLL_EXIT), (t + 0.05, E.COLL_ENTER)]
            events += [(ts, etype, op, 0, 3, inst) for ts, etype in pair]
            events.append((t + 0.5, E.ENTER, 1, 0, 0, 0))
        rows[rank] = events
    return _from_rows(rows)


class TestBackwardCollective:
    """A member exiting before it enters keeps its instance as pairs, streamed too."""

    @pytest.mark.parametrize("op", ["SCAN", "BARRIER"])
    @pytest.mark.parametrize("shard_events", [1, 2, 3, 100])
    def test_matches_inmemory(self, op, shard_events):
        from repro.tracing.events import CollectiveOp

        trace = _backward_collective_trace(int(CollectiveOp[op]))
        assert_streamed_matches_inmemory(trace, shard_events, lmin=1e-6)


class TestWindowedPingPong:
    """A window cut through a ping-pong: rank 1's first receive lost its
    send to the window's start, and rank 0 waits for rank 1's reply.  The
    forward pass must let the unmatched receive through while its sender
    is still blocked."""

    @pytest.mark.parametrize("strip_ids", [False, True], ids=["by-id", "fifo"])
    @pytest.mark.parametrize("shard_events", [1, 2, 100])
    def test_streams_to_the_inmemory_result(self, strip_ids, shard_events):
        E = EventType
        trace = _from_rows({
            0: [(0.5, E.ENTER, 1, 0, 0, 0), (1.5, E.RECV, 1, 0, 8, 1)],
            1: [(1.0, E.RECV, 0, 0, 8, 0), (2.0, E.SEND, 0, 0, 8, 1)],
        }, strip_ids)
        assert len(trace.messages(strict=False)) == 1
        assert_streamed_matches_inmemory(trace, shard_events)


def _assert_binds_only_after_the_move(trace: Trace) -> None:
    """One receive violates the clock condition, yet the CLC jumps twice."""
    assert len(trace.messages(strict=False)) == 2
    assert scan_trace(trace, lmin=1e-6)["p2p"].violated == 1
    assert ControlledLogicalClock().correct(trace, lmin=1e-6).jumps == 2


class TestCursorWaits:
    """Receives wait on their send's rank cursor; only those that can bind are landed."""

    @pytest.mark.parametrize("strip_ids", [False, True], ids=["by-id", "fifo"])
    @pytest.mark.parametrize("shard_events", [1, 2, 3, 100])
    def test_self_message(self, strip_ids, shard_events):
        """Rank 0 jumps at its first receive; the glide moves its later send
        to itself, whose receive binds only on the moved stamp.  The own
        cursor must pass (and publish) the send before the receive lands,
        also when both sit in the shard the visit holds."""
        E = EventType
        pad = lambda t: (t, E.ENTER, 1, 0, 0, 0)  # noqa: E731
        trace = _from_rows({
            0: [pad(0.40), (0.50, E.RECV, 1, 0, 8, 0), pad(0.5005),
                (0.501, E.SEND, 0, 0, 9, 1), pad(0.5010005),
                (0.501 + 1.01e-6, E.RECV, 0, 0, 9, 1), pad(0.51)],
            1: [pad(0.90), (1.00, E.SEND, 0, 0, 8, 0), pad(1.10)],
        }, strip_ids)
        _assert_binds_only_after_the_move(trace)
        assert_streamed_matches_inmemory(trace, shard_events, lmin=1e-6)

    @pytest.mark.parametrize("strip_ids", [False, True], ids=["by-id", "fifo"])
    @pytest.mark.parametrize("shard_events", [1, 2, 3, 100])
    def test_relay(self, strip_ids, shard_events):
        """Rank 1 jumps at a reversed receive and its glide moves the send
        that follows; rank 2's receive of it violates nothing on the input
        stamps, so only the published move makes it bind."""
        E = EventType
        pad = lambda t: (t, E.ENTER, 1, 0, 0, 0)  # noqa: E731
        trace = _from_rows({
            0: [pad(0.90), (1.00, E.SEND, 1, 0, 8, 0), pad(1.05)],
            1: [pad(0.45), (0.50, E.RECV, 0, 0, 8, 0), pad(0.55),
                (0.60, E.SEND, 2, 0, 8, 1), pad(0.65)],
            2: [pad(0.62), pad(0.65), (0.70, E.RECV, 1, 0, 8, 1), pad(0.75)],
        }, strip_ids)
        _assert_binds_only_after_the_move(trace)
        assert_streamed_matches_inmemory(trace, shard_events, lmin=1e-6)


class TestSpillBudget:
    """Source rows and send caps stay in memory up to a budget over all buckets, then go to disk."""

    @pytest.fixture
    def on_disk(self, monkeypatch):
        """A 3-record budget, and per ``(spill name, rank)`` the bytes each
        bucket read back from its file."""
        import repro.sync.streaming as streaming

        monkeypatch.setattr(streaming, "_SPILL_BUDGET", 3)
        read: dict[tuple[str, int], list[int]] = {}
        real = streaming._Spill.load

        def load(self, rank, ordinal):
            path = self._path(rank, ordinal)
            size = path.stat().st_size if path.exists() else 0
            read.setdefault((self.name, rank), []).append(size)
            return real(self, rank, ordinal)

        monkeypatch.setattr(streaming._Spill, "load", load)
        return read

    def test_rows_reach_disk(self, on_disk, tmp_path):
        """Every 256-event shard of rank 1 holds 16 matched receives, so
        every one of its source buckets is on disk when the forward sweep
        loads it; the result is still the in-memory one."""
        trace = _reversed_pair_trace()
        shards = write_sharded_trace(trace, tmp_path / "s", shard_events=256)
        result = streaming_clc_correct(shards, tmp_path / "out")
        assert on_disk["src", 1] == [16 * 32] * (_N // 256)
        ref = ControlledLogicalClock().correct(trace)
        got = result.trace.materialize()
        for rank in trace.ranks:
            assert got.logs[rank].timestamps.tobytes() == ref.trace.logs[rank].timestamps.tobytes()

    @pytest.mark.parametrize("shard_events", [2, 7])
    def test_matches_inmemory(self, on_disk, sim_trace, shard_events):
        assert_streamed_matches_inmemory(sim_trace, shard_events, lmin=1e-6)
        for name in ("src", "caps"):
            assert any(size for (spill, _), sizes in on_disk.items() if spill == name
                       for size in sizes)


class TestTempLifetime:
    """A streamed CLC removes its temp directory however it ends."""

    def _scanned(self, tmp_path):
        from repro.sync.streaming import ShardSweeps

        sweeps = ShardSweeps(write_sharded_trace(_reversed_pair_trace(), tmp_path / "s", 512))
        sweeps.prescan(sources=True)
        return sweeps, Path(sweeps._tmp.name)

    def test_rejected_gamma(self, tmp_path):
        """Validation after a scanned pre-scan raises, and the source rows go with it."""
        sweeps, tmp = self._scanned(tmp_path)
        assert tmp.is_dir()
        with pytest.raises(SynchronizationError, match="gamma"):
            sweeps.clc(tmp_path / "out", gamma=1.5)
        assert not tmp.exists() and sweeps.sources is None and sweeps._tmp is None

    def test_stall(self, tmp_path, monkeypatch):
        """A forward sweep that raises leaves no rows behind, and the next
        call runs its own pre-scan and matches the in-memory result."""
        sweeps, tmp = self._scanned(tmp_path)
        monkeypatch.setattr(sweeps, "_forward", lambda *a: (_ for _ in ()).throw(
            SynchronizationError("streaming CLC stalled")))
        with pytest.raises(SynchronizationError, match="stalled"):
            sweeps.clc(tmp_path / "out")
        assert not tmp.exists() and sweeps.sources is None and sweeps._tmp is None
        monkeypatch.undo()
        result = sweeps.clc(tmp_path / "out2")
        assert result.jumps == ControlledLogicalClock().correct(_reversed_pair_trace()).jumps


class TestInterruptedFinalize:
    def test_partial_output_is_refused(self, tmp_path, monkeypatch):
        """A finalize sweep that raises after its first shard leaves a
        manifest without a footer, and a reader refuses the directory."""
        import json

        from repro import correct_trace
        from repro.errors import TraceFormatError
        from repro.tracing.store import ShardedTraceReader, ShardedTraceWriter

        source = write_sharded_trace(_reversed_pair_trace(), tmp_path / "s", 512)
        real = ShardedTraceWriter.append_batch
        appended = []

        def fail_after_first(self, rank, *columns):
            if appended:
                raise OSError("disk full")
            appended.append(rank)
            return real(self, rank, *columns)

        monkeypatch.setattr(ShardedTraceWriter, "append_batch", fail_after_first)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            correct_trace(source, output=out, interpolation="linear", clc=True)
        lines = (out / "manifest.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["header", "shard"]
        with pytest.raises(TraceFormatError, match="no footer"):
            ShardedTraceReader(out)


_OBSERVABILITY = Path(__file__).resolve().parents[1] / "docs" / "observability.md"


@pytest.mark.parametrize("scan", [True, False], ids=["scanned", "unscanned"])
@pytest.mark.parametrize("sharded", [False, True], ids=["in-memory", "streamed"])
def test_recorded_names_are_documented(tmp_path, sharded, scan):
    """Every span, counter and gauge name a recorded ``correct_trace`` emits
    is listed, without its ``sync.`` prefix, in the ``sync.*`` row of
    docs/observability.md."""
    from repro import TelemetryRecorder, correct_trace

    source, kwargs = _reversed_pair_trace(), {}
    if sharded:
        source = write_sharded_trace(source, tmp_path / "s", shard_events=512)
        kwargs["output"] = tmp_path / "out"
    recorder = TelemetryRecorder()
    correct_trace(source, interpolation="linear", clc=True, scan=scan, telemetry=recorder, **kwargs)
    names = {s.name for s in recorder.spans} | set(recorder.counters) | set(recorder.gauges)
    row = next(line for line in _OBSERVABILITY.read_text().splitlines()
               if line.startswith("| sync kernels (`sync.*`)"))
    assert all(name.startswith("sync.") for name in names)
    assert sorted(n for n in names if f"`{n[len('sync.'):]}`" not in row) == []
