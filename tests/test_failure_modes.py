"""Failure-injection tests: corrupt inputs must fail loudly and early."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    DeadlockError,
    MatchingError,
    SynchronizationError,
    TraceError,
    TraceFormatError,
)
from repro.tracing.events import EventLog, EventType
from repro.tracing.reader import read_trace
from repro.tracing.trace import Trace
from repro.tracing.writer import write_trace


class TestCorruptTraceFiles:
    def test_truncated_npz(self, tmp_path):
        log = EventLog()
        log.append(1.0, EventType.ENTER, a=1)
        path = write_trace(Trace({0: log}), tmp_path / "t.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):  # zipfile/numpy error surfaces
            read_trace(path)

    def test_npz_missing_rank_columns(self, tmp_path):
        import json

        header = {"version": 1, "ranks": [0, 1], "meta": {}}
        payload = {
            "__header__": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            "r0_ts": np.zeros(1), "r0_et": np.zeros(1, np.int8),
            "r0_a": np.zeros(1, np.int64), "r0_b": np.zeros(1, np.int64),
            "r0_c": np.zeros(1, np.int64), "r0_d": np.zeros(1, np.int64),
            # rank 1 columns missing entirely
        }
        path = tmp_path / "partial.npz"
        np.savez(path, **payload)
        with pytest.raises(TraceFormatError, match="rank 1"):
            read_trace(path)

    def test_jsonl_event_for_unknown_rank_ignored_gracefully(self, tmp_path):
        p = tmp_path / "stray.jsonl"
        p.write_text(
            '{"kind": "header", "version": 1, "ranks": [0], "meta": {}}\n'
            '{"kind": "event", "rank": 7, "ts": 1.0, "type": "ENTER", '
            '"a": 0, "b": 0, "c": 0, "d": 0}\n'
        )
        trace = read_trace(p)  # rank 7 not in header: dropped
        assert trace.ranks == [0]


class TestTruncatedTraces:
    def test_half_message_strict(self):
        log0 = EventLog()
        log0.append(1.0, EventType.SEND, 1, 0, 0, 5)
        trace = Trace({0: log0, 1: EventLog().freeze()})
        with pytest.raises(MatchingError):
            trace.messages()
        assert len(trace.messages(strict=False)) == 0

    def test_dangling_collective(self):
        log = EventLog()
        log.append(1.0, EventType.COLL_ENTER, 0, 0, 2, 0)
        with pytest.raises(TraceError):
            Trace({0: log}).collectives()

    def test_clc_on_half_matched_trace_does_not_crash(self):
        """CLC uses non-strict matching, so a window-truncated trace is
        corrected as far as its information goes."""
        from repro.sync.clc import ControlledLogicalClock

        log0 = EventLog()
        log0.append(1.0, EventType.SEND, 1, 0, 0, 5)  # recv outside window
        log0.append(2.0, EventType.SEND, 1, 0, 0, 6)
        log1 = EventLog()
        log1.append(1.5, EventType.RECV, 0, 0, 0, 6)  # reversed vs send 2.0
        trace = Trace({0: log0, 1: log1})
        result = ControlledLogicalClock().correct(trace, lmin=0.1)
        assert result.jumps == 1


class TestForeignCollectiveRoot:
    """A rooted collective whose root is not among its members (a
    sliced, foreign or uploaded trace) is one ``TraceError`` naming the
    instance on every path — not an ``IndexError`` in memory and a
    silently wrong root when streaming."""

    @staticmethod
    def trace(op):
        logs = {}
        for rank in (0, 1, 2):
            log = EventLog()
            log.append(1.0 + rank, EventType.COLL_ENTER, int(op), 7, 3, 4)
            log.append(5.0 + rank, EventType.COLL_EXIT, int(op), 7, 3, 4)
            logs[rank] = log
        return Trace(logs)

    @pytest.mark.parametrize("op", ["BCAST", "SCATTER", "REDUCE", "GATHER", "SCAN"])
    def test_all_four_paths_raise_the_same_trace_error(self, op, tmp_path):
        from repro.sync.clc import ControlledLogicalClock
        from repro.sync.streaming import streaming_clc_correct, streaming_scan_trace
        from repro.sync.violations import scan_collectives
        from repro.tracing.events import CollectiveOp
        from repro.tracing.store import write_sharded_trace

        trace = self.trace(CollectiveOp[op])
        shards = tmp_path / "shards"
        write_sharded_trace(trace, shards, shard_events=1)
        message = rf"instance 4 \({op}\): root 7 is not among its members"
        for attempt in (
            lambda: scan_collectives(trace),
            lambda: ControlledLogicalClock().correct(trace),
            lambda: streaming_scan_trace(shards),
            lambda: streaming_clc_correct(shards, tmp_path / "out"),
        ):
            with pytest.raises(TraceError, match=message):
                attempt()

    def test_unrooted_and_single_member_instances_ignore_the_root(self):
        from repro.sync.clc import ControlledLogicalClock
        from repro.tracing.events import CollectiveOp

        assert ControlledLogicalClock().correct(self.trace(CollectiveOp.BARRIER)).jumps == 0
        log = EventLog()
        log.append(1.0, EventType.COLL_ENTER, int(CollectiveOp.BCAST), 7, 1, 0)
        log.append(2.0, EventType.COLL_EXIT, int(CollectiveOp.BCAST), 7, 1, 0)
        assert ControlledLogicalClock().correct(Trace({0: log})).jumps == 0


class TestDeadlocks:
    def test_cyclic_blocking_receives(self):
        from repro.cluster import inter_node, xeon_cluster
        from repro.mpi import MpiWorld

        preset = xeon_cluster()
        world = MpiWorld(
            preset, inter_node(preset.machine, 2), timer="global", duration_hint=5.0
        )

        def worker(ctx):
            # Both wait for a message that is never sent.
            yield from ctx.recv(src=1 - ctx.rank, tag=99)
            return None

        with pytest.raises(DeadlockError):
            world.run(worker, tracing=False, measure_offsets=False)


class TestSynchronizationInputs:
    def test_interpolation_with_swapped_measurements(self):
        from repro.sync.interpolation import linear_interpolation
        from repro.sync.offset import OffsetMeasurement

        early = {1: OffsetMeasurement(1, 100.0, 0.0, 1e-5, 1)}
        late = {1: OffsetMeasurement(1, 0.0, 0.0, 1e-5, 1)}
        with pytest.raises(SynchronizationError):
            linear_interpolation(early, late)

    def test_spanning_tree_on_disconnected_graph(self):
        from repro.sync.error_estimation import synchronize_by_spanning_tree

        # Ranks 0<->1 talk; rank 2 is silent: cannot synchronize it.
        log0 = EventLog()
        log0.append(1.0, EventType.SEND, 1, 0, 0, 0)
        log0.append(3.0, EventType.RECV, 1, 0, 0, 1)
        log1 = EventLog()
        log1.append(2.0, EventType.RECV, 0, 0, 0, 0)
        log1.append(2.5, EventType.SEND, 0, 0, 0, 1)
        trace = Trace({0: log0, 1: log1, 2: EventLog().freeze()})
        with pytest.raises(SynchronizationError, match="not connected"):
            synchronize_by_spanning_tree(trace)

    def test_exchange_correction_needs_n_to_n(self):
        from repro.sync.exchange import exchange_correction

        log = EventLog()
        log.append(1.0, EventType.ENTER, a=1)
        log.append(2.0, EventType.EXIT, a=1)
        with pytest.raises(SynchronizationError):
            exchange_correction(Trace({0: log, 1: EventLog().freeze()}))


class TestBufferFlushPerturbation:
    def test_flush_stalls_are_visible_in_the_trace(self):
        """A capacity flush stalls the process mid-run: the inter-event
        gap at the flush point dwarfs the record cost — 'flushed to
        disk ... while the program is still running' has a price."""
        from repro.cluster import inter_node, xeon_cluster
        from repro.mpi import MpiWorld

        preset = xeon_cluster()
        world = MpiWorld(
            preset, inter_node(preset.machine, 1), timer="global",
            duration_hint=30.0, trace_buffer_capacity=10, flush_cost=1e-3,
        )

        def worker(ctx):
            for k in range(25):
                yield from ctx.enter_region(1)
                yield from ctx.exit_region(1)
            return None

        run = world.run(worker, measure_offsets=False)
        gaps = np.diff(run.trace.logs[0].timestamps)
        assert gaps.max() > 0.9e-3  # the flush stall
        assert np.median(gaps) < 1e-5  # normal record pace
