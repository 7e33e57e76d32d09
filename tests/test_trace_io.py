"""Tests for trace serialization (repro.tracing.writer / reader)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.tracing.events import EventLog, EventType
from repro.tracing.reader import read_trace
from repro.tracing.trace import Trace
from repro.tracing.writer import write_trace


@pytest.fixture
def sample_trace():
    log0 = EventLog()
    log0.append(1.0, EventType.ENTER, a=1)
    log0.append(1.5, EventType.SEND, a=1, b=7, c=64, d=0)
    log0.append(2.0, EventType.EXIT, a=1)
    log1 = EventLog()
    log1.append(1.8, EventType.RECV, a=0, b=7, c=64, d=0)
    return Trace(
        {0: log0, 1: log1},
        meta={
            "machine": "xeon",
            "timer": "tsc",
            "locations": [(0, 0, 0), (1, 0, 0)],
            "duration": 2.0,
        },
    )


def assert_traces_equal(a: Trace, b: Trace):
    assert a.ranks == b.ranks
    for rank in a.ranks:
        la, lb = a.logs[rank], b.logs[rank]
        np.testing.assert_array_equal(la.timestamps, lb.timestamps)
        np.testing.assert_array_equal(la.etypes, lb.etypes)
        np.testing.assert_array_equal(la.a, lb.a)
        np.testing.assert_array_equal(la.b, lb.b)
        np.testing.assert_array_equal(la.c, lb.c)
        np.testing.assert_array_equal(la.d, lb.d)


class TestRoundTrip:
    @pytest.mark.parametrize("ext", [".npz", ".jsonl"])
    def test_roundtrip(self, sample_trace, tmp_path, ext):
        path = write_trace(sample_trace, tmp_path / f"trace{ext}")
        loaded = read_trace(path)
        assert_traces_equal(sample_trace, loaded)
        assert loaded.meta["machine"] == "xeon"
        assert loaded.meta["duration"] == 2.0

    @pytest.mark.parametrize("ext", [".npz", ".jsonl"])
    def test_roundtrip_preserves_matching(self, sample_trace, tmp_path, ext):
        loaded = read_trace(write_trace(sample_trace, tmp_path / f"t{ext}"))
        msgs = loaded.messages()
        assert len(msgs) == 1
        assert msgs.row(0).send_ts == 1.5

    def test_empty_rank_roundtrip(self, tmp_path):
        log0 = EventLog()
        log0.append(1.0, EventType.ENTER, a=1)
        trace = Trace({0: log0, 5: EventLog().freeze()})
        loaded = read_trace(write_trace(trace, tmp_path / "t.npz"))
        assert loaded.ranks == [0, 5]
        assert len(loaded.logs[5]) == 0

    def test_locations_survive_as_lists(self, sample_trace, tmp_path):
        loaded = read_trace(write_trace(sample_trace, tmp_path / "t.npz"))
        assert list(map(tuple, loaded.meta["locations"])) == [(0, 0, 0), (1, 0, 0)]


class TestErrors:
    def test_unknown_extension_write(self, sample_trace, tmp_path):
        with pytest.raises(TraceFormatError):
            write_trace(sample_trace, tmp_path / "trace.xyz")

    def test_unknown_extension_read(self, tmp_path):
        p = tmp_path / "trace.xyz"
        p.write_text("data")
        with pytest.raises(TraceFormatError):
            read_trace(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            read_trace(tmp_path / "nope.npz")

    def test_not_a_trace_npz(self, tmp_path):
        p = tmp_path / "other.npz"
        np.savez(p, data=np.zeros(3))
        with pytest.raises(TraceFormatError):
            read_trace(p)

    def test_corrupt_jsonl(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(TraceFormatError):
            read_trace(p)

    def test_jsonl_missing_header(self, tmp_path):
        p = tmp_path / "noheader.jsonl"
        p.write_text('{"kind": "event", "rank": 0, "ts": 1.0, "type": "ENTER", "a": 0, "b": 0, "c": 0, "d": 0}\n')
        with pytest.raises(TraceFormatError):
            read_trace(p)

    def test_jsonl_unknown_event_type(self, tmp_path):
        p = tmp_path / "bad_type.jsonl"
        p.write_text(
            '{"kind": "header", "version": 1, "ranks": [0], "meta": {}}\n'
            '{"kind": "event", "rank": 0, "ts": 1.0, "type": "WAT", "a": 0, "b": 0, "c": 0, "d": 0}\n'
        )
        with pytest.raises(TraceFormatError):
            read_trace(p)

    def test_version_check(self, tmp_path):
        p = tmp_path / "v99.jsonl"
        p.write_text('{"kind": "header", "version": 99, "ranks": [], "meta": {}}\n')
        with pytest.raises(TraceFormatError):
            read_trace(p)


class TestAtomicWrite:
    """An encoder failure part-way through leaves the old file as it was."""

    @pytest.fixture
    def existing(self, sample_trace, tmp_path, request):
        path = write_trace(sample_trace, tmp_path / f"trace{request.param}")
        return path, path.read_bytes()

    @pytest.mark.parametrize("existing", [".npz"], indirect=True)
    def test_npz_failure_keeps_old_file(self, existing, sample_trace, monkeypatch):
        path, before = existing
        real, calls = np.lib.format.write_array, []

        def fail_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", fail_third)
        with pytest.raises(OSError, match="disk full"):
            write_trace(sample_trace, path)
        assert len(calls) == 3  # two arrays were written before the failure
        assert path.read_bytes() == before
        assert sorted(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("existing", [".jsonl"], indirect=True)
    def test_jsonl_failure_keeps_old_file(self, existing, sample_trace):
        path, before = existing
        bad = EventLog.from_arrays(
            np.array([1.0, 2.0]), np.array([0, 99], dtype=np.int32),  # 99: no event type
            *(np.zeros(2, dtype=np.int64) for _ in range(4)),
        )
        with pytest.raises(ValueError):
            write_trace(Trace({0: bad}), path)
        assert path.read_bytes() == before
        assert sorted(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("ext", [".npz", ".jsonl"])
    def test_replaces_whole(self, sample_trace, tmp_path, ext):
        path = tmp_path / f"trace{ext}"
        path.write_bytes(b"stale")
        write_trace(sample_trace, path)
        assert_traces_equal(read_trace(path), sample_trace)
        assert sorted(tmp_path.iterdir()) == [path]


class TestEndToEnd:
    def test_simulated_trace_roundtrip(self, tmp_path):
        """A trace produced by the full runtime must round-trip."""
        from repro.cluster import inter_node, xeon_cluster
        from repro.mpi import MpiWorld
        from repro.workloads import SparseConfig, sparse_worker

        preset = xeon_cluster()
        world = MpiWorld(
            preset, inter_node(preset.machine, 3), timer="tsc", seed=5, duration_hint=30.0
        )
        run = world.run(sparse_worker(SparseConfig(rounds=4)))
        loaded = read_trace(write_trace(run.trace, tmp_path / "sim.npz"))
        assert_traces_equal(run.trace, loaded)
        assert len(loaded.messages()) == len(run.trace.messages())
