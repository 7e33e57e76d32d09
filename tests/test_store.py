"""Tests for the out-of-core sharded trace store (repro.tracing.store)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.tracing.events import EventLog, EventType
from repro.tracing.reader import read_trace
from repro.tracing.store import (
    ChunkedTrace,
    ShardedTraceReader,
    ShardedTraceWriter,
    SpillingTraceBuffer,
    is_sharded_trace_dir,
    write_sharded_trace,
)
from repro.tracing.trace import Trace
from repro.tracing.writer import write_trace


def _json_meta(meta: dict) -> dict:
    """Meta as it comes back from the store (JSON round-trip, like .jsonl)."""
    return json.loads(json.dumps(meta))


@pytest.fixture
def sample_trace() -> Trace:
    log0 = EventLog()
    log0.append(1.0, EventType.ENTER, a=1)
    log0.append(1.5, EventType.SEND, a=1, b=7, c=64, d=0)
    log0.append(2.0, EventType.EXIT, a=1)
    log1 = EventLog()
    log1.append(1.8, EventType.RECV, a=0, b=7, c=64, d=0)
    return Trace(
        {0: log0, 1: log1},
        meta={"machine": "xeon", "timer": "tsc", "duration": 2.0},
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
    def test_basic(self, sample_trace, tmp_path):
        d = write_sharded_trace(sample_trace, tmp_path / "shards", shard_events=2)
        assert is_sharded_trace_dir(d)
        reader = ShardedTraceReader(d, verify_digests=True)
        got = reader.read_trace()
        assert_traces_equal(sample_trace, got)
        assert got.meta == _json_meta(sample_trace.meta)

    def test_chunked_facade(self, sample_trace, tmp_path):
        d = write_sharded_trace(sample_trace, tmp_path / "shards", shard_events=2)
        chunked = ChunkedTrace(d)
        assert chunked.nranks == 2
        assert chunked.total_events() == sample_trace.total_events()
        assert_traces_equal(sample_trace, chunked.materialize())

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        shard_events=st.sampled_from([1, 2, 3, 5, 1000]),
        nevents=st.lists(st.integers(0, 11), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_property_any_shard_size(self, tmp_path_factory, shard_events,
                                     nevents, seed):
        rng = np.random.default_rng(seed)
        logs = {}
        for rank, n in enumerate(nevents):
            logs[rank] = EventLog.from_arrays(
                np.sort(rng.uniform(0.0, 1.0, n)),
                rng.integers(0, 6, n).astype(np.int32),
                rng.integers(0, 4, n).astype(np.int64),
                rng.integers(0, 4, n).astype(np.int64),
                rng.integers(0, 100, n).astype(np.int64),
                rng.integers(-1, 50, n).astype(np.int64),
            )
        trace = Trace(logs, meta={"seed": seed})
        d = tmp_path_factory.mktemp("prop")
        write_sharded_trace(trace, d / "s", shard_events=shard_events)
        reader = ShardedTraceReader(d / "s", verify_digests=True)
        assert_traces_equal(trace, reader.read_trace())
        per_rank = [len(reader.rank_shards(r)) for r in reader.ranks]
        assert all(
            n == -(-len(logs[r].timestamps) // shard_events) or n == 0
            for r, n in zip(reader.ranks, per_rank)
        )


class TestCorruptionDetection:
    def _shards(self, sample_trace, tmp_path):
        return write_sharded_trace(sample_trace, tmp_path / "s", shard_events=2)

    def test_truncated_shard_file(self, sample_trace, tmp_path):
        d = self._shards(sample_trace, tmp_path)
        shard = next(d.glob("*.bin"))
        shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.raises(TraceFormatError, match="truncated or corrupt"):
            ShardedTraceReader(d)

    def test_bitflip_caught_by_digest(self, sample_trace, tmp_path):
        d = self._shards(sample_trace, tmp_path)
        shard = next(d.glob("*.bin"))
        raw = bytearray(shard.read_bytes())
        raw[0] ^= 0xFF
        shard.write_bytes(bytes(raw))
        ShardedTraceReader(d)  # sizes still match: passes without digests
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            ShardedTraceReader(d, verify_digests=True)

    def test_corrupt_manifest_json(self, sample_trace, tmp_path):
        d = self._shards(sample_trace, tmp_path)
        manifest = d / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"kind": "footer"', '"kind'))
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            ShardedTraceReader(d)

    def test_missing_shard_record(self, sample_trace, tmp_path):
        d = self._shards(sample_trace, tmp_path)
        manifest = d / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        shard_lines = [l for l in lines if '"kind": "shard"' in l]
        lines.remove(shard_lines[-1])
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError):
            ShardedTraceReader(d)

    def test_interrupted_run_needs_allow_partial(self, sample_trace, tmp_path):
        d = self._shards(sample_trace, tmp_path)
        manifest = d / "manifest.jsonl"
        lines = [l for l in manifest.read_text().splitlines()
                 if '"kind": "footer"' not in l]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="no footer"):
            ShardedTraceReader(d)
        reader = ShardedTraceReader(d, allow_partial=True)
        assert reader.partial
        assert reader.total_events() == sample_trace.total_events()


class TestFormatSteering:
    def test_write_trace_mentions_sharded_store(self, sample_trace, tmp_path):
        with pytest.raises(TraceFormatError, match="write_sharded_trace"):
            write_trace(sample_trace, tmp_path / "trace.xyz")

    def test_read_trace_steers_to_sharded_reader(self, sample_trace, tmp_path):
        d = write_sharded_trace(sample_trace, tmp_path / "s", shard_events=2)
        with pytest.raises(TraceFormatError, match="ShardedTraceReader"):
            read_trace(d)


class TestSpillingBuffer:
    def test_spills_and_round_trips(self, sample_trace, tmp_path):
        writer = ShardedTraceWriter(tmp_path / "s", shard_events=2)
        with writer:
            for rank in sample_trace.ranks:
                buf = SpillingTraceBuffer(writer, rank, capacity=10)
                log = sample_trace.logs[rank]
                for i in range(len(log.timestamps)):
                    buf.append(
                        float(log.timestamps[i]), int(log.etypes[i]),
                        int(log.a[i]), int(log.b[i]), int(log.c[i]),
                        int(log.d[i]),
                    )
                buf.drain()
            writer.finish(meta=sample_trace.meta)
        got = ShardedTraceReader(tmp_path / "s").read_trace()
        assert_traces_equal(sample_trace, got)
