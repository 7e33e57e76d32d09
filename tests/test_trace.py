"""Tests for the Trace container and record extraction (repro.tracing.trace)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MatchingError, TraceError
from repro.tracing.events import CollectiveOp, EventLog, EventType
from repro.tracing import trace as trace_module
from repro.tracing.trace import MessageTable, Trace
from repro.verify.cases import erase_match_ids


def two_rank_trace(with_ids=True, recv_before_send=False):
    """Rank 0 sends two tagged messages to rank 1."""
    send_ts = [1.0, 2.0]
    recv_ts = [1.5, 2.5] if not recv_before_send else [0.5, 2.5]
    log0 = EventLog()
    log0.append(0.5, EventType.ENTER, a=1)
    log0.append(send_ts[0], EventType.SEND, a=1, b=7, c=100, d=0 if with_ids else -1)
    log0.append(send_ts[1], EventType.SEND, a=1, b=8, c=200, d=1 if with_ids else -1)
    log0.append(3.0, EventType.EXIT, a=1)
    log1 = EventLog()
    log1.append(recv_ts[0], EventType.RECV, a=0, b=7, c=100, d=0 if with_ids else -1)
    log1.append(recv_ts[1], EventType.RECV, a=0, b=8, c=200, d=1 if with_ids else -1)
    return Trace({0: log0, 1: log1}, meta={"machine": "test"})


class TestBasics:
    def test_requires_nonempty(self):
        with pytest.raises(TraceError):
            Trace({})

    def test_ranks_sorted(self):
        t = two_rank_trace()
        assert t.ranks == [0, 1]
        assert t.nranks == 2

    def test_total_events_and_counts(self):
        t = two_rank_trace()
        assert t.total_events() == 6
        counts = t.event_counts()
        assert counts[EventType.SEND] == 2
        assert counts[EventType.RECV] == 2
        assert counts[EventType.ENTER] == 1

    def test_message_event_fraction(self):
        t = two_rank_trace()
        assert t.message_event_fraction() == pytest.approx(4 / 6)


def both_modes(trace: Trace) -> tuple[Trace, Trace]:
    """``trace`` as it is (matched by id) and with its ids erased (FIFO)."""
    return trace, erase_match_ids(trace)


def half_matched_trace() -> Trace:
    """Two sends to rank 1; the receive of the second fell outside the tracing window."""
    log0 = EventLog()
    log0.append(1.0, EventType.SEND, a=1, b=5, c=0, d=7)
    log0.append(2.0, EventType.SEND, a=1, b=5, c=0, d=8)
    log1 = EventLog()
    log1.append(1.5, EventType.RECV, a=0, b=5, c=0, d=7)
    return Trace({0: log0, 1: log1})


#: Every matching rule holds with ground-truth ids and with them erased (FIFO).
MODES = pytest.mark.parametrize("mode", [lambda t: t, erase_match_ids], ids=["by-id", "fifo"])


class TestMatching:
    def test_match_by_id(self):
        msgs = two_rank_trace(with_ids=True).messages()
        assert len(msgs) == 2
        by_tag = {int(t): i for i, t in enumerate(msgs.tag)}
        m7 = msgs.row(by_tag[7])
        assert (m7.src, m7.dst) == (0, 1)
        assert m7.send_ts == 1.0 and m7.recv_ts == 1.5
        assert m7.nbytes == 100

    def test_match_fifo_agrees_with_ids(self):
        by_id = two_rank_trace(with_ids=True).messages()
        fifo = two_rank_trace(with_ids=False).messages()
        for field in MessageTable.__slots__:
            assert getattr(by_id, field).tobytes() == getattr(fifo, field).tobytes()

    def test_fifo_ordering_within_channel(self):
        # Two same-tag messages must match first-to-first.
        log0 = EventLog()
        log0.append(1.0, EventType.SEND, a=1, b=5, c=10, d=-1)
        log0.append(2.0, EventType.SEND, a=1, b=5, c=20, d=-1)
        log1 = EventLog()
        log1.append(1.4, EventType.RECV, a=0, b=5, c=0, d=-1)
        log1.append(2.4, EventType.RECV, a=0, b=5, c=0, d=-1)
        msgs = Trace({0: log0, 1: log1}).messages()
        order = np.argsort(msgs.send_ts)
        assert msgs.recv_ts[order[0]] == 1.4
        assert msgs.recv_ts[order[1]] == 2.4

    def test_unmatched_receive_strict_raises(self):
        log1 = EventLog()
        log1.append(1.0, EventType.RECV, a=0, b=5, c=0, d=3)
        for trace in both_modes(Trace({0: EventLog(), 1: log1})):  # no sends
            with pytest.raises(MatchingError, match="receive"):
                trace.messages()

    def test_unmatched_send_strict_raises(self):
        log0 = EventLog()
        log0.append(1.0, EventType.SEND, a=1, b=5, c=0, d=3)
        for trace in both_modes(Trace({0: log0, 1: EventLog()})):
            with pytest.raises(MatchingError, match="send"):
                trace.messages()

    def test_nonstrict_drops_half_matched(self):
        for trace in both_modes(half_matched_trace()):
            msgs = trace.messages(strict=False)
            assert len(msgs) == 1 and msgs.recv_ts.tolist() == [1.5]

    def test_violated_timestamps_still_match(self):
        # Matching is structural; reversed timestamps must not break it.
        for trace in both_modes(two_rank_trace(recv_before_send=True)):
            msgs = trace.messages()
            assert len(msgs) == 2
            assert (msgs.recv_ts < msgs.send_ts).any()

    def test_empty_trace_matches_empty(self):
        log = EventLog()
        log.append(1.0, EventType.ENTER, a=1)
        assert len(Trace({0: log}).messages()) == 0

    @MODES
    def test_nbytes_is_the_receives(self, mode):
        """One rule in both modes: a row's byte count is its receive's."""
        log0 = EventLog()
        log0.append(1.0, EventType.SEND, a=1, b=5, c=100, d=0)
        log1 = EventLog()
        log1.append(1.5, EventType.RECV, a=0, b=5, c=64, d=0)
        assert mode(Trace({0: log0, 1: log1})).messages().nbytes.tolist() == [64]

    @MODES
    def test_strict_failure_names_rank_and_index(self, mode):
        with pytest.raises(MatchingError, match=r"1 send\(s\) .* at rank 0 index 1$"):
            mode(half_matched_trace()).messages()
        log1 = EventLog()
        log1.append(0.5, EventType.ENTER, a=1)
        log1.append(1.5, EventType.RECV, a=0, b=5, c=0, d=9)
        with pytest.raises(MatchingError, match=r"1 receive\(s\) .* at rank 1 index 1$"):
            mode(Trace({0: EventLog(), 1: log1})).messages()

    @MODES
    def test_strict_reads_the_nonstrict_join(self, mode, monkeypatch):
        """``messages(strict=False)`` then ``messages()`` runs the join once."""
        calls = []
        real = trace_module.join_keys
        monkeypatch.setattr(
            trace_module, "join_keys", lambda *keys: calls.append(1) or real(*keys)
        )
        base = mode(two_rank_trace())
        loose = base.messages(strict=False)
        assert base.messages() is loose
        half = mode(half_matched_trace())
        assert len(half.messages(strict=False)) == 1
        with pytest.raises(MatchingError):
            half.messages()
        assert calls == [1, 1]


class TestCollectives:
    def make_collective_trace(self):
        logs = {}
        for rank in range(3):
            log = EventLog()
            log.append(1.0 + 0.1 * rank, EventType.COLL_ENTER,
                       int(CollectiveOp.ALLREDUCE), 0, 3, 0)
            log.append(2.0 + 0.1 * rank, EventType.COLL_EXIT,
                       int(CollectiveOp.ALLREDUCE), 0, 3, 0)
            log.append(3.0, EventType.COLL_ENTER, int(CollectiveOp.BCAST), 1, 3, 1)
            log.append(4.0, EventType.COLL_EXIT, int(CollectiveOp.BCAST), 1, 3, 1)
            logs[rank] = log
        return Trace(logs)

    def test_extraction(self):
        colls = self.make_collective_trace().collectives()
        assert len(colls) == 2
        first = colls[0]
        assert first.op is CollectiveOp.ALLREDUCE
        assert first.root == 0
        np.testing.assert_array_equal(first.ranks, [0, 1, 2])
        np.testing.assert_allclose(first.enter_ts, [1.0, 1.1, 1.2])
        second = colls[1]
        assert second.op is CollectiveOp.BCAST
        assert second.root == 1

    def test_unclosed_collective_rejected(self):
        log = EventLog()
        log.append(1.0, EventType.COLL_ENTER, int(CollectiveOp.BARRIER), 0, 2, 0)
        with pytest.raises(TraceError, match=r"rank 0: unclosed collective instances \[0\]"):
            Trace({0: log}).collectives()

    def test_exit_without_enter_rejected(self):
        log = EventLog()
        log.append(1.0, EventType.COLL_EXIT, int(CollectiveOp.BARRIER), 0, 2, 0)
        with pytest.raises(
            TraceError, match="rank 0: COLL_EXIT for instance 0 without COLL_ENTER"
        ):
            Trace({0: log}).collectives()

    def test_pairing_is_the_same_for_a_log_and_for_its_slices(self):
        """A repeated instance id keeps its last enter — even one logged
        after the exit — and feeding the log slice by slice (as the
        streaming passes do) pairs exactly like feeding it whole."""
        barrier = int(CollectiveOp.BARRIER)
        log = EventLog()
        log.append(1.0, EventType.COLL_ENTER, barrier, 0, 1, 7)
        log.append(2.0, EventType.COLL_ENTER, barrier, 0, 1, 3)
        log.append(3.0, EventType.COLL_EXIT, barrier, 0, 1, 7)
        log.append(4.0, EventType.COLL_ENTER, barrier, 0, 1, 7)
        log.append(5.0, EventType.COLL_EXIT, barrier, 0, 1, 3)
        cols = (log.timestamps, log.etypes, log.a, log.b, log.d)
        whole = trace_module.pair_collectives(
            {0: [trace_module.collective_rows(0, *cols)]}
        )
        sliced = trace_module.pair_collectives({0: [
            trace_module.collective_rows(lo, *(c[lo:hi] for c in cols))
            for lo, hi in ((0, 2), (2, 2), (2, 5))
        ]})
        for table in (whole, sliced, Trace({0: log}).collectives()):
            assert table.instance.tolist() == [3, 7]
            assert table.enter_idx.tolist() == [1, 3]
            assert table.exit_idx.tolist() == [4, 2]
            assert table.enter_ts.tolist() == [2.0, 4.0]
        twice = EventLog()
        twice.append(1.0, EventType.COLL_ENTER, barrier, 0, 1, 7)
        twice.append(2.0, EventType.COLL_EXIT, barrier, 0, 1, 7)
        twice.append(3.0, EventType.COLL_EXIT, barrier, 0, 1, 7)
        with pytest.raises(TraceError, match="instance 7 without COLL_ENTER"):
            Trace({0: twice}).collectives()


class TestWithTimestamps:
    def test_replaces_selected_ranks(self):
        t = two_rank_trace()
        new = t.with_timestamps({1: t.logs[1].timestamps + 100.0})
        assert new.logs[1][0].timestamp == pytest.approx(101.5)
        assert new.logs[0][0].timestamp == pytest.approx(0.5)
        # Metadata carried over.
        assert new.meta["machine"] == "test"

    def test_caches_are_not_shared(self):
        t = two_rank_trace()
        _ = t.messages()
        new = t.with_timestamps({1: t.logs[1].timestamps + 100.0})
        msgs = new.messages()
        assert (msgs.recv_ts > 100.0).all()

    def test_collective_structure_is_carried_not_rescanned(self, monkeypatch):
        """A scanned trace hands its collective instance/index structure
        to its corrected copies (and theirs): only the enter/exit times
        are re-read, and ``refresh=True`` still rebuilds from the log."""
        base = TestCollectives().make_collective_trace()
        shifted = {r: base.logs[r].timestamps * 2.0 + r for r in (0, 2)}
        want = base.with_timestamps(shifted).collectives()
        base.collectives()
        derived = base.with_timestamps(shifted)
        again = derived.with_timestamps({})  # structure passes through unscanned copies
        monkeypatch.setattr(trace_module, "pair_collectives", None)
        for table in (derived.collectives(), again.collectives()):
            assert len(table) == len(want)
            for got, ref in zip(table, want):
                assert (got.instance, got.op, got.root) == (ref.instance, ref.op, ref.root)
                for field in ("ranks", "enter_ts", "exit_ts", "enter_idx", "exit_idx"):
                    a, b = getattr(got, field), getattr(ref, field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        with pytest.raises(TypeError):  # refresh goes back to the log
            derived.collectives(refresh=True)

    @pytest.mark.parametrize("strict", [True, False])
    def test_matching_is_carried_not_repeated(self, monkeypatch, strict):
        """Messages are matched once per event structure: asked again the
        table comes from the cache, a corrected copy (and its copies)
        re-reads only the send/receive times, ``refresh=True`` rematches
        once for both ``strict`` modes."""
        base = two_rank_trace()
        shifted = {r: base.logs[r].timestamps * 2.0 + r for r in base.ranks}
        want = base.with_timestamps(shifted).messages(strict=strict)
        first = base.messages(strict=strict)
        calls = []
        real = Trace._match_messages
        monkeypatch.setattr(Trace, "_match_messages", lambda self: calls.append(1) or real(self))
        assert base.messages(strict=strict) is first
        derived = base.with_timestamps(shifted)
        again = derived.with_timestamps({})
        for table in (derived.messages(strict=strict), again.messages(strict=strict)):
            for field in MessageTable.__slots__:
                a, b = getattr(table, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert calls == []
        fresh = derived.messages(strict=strict, refresh=True)
        assert derived.messages(strict=not strict) is fresh  # one join serves both
        assert calls == [1]

    def test_one_correction_matches_messages_once(self, monkeypatch):
        from repro.core.correct import correct_trace

        calls = []
        real = Trace._match_messages
        monkeypatch.setattr(Trace, "_match_messages", lambda self: calls.append(1) or real(self))
        base = two_rank_trace()
        result = correct_trace(base, interpolation="none", clc=True)
        assert [s.stage for s in result.stages] == ["raw", "none", "clc"]
        assert calls == [1]  # three scans and the edge table share one matching pass
