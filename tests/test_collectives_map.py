"""Tests for collective -> logical message mapping (repro.sync.collectives_map)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import examples
from repro.sync.collectives_map import logical_messages
from repro.sync.order import build_dependencies, dependency_edges
from repro.tracing.events import (
    COLLECTIVE_FLAVORS,
    CollectiveFlavor,
    CollectiveOp,
    EventLog,
    EventType,
)
from repro.tracing.trace import MessageTable, Trace
from repro.verify.oracles import dependency_edges_reference


def collective_trace(op, root, enter, exit_):
    logs = {}
    for rank, (e, x) in enumerate(zip(enter, exit_)):
        log = EventLog()
        log.append(e, EventType.COLL_ENTER, int(op), root, len(enter), 0)
        log.append(x, EventType.COLL_EXIT, int(op), root, len(enter), 0)
        logs[rank] = log
    return Trace(logs)


class TestOneToN:
    def test_bcast_messages(self):
        trace = collective_trace(
            CollectiveOp.BCAST, root=1, enter=[1.0, 0.9, 1.1], exit_=[2.0, 2.1, 2.2]
        )
        msgs = logical_messages(trace.collectives())
        assert len(msgs) == 2
        assert set(msgs.src) == {1}
        assert set(msgs.dst) == {0, 2}
        # Send side is the root's enter.
        np.testing.assert_allclose(msgs.send_ts, [0.9, 0.9])
        # Receive side is each destination's exit.
        assert set(np.round(msgs.recv_ts, 6)) == {2.0, 2.2}


class TestNToOne:
    def test_reduce_messages(self):
        trace = collective_trace(
            CollectiveOp.REDUCE, root=0, enter=[1.0, 1.2, 1.4], exit_=[2.0, 1.9, 1.8]
        )
        msgs = logical_messages(trace.collectives())
        assert len(msgs) == 2
        assert set(msgs.dst) == {0}
        assert set(msgs.src) == {1, 2}
        np.testing.assert_allclose(sorted(msgs.send_ts), [1.2, 1.4])
        np.testing.assert_allclose(msgs.recv_ts, [2.0, 2.0])


class TestNToN:
    def test_one_message_per_member(self):
        trace = collective_trace(
            CollectiveOp.ALLREDUCE, root=0, enter=[1.0, 1.5, 1.2], exit_=[2.0, 2.1, 2.2]
        )
        msgs = logical_messages(trace.collectives())
        assert len(msgs) == 3

    def test_binding_sender_is_latest_other_enter(self):
        trace = collective_trace(
            CollectiveOp.BARRIER, root=0, enter=[1.0, 9.0, 1.2], exit_=[10.0, 10.1, 10.2]
        )
        msgs = logical_messages(trace.collectives())
        for i in range(len(msgs)):
            m = msgs.row(i)
            if m.dst == 1:
                # Rank 1 is the latest enterer; its binding sender is the
                # latest of the *others* (rank 2 at 1.2).
                assert m.src == 2
                assert m.send_ts == pytest.approx(1.2)
            else:
                assert m.src == 1
                assert m.send_ts == pytest.approx(9.0)

    def test_equivalence_with_full_pairwise_check(self):
        """The per-member binding message detects a violation iff the
        full n*(n-1) pairwise expansion does."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            enter = rng.uniform(0, 10, n)
            exit_ = rng.uniform(0, 10, n)
            trace = collective_trace(CollectiveOp.BARRIER, 0, enter.tolist(), exit_.tolist())
            msgs = logical_messages(trace.collectives())
            compact = bool(np.any(msgs.recv_ts < msgs.send_ts))
            full = any(
                exit_[i] < enter[j]
                for i in range(n)
                for j in range(n)
                if i != j
            )
            assert compact == full


class TestEdgeCases:
    def test_single_member_collective_ignored(self):
        trace = collective_trace(CollectiveOp.BARRIER, root=0, enter=[1.0], exit_=[2.0])
        assert len(logical_messages(trace.collectives())) == 0

    def test_empty_table(self):
        log = EventLog()
        log.append(1.0, EventType.ENTER, a=1)
        trace = Trace({0: log})
        assert len(logical_messages(trace.collectives())) == 0

    def test_indices_point_at_collective_events(self):
        trace = collective_trace(
            CollectiveOp.BCAST, root=0, enter=[1.0, 1.1], exit_=[2.0, 2.1]
        )
        msgs = logical_messages(trace.collectives())
        m = msgs.row(0)
        send_ev = trace.logs[m.src][m.send_idx]
        recv_ev = trace.logs[m.dst][m.recv_idx]
        assert send_ev.etype == EventType.COLL_ENTER
        assert recv_ev.etype == EventType.COLL_EXIT


# ----------------------------------------------------------------------
# The shared expansion against the scalar loops it replaced
# ----------------------------------------------------------------------
def logical_messages_reference(collectives) -> MessageTable:
    """The per-member loop ``logical_messages`` was before the shared
    expansion, kept as the oracle.  One word differs: the N-to-N sort is
    ``kind="stable"``, which *defines* the tie rule (the default sort's
    order among equal enters depends on the CPU's SIMD dispatch)."""
    src_l, dst_l, sts_l, rts_l, sidx_l, ridx_l = ([] for _ in range(6))

    def emit(rec, j, i):
        src_l.append(int(rec.ranks[j]))
        dst_l.append(int(rec.ranks[i]))
        sts_l.append(float(rec.enter_ts[j]))
        rts_l.append(float(rec.exit_ts[i]))
        sidx_l.append(int(rec.enter_idx[j]))
        ridx_l.append(int(rec.exit_idx[i]))

    for rec in collectives:
        flavor = COLLECTIVE_FLAVORS[rec.op]
        n = rec.ranks.size
        if n < 2:
            continue
        enter = rec.enter_ts
        if flavor is CollectiveFlavor.ONE_TO_N:
            pos = int(np.nonzero(rec.ranks == rec.root)[0][0])
            for i in range(n):
                if i != pos:
                    emit(rec, pos, i)
        elif flavor is CollectiveFlavor.N_TO_ONE:
            pos = int(np.nonzero(rec.ranks == rec.root)[0][0])
            for i in range(n):
                if i != pos:
                    emit(rec, i, pos)
        elif flavor is CollectiveFlavor.PREFIX:
            best = 0
            for i in range(1, n):
                if enter[i - 1] > enter[best]:
                    best = i - 1
                emit(rec, best, i)
        else:  # N_TO_N
            order = np.argsort(enter, kind="stable")
            top, second = int(order[-1]), int(order[-2])
            for i in range(n):
                emit(rec, second if i == top else top, i)

    if not src_l:
        return MessageTable.empty()
    zeros = np.zeros(len(src_l), dtype=np.int64)
    return MessageTable(
        np.array(src_l), np.array(dst_l), zeros, zeros,
        np.array(sts_l), np.array(rts_l), np.array(sidx_l), np.array(ridx_l),
    )


def assert_tables_equal(got: MessageTable, want: MessageTable) -> None:
    for column in MessageTable.__slots__:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), column


@st.composite
def structured_traces(draw):
    """Sub-communicator collectives of every flavor over up to 20 ranks,
    tie-prone timestamps, and point-to-point traffic with dropped ends."""
    nranks = draw(st.integers(1, 20))
    with_ids = draw(st.booleans())
    stamp = st.sampled_from([0.0, 1.0, 2.0])  # three values: ties everywhere
    logs = {rank: EventLog() for rank in range(nranks)}
    items = draw(st.lists(st.sampled_from(["collective", "message"]), max_size=8))
    for k, item in enumerate(items):
        if item == "collective":
            members = draw(st.lists(st.integers(0, nranks - 1), min_size=1,
                                    max_size=nranks, unique=True))
            op = int(draw(st.sampled_from(sorted(CollectiveOp, key=int))))
            root = draw(st.sampled_from(members))
            for rank in members:
                logs[rank].append(draw(stamp), EventType.COLL_ENTER, op, root, len(members), k)
            for rank in members:
                logs[rank].append(draw(stamp), EventType.COLL_EXIT, op, root, len(members), k)
        else:
            src, dst = draw(st.integers(0, nranks - 1)), draw(st.integers(0, nranks - 1))
            tag = draw(st.integers(0, 1))
            kept = draw(st.sampled_from(["both", "both", "send", "recv"]))
            mid = k if with_ids else -1
            if kept != "recv":
                logs[src].append(draw(stamp), EventType.SEND, dst, tag, 8, mid)
            if kept != "send":
                logs[dst].append(draw(stamp), EventType.RECV, src, tag, 8, mid)
    return Trace(logs)


class TestAgainstScalarReferences:
    @examples(200)
    @given(structured_traces(), st.booleans())
    def test_edges_and_logical_messages_match(self, trace, include_collectives):
        want = dependency_edges_reference(trace, include_collectives)
        columns = dependency_edges(trace, include_collectives)
        assert all(column.dtype == np.int64 for column in columns)
        assert list(zip(*(column.tolist() for column in columns))) == want
        as_dict: dict = {}
        for *ref, src_rank, src_idx in want:
            as_dict.setdefault(tuple(ref), []).append((src_rank, src_idx))
        assert list(build_dependencies(trace, include_collectives).items()) == (
            list(as_dict.items())
        )
        table = trace.collectives()
        assert_tables_equal(logical_messages(table), logical_messages_reference(table))

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 64])
    def test_tie_rule(self, n):
        """N-to-N: among equally late enters the highest member position
        binds (runner-up likewise); prefix: the lowest."""
        for late in ([n - 1], [0], list(range(n)), [0, n // 2], [n // 2, n - 1]):
            enter = [5.0 if i in late else 1.0 for i in range(n)]
            barrier = collective_trace(CollectiveOp.BARRIER, 0, enter, [9.0] * n).collectives()
            got = logical_messages(barrier)
            others = [[j for j in range(n) if j != i] for i in range(n)]
            want = [
                max(js, key=lambda j: (enter[j], j)) for js in others
            ]
            assert got.dst.tolist() == list(range(n))
            assert got.src.tolist() == want
            assert_tables_equal(got, logical_messages_reference(barrier))

            scan = collective_trace(CollectiveOp.SCAN, 0, enter, [9.0] * n).collectives()
            got = logical_messages(scan)
            assert got.src.tolist() == [
                max(range(i), key=lambda j: (enter[j], -j)) for i in range(1, n)
            ]
            assert_tables_equal(got, logical_messages_reference(scan))
