"""Tests for clock-condition violation scans (repro.sync.violations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sync.violations import (
    lmin_matrix_from_trace,
    pair_lmin,
    resolve_lmin,
    scan_collectives,
    scan_messages,
    scan_pomp,
    scan_trace,
)
from repro.tracing.events import CollectiveOp, EventLog, EventType
from repro.tracing.trace import MessageTable, Trace


def table(send_ts, recv_ts, src=None, dst=None):
    n = len(send_ts)
    src = np.array(src if src is not None else [0] * n)
    dst = np.array(dst if dst is not None else [1] * n)
    z = np.zeros(n, dtype=np.int64)
    return MessageTable(
        src, dst, z, z, np.asarray(send_ts, float), np.asarray(recv_ts, float), z, z
    )


class TestResolveLmin:
    def test_scalar(self):
        out = resolve_lmin(2.5, np.array([0, 1]), np.array([1, 0]))
        np.testing.assert_array_equal(out, [2.5, 2.5])

    def test_matrix(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        out = resolve_lmin(mat, np.array([0, 1]), np.array([1, 0]))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_matrix_must_be_2d(self):
        with pytest.raises(ConfigurationError):
            resolve_lmin(np.array([1.0]), np.array([0]), np.array([1]))

    def test_callable(self):
        out = resolve_lmin(lambda s, d: s * 10 + d, np.array([1]), np.array([2]))
        np.testing.assert_array_equal(out, [12.0])

    def test_callable_matches_matrix_form(self):
        # Regression for the vectorized callable path: an lmin callable
        # backed by a matrix must produce exactly the matrix-form floors.
        rng = np.random.default_rng(11)
        mat = rng.uniform(1e-7, 1e-5, size=(6, 6))
        np.fill_diagonal(mat, 0.0)
        src = rng.integers(0, 6, 5000)
        dst = (src + 1 + rng.integers(0, 5, 5000)) % 6
        from_callable = resolve_lmin(lambda s, d: mat[s, d], src, dst)
        from_matrix = resolve_lmin(mat, src, dst)
        np.testing.assert_array_equal(from_callable, from_matrix)

    def test_callable_called_once_per_unique_pair(self):
        calls = []

        def lmin(s, d):
            calls.append((s, d))
            return 1e-6

        src = np.array([0, 0, 0, 2, 2, 2, 2])
        dst = np.array([1, 1, 1, 3, 3, 3, 3])
        out = resolve_lmin(lmin, src, dst)
        assert out.shape == (7,)
        assert sorted(set(calls)) == [(0, 1), (2, 3)]
        assert len(calls) == 2

    def test_callable_empty(self):
        out = resolve_lmin(lambda s, d: 1.0, np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64))
        assert out.shape == (0,)


class TestPairLmin:
    """The scalar resolver of the event-by-event passes (scalar CLC
    oracles, streaming) agrees with ``resolve_lmin`` for every spec."""

    def test_matches_resolve_lmin(self):
        mat = np.array([[0.0, 1.5e-6], [2.5e-6, 0.0]])
        src, dst = np.array([0, 1, 0]), np.array([1, 0, 1])
        for spec in (3e-6, mat, lambda s, d: mat[s, d]):
            fn = pair_lmin(spec)
            got = [fn(int(s), int(d)) for s, d in zip(src, dst)]
            assert all(type(v) is float for v in got)
            assert got == resolve_lmin(spec, src, dst).tolist()

    def test_callable_called_once_per_pair(self):
        calls = []

        def lmin(s, d):
            calls.append((s, d))
            return 1e-6

        fn = pair_lmin(lmin)
        assert [fn(0, 1), fn(0, 1), fn(2, 3), fn(0, 1)] == [1e-6] * 4
        assert calls == [(0, 1), (2, 3)]


class TestScanMessages:
    def test_no_violations(self):
        rep = scan_messages(table([1.0, 2.0], [1.5, 2.5]), lmin=0.0)
        assert rep.checked == 2
        assert rep.violated == 0
        assert rep.rate == 0.0
        assert rep.worst == 0.0

    def test_reversed_message_detected(self):
        rep = scan_messages(table([1.0, 2.0], [0.5, 2.5]), lmin=0.0)
        assert rep.violated == 1
        np.testing.assert_array_equal(rep.indices, [0])
        assert rep.worst == pytest.approx(0.5)

    def test_lmin_tightens_condition(self):
        # recv exactly 0.3 after send: fine for lmin=0, violated for lmin=0.5.
        assert scan_messages(table([1.0], [1.3]), lmin=0.0).violated == 0
        assert scan_messages(table([1.0], [1.3]), lmin=0.5).violated == 1

    def test_empty_table(self):
        rep = scan_messages(MessageTable.empty())
        assert rep.checked == 0
        assert rep.rate == 0.0

    def test_str(self):
        text = str(scan_messages(table([1.0], [0.5])))
        assert "1/1" in text


class TestScanCollectives:
    def coll_trace(self, enter, exit_, op=CollectiveOp.BARRIER, root=0):
        logs = {}
        for rank, (e, x) in enumerate(zip(enter, exit_)):
            log = EventLog()
            log.append(e, EventType.COLL_ENTER, int(op), root, len(enter), 0)
            log.append(x, EventType.COLL_EXIT, int(op), root, len(enter), 0)
            logs[rank] = log
        return Trace(logs)

    def test_overlapping_barrier_ok(self):
        trace = self.coll_trace(enter=[1.0, 1.1, 1.2], exit_=[2.0, 2.1, 2.2])
        rep, logical = scan_collectives(trace)
        assert rep.violated == 0
        assert len(logical) == 3  # one per member (binding constraint)

    def test_barrier_violation_detected(self):
        # Rank 0 exits (1.05) before rank 2 enters (1.2).
        trace = self.coll_trace(enter=[1.0, 1.1, 1.2], exit_=[1.05, 2.1, 2.2])
        rep, _ = scan_collectives(trace)
        assert rep.violated >= 1

    def test_bcast_only_root_constrains(self):
        # Root (rank 1) enters late at 5.0; others exit at 1.0 => violation.
        trace = self.coll_trace(
            enter=[0.5, 5.0, 0.6], exit_=[1.0, 6.0, 1.0], op=CollectiveOp.BCAST, root=1
        )
        rep, logical = scan_collectives(trace)
        assert len(logical) == 2  # root -> each non-root
        assert rep.violated == 2

    def test_reduce_root_exit_constrained(self):
        # Root exits before a member entered.
        trace = self.coll_trace(
            enter=[0.5, 3.0, 0.6], exit_=[1.0, 4.0, 1.0], op=CollectiveOp.REDUCE, root=0
        )
        rep, logical = scan_collectives(trace)
        assert len(logical) == 2  # each non-root -> root
        assert rep.violated == 1  # rank 1 entered at 3.0 > root exit 1.0


class TestScanTrace:
    def test_combined(self):
        log0 = EventLog()
        log0.append(1.0, EventType.SEND, 1, 0, 0, 0)
        log0.append(2.0, EventType.COLL_ENTER, int(CollectiveOp.BARRIER), 0, 2, 0)
        log0.append(3.0, EventType.COLL_EXIT, int(CollectiveOp.BARRIER), 0, 2, 0)
        log1 = EventLog()
        log1.append(0.5, EventType.RECV, 0, 0, 0, 0)  # reversed!
        log1.append(2.0, EventType.COLL_ENTER, int(CollectiveOp.BARRIER), 0, 2, 0)
        log1.append(3.0, EventType.COLL_EXIT, int(CollectiveOp.BARRIER), 0, 2, 0)
        reports = scan_trace(Trace({0: log0, 1: log1}))
        assert reports["p2p"].violated == 1
        assert reports["collective"].violated == 0


class TestLminMatrixFromTrace:
    def test_built_from_locations(self):
        from repro.cluster import xeon_cluster

        log = EventLog()
        log.append(0.0, EventType.ENTER, a=1)
        trace = Trace(
            {0: log, 1: EventLog().freeze()},
            meta={"locations": [(0, 0, 0), (1, 0, 0)]},
        )
        mat = lmin_matrix_from_trace(trace, xeon_cluster().latency)
        assert mat[0, 1] == pytest.approx(4.29e-6)
        assert mat[0, 0] == 0.0

    def test_requires_locations(self):
        log = EventLog()
        log.append(0.0, EventType.ENTER)
        with pytest.raises(ConfigurationError):
            lmin_matrix_from_trace(Trace({0: log}), None)


class TestScanPomp:
    def pomp_trace(self, fork, join, enters, exits, b_in, b_out):
        """Thread 0 is master; one region instance 0."""
        logs = {}
        nt = len(enters)
        for tid in range(nt):
            log = EventLog()
            if tid == 0:
                log.append(fork, EventType.OMP_FORK, 1, nt, 0, 0)
            log.append(enters[tid], EventType.OMP_PAR_ENTER, 1, nt, 0, 0)
            log.append(b_in[tid], EventType.OMP_BARRIER_ENTER, 1, nt, 0, 0)
            log.append(b_out[tid], EventType.OMP_BARRIER_EXIT, 1, nt, 0, 0)
            log.append(exits[tid], EventType.OMP_PAR_EXIT, 1, nt, 0, 0)
            if tid == 0:
                log.append(join, EventType.OMP_JOIN, 1, nt, 0, 0)
            logs[tid] = log
        return Trace(logs, meta={"model": "pomp"})

    def consistent(self):
        return self.pomp_trace(
            fork=0.0, join=10.0,
            enters=[1.0, 1.1], exits=[9.0, 9.1],
            b_in=[5.0, 5.1], b_out=[6.0, 6.1],
        )

    def test_consistent_region_clean(self):
        rep = scan_pomp(self.consistent())
        assert rep.regions == 1
        assert rep.any_violations == 0
        assert rep.pct("any") == 0.0

    def test_entry_violation(self):
        trace = self.pomp_trace(
            fork=1.05, join=10.0,  # fork after thread 1's enter (1.1)? no: after 1.0
            enters=[1.0, 1.1], exits=[9.0, 9.1],
            b_in=[5.0, 5.1], b_out=[6.0, 6.1],
        )
        rep = scan_pomp(trace)
        assert rep.entry_violations == 1
        assert rep.pct("entry") == 100.0

    def test_exit_violation(self):
        trace = self.pomp_trace(
            fork=0.0, join=9.05,  # before thread 1's PAR_EXIT at 9.1
            enters=[1.0, 1.1], exits=[9.0, 9.1],
            b_in=[5.0, 5.1], b_out=[6.0, 6.1],
        )
        rep = scan_pomp(trace)
        assert rep.exit_violations == 1

    def test_barrier_violation(self):
        # Thread 0 leaves the barrier (5.05) before thread 1 enters (5.1):
        # the Fig. 2d / Fig. 3 case.
        trace = self.pomp_trace(
            fork=0.0, join=10.0,
            enters=[1.0, 1.1], exits=[9.0, 9.1],
            b_in=[5.0, 5.1], b_out=[5.05, 6.1],
        )
        rep = scan_pomp(trace)
        assert rep.barrier_violations == 1
        assert rep.any_violations == 1

    def test_multiple_instances_counted_independently(self):
        t1 = self.consistent()
        # Merge a second, violating instance into new logs.
        logs = {}
        for tid in t1.ranks:
            log = EventLog()
            for ev in t1.logs[tid]:
                log.append(ev.timestamp, ev.etype, ev.a, ev.b, ev.c, ev.d)
            base = 100.0
            if tid == 0:
                log.append(base + 0.0, EventType.OMP_FORK, 1, 2, 0, 1)
            log.append(base + 1.0 + tid / 10, EventType.OMP_PAR_ENTER, 1, 2, 0, 1)
            log.append(base + 5.0 + tid / 10, EventType.OMP_BARRIER_ENTER, 1, 2, 0, 1)
            log.append(
                base + (5.05 if tid == 0 else 6.1), EventType.OMP_BARRIER_EXIT, 1, 2, 0, 1
            )
            log.append(base + 9.0 + tid / 10, EventType.OMP_PAR_EXIT, 1, 2, 0, 1)
            if tid == 0:
                log.append(base + 10.0, EventType.OMP_JOIN, 1, 2, 0, 1)
            logs[tid] = log
        rep = scan_pomp(Trace(logs))
        assert rep.regions == 2
        assert rep.barrier_violations == 1
        assert rep.pct("barrier") == 50.0

    def test_sync_lmin_tightens(self):
        trace = self.pomp_trace(
            fork=0.0, join=10.0,
            enters=[1.0, 1.1], exits=[9.0, 9.1],
            b_in=[5.0, 5.1], b_out=[5.15, 6.1],  # 0.05 above the other enter
        )
        assert scan_pomp(trace, sync_lmin=0.0).barrier_violations == 0
        assert scan_pomp(trace, sync_lmin=0.1).barrier_violations == 1


class TestViolationsByPair:
    def test_breakdown(self):
        from repro.sync.violations import violations_by_pair

        t = table(
            send_ts=[1.0, 2.0, 3.0, 4.0],
            recv_ts=[0.5, 2.5, 2.0, 4.5],
            src=[0, 0, 2, 2],
            dst=[1, 1, 3, 3],
        )
        by_pair = violations_by_pair(t, lmin=0.0)
        assert by_pair[(0, 1)] == (1, 2)
        assert by_pair[(2, 3)] == (1, 2)

    def test_empty(self):
        from repro.sync.violations import violations_by_pair

        assert violations_by_pair(MessageTable.empty()) == {}

    def test_totals_consistent_with_scan(self):
        from repro.sync.violations import violations_by_pair

        rng = np.random.default_rng(3)
        n = 200
        src = rng.integers(0, 4, n)
        dst = (src + 1 + rng.integers(0, 3, n)) % 4
        send = np.sort(rng.uniform(0, 10, n))
        recv = send + rng.normal(2e-6, 3e-6, n)
        z = np.zeros(n, dtype=np.int64)
        t = MessageTable(src, dst, z, z, send, recv, z, z)
        by_pair = violations_by_pair(t, lmin=0.0)
        total_v = sum(v for v, _ in by_pair.values())
        total_c = sum(c for _, c in by_pair.values())
        report = scan_messages(t, lmin=0.0)
        assert total_v == report.violated
        assert total_c == report.checked

    def test_matches_per_pair_masking_reference(self):
        # Regression for the np.unique/np.bincount rewrite: compare
        # against the original one-mask-per-pair formulation.
        from repro.sync.violations import resolve_lmin, violations_by_pair

        rng = np.random.default_rng(7)
        n = 3000
        src = rng.integers(0, 12, n)
        dst = (src + 1 + rng.integers(0, 11, n)) % 12
        send = np.sort(rng.uniform(0, 50, n))
        recv = send + rng.normal(4e-6, 3e-6, n)
        z = np.zeros(n, dtype=np.int64)
        t = MessageTable(src, dst, z, z, send, recv, z, z)
        lmin = 1e-6

        floors = resolve_lmin(lmin, t.src, t.dst)
        bad = t.recv_ts - (t.send_ts + floors) < 0
        pairs = t.src * (int(t.dst.max()) + 1) + t.dst
        reference = {}
        for key in np.unique(pairs):
            mask = pairs == key
            reference[(int(t.src[mask][0]), int(t.dst[mask][0]))] = (
                int(bad[mask].sum()),
                int(mask.sum()),
            )

        assert violations_by_pair(t, lmin=lmin) == reference
