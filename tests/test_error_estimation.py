"""Tests for error-estimation offset recovery (repro.sync.error_estimation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SynchronizationError
from repro.sync.error_estimation import (
    OffsetLine,
    estimate_pairwise_offsets,
    synchronize_by_spanning_tree,
)
from repro.sync.violations import scan_messages
from repro.tracing.trace import MessageTable


def synthetic_messages(
    a: float,
    b: float,
    lmin: float = 4e-6,
    n: int = 60,
    jitter: float = 5e-7,
    seed: int = 0,
    t_span: float = 100.0,
):
    """Bidirectional traffic between ranks 0 and 1 where clock 1 runs
    ahead of clock 0 by o(t) = a + b*t (t = clock-0 time).

    A message 0->1 sent at clock-0 time t with wire delay d arrives at
    clock-1 reading t + d + o(t); the reverse direction subtracts o.
    """
    rng = np.random.default_rng(seed)
    t_fwd = np.sort(rng.uniform(0, t_span, n))
    t_rev = np.sort(rng.uniform(0, t_span, n))
    d_fwd = lmin + rng.exponential(jitter, n)
    d_rev = lmin + rng.exponential(jitter, n)
    send = np.concatenate([t_fwd, t_rev])
    recv = np.concatenate(
        [t_fwd + d_fwd + (a + b * t_fwd), t_rev + d_rev - (a + b * t_rev)]
    )
    src = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    dst = np.concatenate([np.ones(n, int), np.zeros(n, int)])
    z = np.zeros(2 * n, dtype=np.int64)
    idx = np.arange(2 * n)
    return MessageTable(src, dst, z, z, send, recv, idx, idx)


@pytest.mark.parametrize("method", ["regression", "hull", "minmax"])
class TestRecovery:
    def test_recovers_constant_offset(self, method):
        msgs = synthetic_messages(a=5e-4, b=0.0)
        line = estimate_pairwise_offsets(msgs, (0, 1), lmin=4e-6, method=method)
        assert line.a == pytest.approx(5e-4, abs=3e-6)
        assert abs(line.b) < 5e-8

    def test_recovers_drift(self, method):
        msgs = synthetic_messages(a=1e-4, b=2e-6)
        line = estimate_pairwise_offsets(msgs, (0, 1), lmin=4e-6, method=method)
        assert line.b == pytest.approx(2e-6, abs=2e-7)
        assert line.at(50.0) == pytest.approx(1e-4 + 2e-6 * 50, abs=5e-6)


class TestHullSpecifics:
    def test_hull_stays_within_constraints(self):
        """The hull line must satisfy every directional bound with
        non-negative margin (it is a feasible separating line)."""
        msgs = synthetic_messages(a=2e-4, b=1e-6, jitter=1e-6, seed=3)
        lmin = 4e-6
        line = estimate_pairwise_offsets(msgs, (0, 1), lmin=lmin, method="hull")
        fwd = (msgs.src == 0)
        d_fwd = msgs.recv_ts[fwd] - msgs.send_ts[fwd] - lmin
        d_rev = msgs.recv_ts[~fwd] - msgs.send_ts[~fwd] - lmin
        upper_margin = d_fwd - (line.a + line.b * msgs.send_ts[fwd])
        lower_margin = (line.a + line.b * msgs.send_ts[~fwd]) + d_rev
        assert upper_margin.min() > -1e-9
        assert lower_margin.min() > -1e-9

    def test_hull_tighter_than_regression_under_skew(self):
        """With heavy one-sided jitter, the hull (which leans on the
        minimal delays) recovers the offset better than the symmetric
        regression."""
        msgs = synthetic_messages(a=3e-4, b=0.0, jitter=8e-6, seed=11, n=120)
        hull = estimate_pairwise_offsets(msgs, (0, 1), lmin=4e-6, method="hull")
        reg = estimate_pairwise_offsets(msgs, (0, 1), lmin=4e-6, method="regression")
        assert abs(hull.at(50.0) - 3e-4) <= abs(reg.at(50.0) - 3e-4)


class TestValidation:
    def test_requires_bidirectional_traffic(self):
        msgs = synthetic_messages(a=0.0, b=0.0)
        one_way = MessageTable(
            msgs.src[:10] * 0, msgs.dst[:10] * 0 + 1, msgs.tag[:10], msgs.nbytes[:10],
            msgs.send_ts[:10], msgs.recv_ts[:10], msgs.send_idx[:10], msgs.recv_idx[:10],
        )
        with pytest.raises(SynchronizationError):
            estimate_pairwise_offsets(one_way, (0, 1))

    def test_unknown_method(self):
        msgs = synthetic_messages(a=0.0, b=0.0)
        with pytest.raises(SynchronizationError):
            estimate_pairwise_offsets(msgs, (0, 1), method="magic")


class TestSpanningTreeSync:
    def traced_run(self, seed=5, timer="tsc"):
        from repro.cluster import inter_node, xeon_cluster
        from repro.mpi import MpiWorld
        from repro.workloads import SparseConfig, sparse_worker

        preset = xeon_cluster()
        world = MpiWorld(
            preset,
            inter_node(preset.machine, 4),
            timer=timer,
            seed=seed,
            duration_hint=60.0,
        )
        return world.run(
            sparse_worker(SparseConfig(rounds=25, density=0.5), seed=seed),
            measure_offsets=False,
        )

    def test_reduces_violations_on_drifting_trace(self):
        run = self.traced_run(timer="mpi_wtime")
        before = scan_messages(run.trace.messages(), lmin=0.0)
        corr = synchronize_by_spanning_tree(run.trace, lmin=1e-6, method="regression")
        after = scan_messages(corr.apply(run.trace).messages(refresh=True), lmin=0.0)
        assert before.violated > 0
        assert after.violated < before.violated

    def test_master_identity(self):
        run = self.traced_run()
        corr = synchronize_by_spanning_tree(run.trace, lmin=1e-6, master=2)
        ts = run.trace.logs[2].timestamps
        np.testing.assert_array_equal(corr.apply_rank(2, ts), ts)

    def test_raises_without_messages(self):
        from repro.tracing.events import EventLog, EventType
        from repro.tracing.trace import Trace

        log = EventLog()
        log.append(1.0, EventType.ENTER, a=1)
        with pytest.raises(SynchronizationError):
            synchronize_by_spanning_tree(Trace({0: log}))
