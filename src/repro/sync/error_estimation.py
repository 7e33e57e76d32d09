"""Error estimation: offset lines recovered from message timestamps.

Section V: *"Error estimation allows the retroactive correction of clock
values in event traces after assessing synchronization errors among all
distributed clock pairs.  First, difference functions among clock values
are calculated from the differences between clock values of receive
events and clock values of send events (plus the minimum message
latency).  Second, a medial smoothing function can be found ... because
for each clock pair two difference functions exist."*

For messages p -> q the observed difference is::

    d_pq(t) = recv_ts_q - send_ts_p = l_pq + o_qp(t) ,  l_pq >= l_min

so ``d_pq - l_min`` upper-bounds the q-minus-p offset, and the reverse
direction lower-bounds it.  Three estimators of the medial line
``o(t) = a + b t`` are implemented:

* ``"regression"`` — Duda et al.'s regression variant: least-squares
  lines through both directions' difference points, averaged;
* ``"hull"`` — Duda's convex-hull variant, solved exactly as a linear
  program (maximize the margin ``m`` such that the line stays ``m``
  inside both constraint families) via :func:`scipy.optimize.linprog`;
* ``"minmax"`` — Hofmann's minimum/maximum simplification: anchor the
  line to the smallest difference seen in each half of the time range.

:func:`synchronize_by_spanning_tree` composes pairwise estimates along a
maximum-message-count spanning tree (Jezequel's adaptation to arbitrary
topologies, built with networkx) to produce a
:class:`~repro.sync.interpolation.ClockCorrection` onto a master rank.
The observations are the point-to-point messages alone, and each rank
gets one line over the whole run: a line cannot follow clocks that bend
within the run (NTP slews), which the exchange midpoints of
:mod:`repro.sync.exchange` and the piecewise interpolation of measured
offsets can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

# scipy and networkx are imported inside the functions that use them:
# ``repro.sync`` imports this module in every process, and the three
# imports cost ~1 s and ~75 MiB that only these optional modes need.
from repro.errors import SynchronizationError
from repro.sync.interpolation import ClockCorrection
from repro.sync.violations import LminSpec, resolve_lmin
from repro.tracing.trace import MessageTable, Trace

__all__ = ["OffsetLine", "estimate_pairwise_offsets", "synchronize_by_spanning_tree"]

Method = Literal["regression", "hull", "minmax"]


@dataclass(frozen=True)
class OffsetLine:
    """Estimated offset of clock q minus clock p: ``o(t) = a + b t``.

    ``t`` is measured on p's clock (the difference between using p's or
    q's time axis is second order in the ppm-scale drift).
    """

    p: int
    q: int
    a: float
    b: float
    method: str
    support: int  # messages used

    def at(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.a + self.b * np.asarray(t, dtype=np.float64) if np.ndim(t) else self.a + self.b * float(t)


def _direction_points(
    messages: MessageTable, p: int, q: int, lmin: LminSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(send_ts, difference - l_min) for all messages p -> q."""
    mask = (messages.src == p) & (messages.dst == q)
    if not np.any(mask):
        return np.empty(0), np.empty(0)
    send = messages.send_ts[mask]
    recv = messages.recv_ts[mask]
    floors = resolve_lmin(lmin, messages.src[mask], messages.dst[mask])
    return send, recv - send - floors


def estimate_pairwise_offsets(
    messages: MessageTable,
    pair: tuple[int, int],
    lmin: LminSpec = 0.0,
    method: Method = "regression",
) -> OffsetLine:
    """Estimate the offset line of clock q minus clock p from messages.

    Requires traffic in *both* directions between the pair (the medial
    function needs both difference functions); raises
    :class:`SynchronizationError` otherwise.
    """
    p, q = pair
    t_fwd, d_fwd = _direction_points(messages, p, q, lmin)  # bounds o_qp from above
    t_rev, d_rev = _direction_points(messages, q, p, lmin)  # bounds o_qp from below
    if t_fwd.size == 0 or t_rev.size == 0:
        raise SynchronizationError(
            f"pair ({p}, {q}) lacks messages in one direction "
            f"({t_fwd.size} forward, {t_rev.size} reverse)"
        )
    support = int(t_fwd.size + t_rev.size)

    if method == "regression":
        a, b = _regression_line(t_fwd, d_fwd, t_rev, d_rev)
    elif method == "hull":
        a, b = _hull_line(t_fwd, d_fwd, t_rev, d_rev)
    elif method == "minmax":
        a, b = _minmax_line(t_fwd, d_fwd, t_rev, d_rev)
    else:
        raise SynchronizationError(f"unknown estimation method {method!r}")
    return OffsetLine(p=p, q=q, a=a, b=b, method=method, support=support)


def _fit_line(t: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    if t.size == 1:
        return float(d[0]), 0.0
    if np.allclose(t, t[0]):
        return float(d.mean()), 0.0
    from scipy.stats import linregress

    res = linregress(t, d)
    return float(res.intercept), float(res.slope)


def _regression_line(t_fwd, d_fwd, t_rev, d_rev) -> tuple[float, float]:
    # o_qp(t) <= d_fwd(t) and o_qp(t) >= -d_rev(t); the medial line is the
    # average of the least-squares fits to the upper and lower families.
    a_up, b_up = _fit_line(t_fwd, d_fwd)
    a_dn, b_dn = _fit_line(t_rev, -d_rev)
    return (a_up + a_dn) / 2.0, (b_up + b_dn) / 2.0


def _hull_line(t_fwd, d_fwd, t_rev, d_rev) -> tuple[float, float]:
    """Max-margin line inside both constraint families (exact LP).

    maximize m  s.t.  a + b t_i + m <= d_fwd_i     (stay below upper pts)
                      a + b t_j - m >= -d_rev_j    (stay above lower pts)

    Variables x = (a, b, m); linprog minimizes c @ x with A_ub x <= b_ub.
    """
    # Normalize the time axis for LP conditioning.
    t0 = min(t_fwd.min(), t_rev.min())
    scale = max(max(t_fwd.max(), t_rev.max()) - t0, 1.0)
    tf = (t_fwd - t0) / scale
    tr = (t_rev - t0) / scale

    n_up, n_dn = tf.size, tr.size
    a_ub = np.zeros((n_up + n_dn, 3))
    b_ub = np.zeros(n_up + n_dn)
    a_ub[:n_up, 0] = 1.0
    a_ub[:n_up, 1] = tf
    a_ub[:n_up, 2] = 1.0
    b_ub[:n_up] = d_fwd
    a_ub[n_up:, 0] = -1.0
    a_ub[n_up:, 1] = -tr
    a_ub[n_up:, 2] = 1.0
    b_ub[n_up:] = d_rev
    from scipy.optimize import linprog

    result = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None), (None, None), (None, None)],
        method="highs",
    )
    if not result.success:
        # Inconsistent bounds (possible with heavy noise): fall back to
        # the regression medial line.
        return _regression_line(t_fwd, d_fwd, t_rev, d_rev)
    a_scaled, b_scaled, _ = result.x
    b = b_scaled / scale
    a = a_scaled - b * t0
    return float(a), float(b)


def _minmax_line(t_fwd, d_fwd, t_rev, d_rev) -> tuple[float, float]:
    """Hofmann's min/max strategy: anchor at the tightest difference in
    the early and late halves of the observation span."""
    t_all = np.concatenate([t_fwd, t_rev])
    mid = (t_all.min() + t_all.max()) / 2.0

    def anchor(lo: bool) -> tuple[float, float]:
        sel_f = t_fwd <= mid if lo else t_fwd > mid
        sel_r = t_rev <= mid if lo else t_rev > mid
        candidates = []
        if np.any(sel_f):
            i = np.argmin(d_fwd[sel_f])
            candidates.append((t_fwd[sel_f][i], d_fwd[sel_f][i]))
        if np.any(sel_r):
            i = np.argmin(d_rev[sel_r])
            candidates.append((t_rev[sel_r][i], -d_rev[sel_r][i]))
        if not candidates:
            return np.nan, np.nan
        # Midpoint of the tightest upper and lower estimates available.
        ts = np.mean([c[0] for c in candidates])
        os_ = np.mean([c[1] for c in candidates])
        return float(ts), float(os_)

    t1, o1 = anchor(True)
    t2, o2 = anchor(False)
    if np.isnan(t1) or np.isnan(t2) or t2 <= t1:
        return _regression_line(t_fwd, d_fwd, t_rev, d_rev)
    b = (o2 - o1) / (t2 - t1)
    a = o1 - b * t1
    return a, b


def synchronize_by_spanning_tree(
    trace: Trace,
    lmin: LminSpec = 0.0,
    master: int = 0,
    method: Method = "regression",
) -> ClockCorrection:
    """Jezequel-style whole-job synchronization from message estimates.

    Builds a graph over ranks weighted by message support, extracts a
    maximum-support spanning tree (networkx minimum tree on ``1/count``),
    composes offset lines along the tree paths to ``master``, and
    returns the equivalent :class:`ClockCorrection` (two knots per rank
    spanning the trace's time range).  Only point-to-point messages are
    observations.
    """
    messages = trace.messages(strict=False)
    if len(messages) == 0:
        raise SynchronizationError("trace has no messages to estimate offsets from")

    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(trace.ranks)
    pairs: dict[tuple[int, int], int] = {}
    for s, d in zip(messages.src, messages.dst):
        key = (min(int(s), int(d)), max(int(s), int(d)))
        pairs[key] = pairs.get(key, 0) + 1
    for (p, q), count in pairs.items():
        fwd = int(np.count_nonzero((messages.src == p) & (messages.dst == q)))
        rev = count - fwd
        if fwd > 0 and rev > 0:
            graph.add_edge(p, q, weight=1.0 / count, support=count)
    if not nx.is_connected(graph):
        raise SynchronizationError(
            "message graph is not connected (with bidirectional traffic); "
            "cannot synchronize all ranks"
        )
    tree = nx.minimum_spanning_tree(graph, weight="weight")

    # Compose lines from master outward (BFS over the tree).
    lines: dict[int, OffsetLine] = {
        master: OffsetLine(master, master, 0.0, 0.0, method, 0)
    }
    for parent, child in nx.bfs_edges(tree, master):
        edge_line = estimate_pairwise_offsets(messages, (parent, child), lmin, method)
        parent_line = lines[parent]
        # offset(master - child) = offset(master - parent) + offset(parent - child)
        # edge_line estimates (child - parent); negate it.
        lines[child] = OffsetLine(
            p=master,
            q=child,
            a=parent_line.a - edge_line.a,
            b=parent_line.b - edge_line.b,
            method=method,
            support=edge_line.support,
        )

    t_lo = float(min(np.min(trace.logs[r].timestamps) for r in trace.ranks if len(trace.logs[r])))
    t_hi = float(max(np.max(trace.logs[r].timestamps) for r in trace.ranks if len(trace.logs[r])))
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    knots = {}
    for rank, line in lines.items():
        if rank == master:
            continue
        knots[rank] = (
            np.array([t_lo, t_hi]),
            np.array([line.a + line.b * t_lo, line.a + line.b * t_hi]),
        )
    return ClockCorrection(knots, master=master)
