"""The invariant catalog: every global guarantee as a named oracle.

Each :class:`Oracle` states one machine-checkable invariant of the
library — the paper's clock condition after CLC correction, preservation
of happened-before, correction idempotence, interpolation error bounds,
bit-identity between array kernels and their ``*_reference`` scalar
formulations, serial ≡ parallel ``run_grid`` identity, and trace I/O
round-trips.  Oracles declare the capability tags they *require* of a
:class:`~repro.verify.cases.TraceCase` (``trace``, ``truth``,
``monotone``, ...) and are skipped on cases that lack them, so one fuzz
stream exercises the whole catalog.

The ``assert_*`` helpers are exported for direct reuse by the test
suite: ``tests/test_schedule.py`` and
``tests/test_scalar_vector_consistency.py`` call the same code the fuzz
campaigns run, so an invariant is stated exactly once.
"""

from __future__ import annotations

import importlib
import inspect
import math
import tempfile
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.clocks.base import Clock
from repro.clocks.drift import ConstantDrift
from repro.options import RunOptions
from repro.sync.clc import (
    ClcResult,
    ControlledLogicalClock,
    naive_shift_correct,
    naive_shift_correct_reference,
)
from repro.sync.interpolation import ClockCorrection, linear_interpolation
from repro.sync.lamport import lamport_clocks, lamport_clocks_reference
from repro.sync.offset import OffsetMeasurement
from repro.sync.order import build_dependencies, dependency_edges
from repro.sync.replay import replay_correct
from repro.sync.schedule import CompiledSchedule, forward_pass, send_caps_kernel
from repro.sync.vector import vector_clocks, vector_clocks_reference
from repro.sync.violations import (
    resolve_lmin,
    scan_collectives,
    scan_messages,
    scan_pomp,
    scan_trace,
)
from repro.tracing.events import COLLECTIVE_FLAVORS, CollectiveFlavor, EventType
from repro.tracing.reader import read_trace
from repro.tracing.trace import Trace
from repro.tracing.writer import write_trace
from repro.verify.cases import TraceCase, erase_match_ids, grid_probe_job

__all__ = [
    "Oracle",
    "OracleViolation",
    "ORACLES",
    "check_case",
    "assert_traces_identical",
    "assert_clc_matches_reference",
    "assert_naive_matches_reference",
    "assert_dependency_clc_matches_reference",
    "assert_logical_clocks_match_reference",
    "assert_topo_matches_replay",
    "assert_replay_matches_direct",
    "assert_scalar_matches_vector",
    "assert_batch_matches_engine",
    "assert_streamed_matches_inmemory",
    "collective_pairs_reference",
    "dependency_edges_reference",
    "dense_amortize",
]


class OracleViolation(AssertionError):
    """An invariant failed; the message names the oracle and the scene."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleViolation(message)


@dataclass(frozen=True)
class Oracle:
    """One named invariant with its applicability preconditions."""

    name: str
    description: str
    requires: frozenset[str]
    check: Callable[[TraceCase], None]

    def applies(self, case: TraceCase) -> bool:
        return self.requires <= case.tags

    def run(self, case: TraceCase) -> bool:
        """Check the invariant; returns False when skipped (tags)."""
        if not self.applies(case):
            return False
        self.check(case)
        return True


ORACLES: dict[str, Oracle] = {}


def oracle(name: str, description: str, requires: set[str]):
    def register(fn: Callable[[TraceCase], None]) -> Callable[[TraceCase], None]:
        ORACLES[name] = Oracle(name, description, frozenset(requires), fn)
        return fn
    return register


def check_case(case: TraceCase) -> list[str]:
    """Run every applicable oracle; returns those run."""
    ran = []
    for name in sorted(ORACLES):
        if ORACLES[name].run(case):
            ran.append(name)
    return ran


# ----------------------------------------------------------------------
# Shared differential assertions (reused by the test suite)
# ----------------------------------------------------------------------
def assert_traces_identical(a: ClcResult, b: ClcResult, context: str = "",
                            check_stats: bool = True) -> None:
    """Two correction results must agree bit-for-bit (arrays and stats)."""
    _require(a.trace.logs.keys() == b.trace.logs.keys(), f"{context}: rank sets differ")
    for rank in a.trace.ranks:
        ta = a.trace.logs[rank].timestamps
        tb = b.trace.logs[rank].timestamps
        if not np.array_equal(ta, tb):
            detail = (
                f"{np.abs(ta - tb).max():g}s" if ta.shape == tb.shape else "shape"
            )
            raise OracleViolation(
                f"{context}: rank {rank} timestamps differ by {detail}"
            )
    if check_stats:
        for field_ in ("jumps", "max_jump", "max_shift", "corrected_events",
                       "interval_distortion", "max_interval_growth"):
            _require(
                getattr(a, field_) == getattr(b, field_),
                f"{context}: stat {field_} differs "
                f"({getattr(a, field_)} vs {getattr(b, field_)})",
            )


def assert_clc_matches_reference(trace: Trace, lmin=0.0, gamma: float = 0.99,
                                 window=None) -> None:
    """CLC array kernel must be bit-identical to the scalar reference."""
    clc = ControlledLogicalClock(gamma=gamma, amortization_window=window)
    a = clc.correct(trace, lmin=lmin)
    b = clc.correct_reference(trace, lmin=lmin)
    assert_traces_identical(a, b, context=f"clc(gamma={gamma}, window={window})")
    _require(a.trace.meta["clc"] == b.trace.meta["clc"], "clc meta differs")


def assert_naive_matches_reference(trace: Trace, lmin=0.0) -> None:
    a = naive_shift_correct(trace, lmin=lmin)
    b = naive_shift_correct_reference(trace, lmin=lmin)
    assert_traces_identical(a, b, context="naive_shift")
    _require(a.trace.meta["clc"] == b.trace.meta["clc"], "naive meta differs")


def assert_dependency_clc_matches_reference(trace: Trace, deps, lmin=0.0) -> None:
    """Explicit-dependency CLC (constraints as edges only) kernel == scalar."""
    clc = ControlledLogicalClock()
    a = clc.correct_with_dependencies(trace, deps, lmin=lmin)
    b = clc.correct_with_dependencies_reference(trace, deps, lmin=lmin)
    assert_traces_identical(a, b, context="clc(custom deps)")


def assert_logical_clocks_match_reference(trace: Trace) -> None:
    """Lamport and vector kernels == scalar references."""
    for label, kernel, reference in (
        ("lamport", lamport_clocks, lamport_clocks_reference),
        ("vector", vector_clocks, vector_clocks_reference),
    ):
        a = kernel(trace)
        b = reference(trace)
        _require(a.keys() == b.keys(), f"{label}: rank sets differ")
        for rank in a:
            _require(np.array_equal(a[rank], b[rank]), f"{label}: rank {rank} differs")
            _require(
                a[rank].dtype == np.int64,
                f"{label}: rank {rank} clock dtype is {a[rank].dtype}, not int64",
            )


def assert_topo_matches_replay(trace: Trace, deps=None) -> None:
    """The compiled order is one a replay may take (it need not be
    ``replay_schedule``'s): every event exactly once, after its local
    predecessor and after every source that ``deps`` (default:
    ``build_dependencies``) names."""
    if deps is None:
        deps = build_dependencies(trace)
        refs = trace.compiled_schedule().topo_refs()
    else:
        refs = CompiledSchedule.from_dependencies(trace, deps).topo_refs()
    position = {ref: i for i, ref in enumerate(refs)}
    events = {(rank, idx) for rank in trace.ranks for idx in range(len(trace.logs[rank]))}
    _require(
        len(refs) == len(events) and position.keys() == events,
        "compiled order is not a permutation of the trace's events",
    )
    for rank, idx in refs:
        _require(
            idx == 0 or position[(rank, idx - 1)] < position[(rank, idx)],
            f"compiled order runs ({rank}, {idx}) before its local predecessor",
        )
    for ref, sources in deps.items():
        for source in sources:
            _require(
                position[source] < position[ref],
                f"compiled order runs {ref} before its source {source}",
            )


def assert_replay_matches_direct(trace: Trace, lmin=0.0) -> None:
    """BSP replay correction == the sequential CLC, bit for bit."""
    result = replay_correct(trace, lmin=lmin)
    direct = ControlledLogicalClock().correct(trace, lmin=lmin)
    assert_traces_identical(result.clc, direct, context="replay", check_stats=False)


def assert_scalar_matches_vector(model, t: float, abs_tol: float = 1e-18) -> None:
    """A drift model's scalar fast path must agree with its vector path."""
    for attr in ("offset_at", "rate_at"):
        fn = getattr(model, attr)
        scalar = float(fn(t))
        vector = float(np.asarray(fn(np.array([t])))[0])
        _require(
            math.isclose(scalar, vector, rel_tol=1e-12, abs_tol=abs_tol),
            f"{type(model).__name__}.{attr}({t}): scalar {scalar!r} != vector {vector!r}",
        )


# ----------------------------------------------------------------------
# Trace-level invariants
# ----------------------------------------------------------------------
@oracle(
    "clock_condition_post_clc",
    "After CLC (and naive shift) correction, every p2p and logical "
    "collective message satisfies recv >= send + l_min (Eq. 1).",
    {"trace"},
)
def _clock_condition_post_clc(case: TraceCase) -> None:
    for label, result in (
        ("clc", ControlledLogicalClock().correct(case.trace, lmin=case.lmin)),
        ("naive", naive_shift_correct(case.trace, lmin=case.lmin)),
    ):
        corrected = result.trace
        rep = scan_messages(corrected.messages(strict=False), case.lmin)
        _require(rep.violated == 0,
                 f"{label}: {rep.violated} p2p violations remain (worst {rep.worst:g}s)")
        crep, _ = scan_collectives(corrected, case.lmin)
        _require(crep.violated == 0,
                 f"{label}: {crep.violated} collective violations remain")


@oracle(
    "happened_before_preserved",
    "Correction never reorders happened-before: every dependency edge "
    "stays satisfied, events never move backward, and per-rank order "
    "is preserved on monotone inputs.",
    {"trace"},
)
def _happened_before_preserved(case: TraceCase) -> None:
    trace, lmin = case.trace, case.lmin
    schedule = trace.compiled_schedule()
    result = ControlledLogicalClock().correct(trace, lmin=lmin)
    corr = {r: result.trace.logs[r].timestamps for r in trace.ranks}
    flat = schedule.flatten(corr)
    # Every pair edge of every flavor: not the schedule's blocks.
    dst_rank, dst_idx, src_rank, src_idx = dependency_edges(trace)
    if dst_rank.size:
        ranks = np.array(trace.ranks)
        dst = schedule.offsets[np.searchsorted(ranks, dst_rank)] + dst_idx
        src = schedule.offsets[np.searchsorted(ranks, src_rank)] + src_idx
        slack = flat[dst] - (flat[src] + resolve_lmin(lmin, src_rank, dst_rank))
        _require(float(slack.min()) >= 0.0,
                 f"dependency edge violated after CLC by {-float(slack.min()):g}s")
    # The forward pass alone never moves an event backward on any input;
    # with backward amortization the guarantee needs monotone inputs.
    forward = ControlledLogicalClock(amortization_window=0.0).correct(trace, lmin=lmin)
    for rank in trace.ranks:
        orig = trace.logs[rank].timestamps
        fwd = forward.trace.logs[rank].timestamps
        _require(bool(np.all(fwd >= orig)),
                 f"rank {rank}: forward pass moved an event backward")
        if "monotone" in case.tags:
            _require(bool(np.all(corr[rank] >= orig)),
                     f"rank {rank}: CLC moved an event backward")
            if corr[rank].size > 1:
                _require(bool(np.all(np.diff(corr[rank]) >= 0)),
                         f"rank {rank}: corrected timestamps lost per-rank order")


@oracle(
    "correction_idempotence",
    "Correcting an already-corrected trace is a no-op: zero jumps and "
    "timestamps unchanged to 1e-12 (gamma=1, no backward window).",
    {"trace"},
)
def _correction_idempotence(case: TraceCase) -> None:
    clc = ControlledLogicalClock(gamma=1.0, amortization_window=0.0)
    first = clc.correct(case.trace, lmin=case.lmin)
    second = clc.correct(first.trace, lmin=case.lmin)
    _require(second.jumps == 0, f"re-correction produced {second.jumps} jumps")
    for rank in case.trace.ranks:
        a = first.trace.logs[rank].timestamps
        b = second.trace.logs[rank].timestamps
        if a.size and not np.allclose(a, b, rtol=0.0, atol=1e-12):
            _require(False,
                     f"rank {rank}: re-correction moved events by "
                     f"{float(np.abs(a - b).max()):g}s")


@oracle(
    "kernel_reference_identity",
    "Every array kernel (CLC forward+backward, naive shift, Lamport, "
    "vector, BSP replay) is bit-identical to its scalar *_reference "
    "formulation, and the compiled order is one a replay may take.",
    {"trace"},
)
def _kernel_reference_identity(case: TraceCase) -> None:
    trace, lmin = case.trace, case.lmin
    assert_clc_matches_reference(trace, lmin, gamma=0.99, window=None)
    assert_clc_matches_reference(trace, lmin, gamma=1.0, window=0.5)
    assert_naive_matches_reference(trace, lmin)
    assert_logical_clocks_match_reference(trace)
    assert_topo_matches_replay(trace)
    assert_replay_matches_direct(trace, lmin)


def dense_amortize(times, ks, js, window, caps):
    """Backward amortization of one log as a ``(jumps, events)`` matrix
    and two scans over every event, one by one: what
    :func:`repro.sync.clc.amortize_segment` must give, bit for bit.  An
    event that no ramp reaches keeps its stamp, whatever its cap."""
    n = times.size
    anchors = times[ks] - js
    ramp = js[:, None] * (1.0 - (anchors[:, None] - times[None, :]) / window)
    np.maximum(ramp, 0.0, out=ramp)
    np.minimum(ramp, js[:, None], out=ramp)
    for row, k in enumerate(ks.tolist()):
        ramp[row, k:] = 0.0
    allowed = ramp.max(axis=0)
    if not allowed.any():
        return times
    reached = allowed != 0
    if caps is not None:
        np.minimum(allowed, np.maximum(caps - times, 0.0), out=allowed, where=reached)
    tl = times.tolist()
    al = allowed.tolist()
    for i in range(n - 2, -1, -1):
        limit = al[i + 1] + (tl[i + 1] - tl[i])
        if al[i] > limit:
            al[i] = limit
        if al[i] < 0.0:
            al[i] = 0.0
    out = times + np.asarray(al, dtype=np.float64)
    if caps is not None:
        np.minimum(out, np.maximum(caps, times), out=out, where=reached)
    ol = out.tolist()
    for i in range(n - 2, -1, -1):
        if ol[i] > ol[i + 1] >= tl[i]:
            ol[i] = ol[i + 1]
    return np.asarray(ol, dtype=np.float64)


@oracle(
    "amortization_matches_dense",
    "The CLC's backward amortization (every rank in one call, both "
    "reverse scans solved as fixed points) is bit-identical to "
    "dense_amortize on each rank's forward stamps, jumps and caps.",
    {"trace"},
)
def _amortization_matches_dense(case: TraceCase) -> None:
    trace, schedule = case.trace, case.trace.compiled_schedule()
    edge_lmin = schedule.edge_lmin(case.lmin)
    orig = schedule.flatten({r: trace.logs[r].timestamps for r in trace.ranks})
    for gamma, window in ((0.99, None), (1.0, 0.5)):
        got = ControlledLogicalClock(gamma, window).correct(trace, lmin=case.lmin).trace
        span = got.meta["clc"]["window"]
        fwd, (ks, js), *_ = forward_pass(schedule, orig, edge_lmin, gamma)
        caps = send_caps_kernel(schedule, fwd, edge_lmin)
        for rank, lo, hi in zip(trace.ranks, schedule.offsets[:-1], schedule.offsets[1:]):
            mine = (ks >= lo) & (ks < hi)
            want = fwd[lo:hi]
            if span > 0 and mine.any():
                want = dense_amortize(want, ks[mine] - lo, js[mine], span, caps[lo:hi])
            _require(got.logs[rank].timestamps.tobytes() == want.tobytes(),
                     f"rank {rank}: amortized stamps (gamma={gamma}, window={window}) "
                     f"differ from the dense scans")


def collective_pairs_reference(rec) -> list[tuple[int, list[int]]]:
    """Scalar flavor rule: ``(receiver position, sender positions)`` per
    constrained member of one collective instance.

    The ``senders`` branches ``build_dependencies`` had before
    :mod:`repro.sync.collectives_map` owned the expansion, kept so the
    shared expansion is checked against a second spelling of the rule.
    """
    flavor = COLLECTIVE_FLAVORS[rec.op]
    n = rec.ranks.size
    if n < 2:
        return []
    root_pos = (
        int(np.nonzero(rec.ranks == rec.root)[0][0])
        if flavor is not CollectiveFlavor.N_TO_N
        else -1
    )
    out = []
    for i in range(n):
        if flavor is CollectiveFlavor.ONE_TO_N:
            senders = [root_pos] if i != root_pos else []
        elif flavor is CollectiveFlavor.N_TO_ONE:
            senders = [j for j in range(n) if j != i] if i == root_pos else []
        elif flavor is CollectiveFlavor.PREFIX:
            senders = list(range(i))  # lower ranks only (MPI_Scan)
        else:
            senders = [j for j in range(n) if j != i]
        if senders:
            out.append((i, senders))
    return out


def dependency_edges_reference(trace: Trace, include_collectives: bool = True) -> list[tuple]:
    """Event-by-event ``(dst_rank, dst_idx, src_rank, src_idx)`` edges —
    the pre-edge-table ``build_dependencies`` loops, flattened."""
    messages = trace.messages(strict=False)
    edges = [
        (int(messages.dst[k]), int(messages.recv_idx[k]),
         int(messages.src[k]), int(messages.send_idx[k]))
        for k in range(len(messages))
    ]
    if include_collectives:
        for rec in trace.collectives():
            for i, senders in collective_pairs_reference(rec):
                edges.extend(
                    (int(rec.ranks[i]), int(rec.exit_idx[i]),
                     int(rec.ranks[j]), int(rec.enter_idx[j]))
                    for j in senders
                )
    return edges


@oracle(
    "collective_edges_match_reference",
    "The happened-before edge table (messages + the shared collective "
    "expansion) equals the scalar flavor rule's edges, one for one and "
    "in order, with and without collectives.",
    {"trace"},
)
def _collective_edges_match_reference(case: TraceCase) -> None:
    for include_collectives in (True, False):
        want = dependency_edges_reference(case.trace, include_collectives)
        columns = dependency_edges(case.trace, include_collectives)
        got = list(zip(*(column.tolist() for column in columns)))
        _require(
            got == want,
            f"dependency_edges(include_collectives={include_collectives}) diverges "
            f"from the scalar flavor rule ({len(got)} vs {len(want)} edges)",
        )


@oracle(
    "message_matching_semantics",
    "Trace.messages meets the definition of matching, not a second "
    "implementation: by id every row's ends share their id and every "
    "receive whose id some send carries is matched; with the ids erased "
    "every row's ends sit at equal ordinals of one (src, dst, tag) "
    "channel and each channel matches min(sends, receives).",
    {"trace"},
)
def _message_matching_semantics(case: TraceCase) -> None:
    transfers = (EventType.SEND, EventType.RECV)
    ends = {  # (rank, log index) -> event, for every send and receive
        (rank, i): ev for rank, log in case.trace.logs.items()
        for i, ev in enumerate(log) if ev.etype in transfers
    }
    ids = {ev.d for ev in ends.values() if ev.etype is EventType.SEND}
    if min(ids, default=0) >= 0:  # the trace matches by id
        matched = set()
        for row in case.trace.messages(strict=False):
            send, recv = ends[row.src, row.send_idx], ends[row.dst, row.recv_idx]
            _require(send.d == recv.d, f"by id: {row} joins ids {send.d} and {recv.d}")
            matched.add((row.dst, row.recv_idx))
        for end, ev in ends.items():
            _require(ev.etype is EventType.SEND or ev.d not in ids or end in matched,
                     f"by id: receive {end} of id {ev.d} is unmatched though a send carries it")
    ordinal, counts = {}, {}  # end -> (channel, k); channel -> [sends, receives]
    for (rank, i), ev in sorted(ends.items()):
        recv = ev.etype is EventType.RECV
        channel = (ev.a, rank, ev.b) if recv else (rank, ev.a, ev.b)
        seen = counts.setdefault(channel, [0, 0])
        ordinal[rank, i] = (channel, seen[recv])
        seen[recv] += 1
    matched = dict.fromkeys(counts, 0)
    for row in erase_match_ids(case.trace).messages(strict=False):
        send, recv = ordinal[row.src, row.send_idx], ordinal[row.dst, row.recv_idx]
        _require(send == recv, f"fifo: {row} joins send {send} to receive {recv}")
        matched[send[0]] += 1
    for channel, (sends, recvs) in counts.items():
        _require(matched[channel] == min(sends, recvs), f"fifo: channel {channel} "
                 f"matched {matched[channel]} of {sends} send(s) and {recvs} receive(s)")


@oracle(
    "custom_dependency_identity",
    "The explicit-dependency CLC entry point matches its scalar reference "
    "on the dense pair expansion of MPI+POMP traces (build_dependencies).",
    {"trace", "pomp"},
)
def _custom_dependency_identity(case: TraceCase) -> None:
    deps = build_dependencies(case.trace)
    assert_dependency_clc_matches_reference(case.trace, deps, lmin=case.lmin)


@oracle(
    "pomp_post_clc",
    "After the CLC, every POMP region satisfies fork-first, join-last "
    "and barrier-overlap semantics, by scan_pomp's independent reading.",
    {"trace", "pomp", "monotone"},
)
def _pomp_post_clc(case: TraceCase) -> None:
    result = ControlledLogicalClock().correct(case.trace, lmin=case.lmin)
    report = scan_pomp(result.trace, case.lmin)
    _require(
        report.any_violations == 0,
        f"{report.any_violations}/{report.regions} regions still violated "
        f"(entry {report.entry_violations}, exit {report.exit_violations}, "
        f"barrier {report.barrier_violations})",
    )


# ----------------------------------------------------------------------
# Interpolation error bounds (need ground truth)
# ----------------------------------------------------------------------
_VIRTUAL_MASTER = -1  # no real rank is mapped identically


def _endpoint_measurements(case: TraceCase, min_span: float = 1e-6):
    """Per-rank first/last offset measurements onto the *true* timeline."""
    init, final = {}, {}
    for rank in case.trace.ranks:
        w = case.trace.logs[rank].timestamps
        t = case.true_times[rank]
        if w.size < 2:
            continue
        i0, i1 = int(np.argmin(w)), int(np.argmax(w))
        if w[i1] - w[i0] < min_span:
            continue
        init[rank] = OffsetMeasurement(rank, float(w[i0]), float(t[i0] - w[i0]), 0.0, 1)
        final[rank] = OffsetMeasurement(rank, float(w[i1]), float(t[i1] - w[i1]), 0.0, 1)
    return init, final


@oracle(
    "interpolation_affine_exact",
    "Two-point linear interpolation (Eq. 3) with exact measurements "
    "recovers the true timeline exactly for affine clock errors.",
    {"trace", "truth", "affine"},
)
def _interpolation_affine_exact(case: TraceCase) -> None:
    init, final = _endpoint_measurements(case)
    if not init:
        return
    correction = linear_interpolation(init, final, master=_VIRTUAL_MASTER)
    for rank in init:
        corrected = correction.apply_rank(rank, case.trace.logs[rank].timestamps)
        residual = float(np.abs(corrected - case.true_times[rank]).max())
        _require(residual <= 1e-9,
                 f"rank {rank}: affine interpolation residual {residual:g}s")


@oracle(
    "interpolation_residual_bound",
    "Two-point interpolation residual never exceeds the clock error's "
    "maximum deviation from the chord between the measurement points.",
    {"trace", "truth"},
)
def _interpolation_residual_bound(case: TraceCase) -> None:
    init, final = _endpoint_measurements(case)
    if not init:
        return
    correction = linear_interpolation(init, final, master=_VIRTUAL_MASTER)
    for rank in init:
        w = case.trace.logs[rank].timestamps
        t = case.true_times[rank]
        offsets = t - w  # true master-minus-worker offset at each event
        m1, m2 = init[rank], final[rank]
        slope = (m2.offset - m1.offset) / (m2.worker_time - m1.worker_time)
        chord = m1.offset + slope * (w - m1.worker_time)
        max_dev = float(np.abs(offsets - chord).max())
        corrected = correction.apply_rank(rank, w)
        residual = float(np.abs(corrected - t).max())
        _require(residual <= max_dev + 1e-9,
                 f"rank {rank}: residual {residual:g}s exceeds chord "
                 f"deviation bound {max_dev:g}s")


@oracle(
    "interpolation_dense_knots_exact",
    "Piecewise interpolation with a knot at every event recovers the "
    "true timeline exactly at the knots, for any drift shape.",
    {"trace", "truth", "monotone"},
)
def _interpolation_dense_knots_exact(case: TraceCase) -> None:
    knots = {}
    kept: dict[int, np.ndarray] = {}
    for rank in case.trace.ranks:
        w = case.trace.logs[rank].timestamps
        t = case.true_times[rank]
        if w.size == 0:
            continue
        keep = np.ones(w.size, dtype=bool)
        keep[1:] = np.diff(w) > 0  # drop ties: knots must strictly increase
        knots[rank] = (w[keep], t[keep] - w[keep])
        kept[rank] = keep
    if not knots:
        return
    correction = ClockCorrection(knots, master=_VIRTUAL_MASTER)
    for rank, keep in kept.items():
        w = case.trace.logs[rank].timestamps[keep]
        t = case.true_times[rank][keep]
        corrected = correction.apply_rank(rank, w)
        residual = float(np.abs(corrected - t).max())
        _require(residual <= 1e-9,
                 f"rank {rank}: dense-knot interpolation residual {residual:g}s")


# ----------------------------------------------------------------------
# I/O, clock front-end, runner, typing
# ----------------------------------------------------------------------
def _assert_traces_equal_bitwise(a: Trace, b: Trace, context: str) -> None:
    _require(set(a.ranks) == set(b.ranks), f"{context}: rank sets differ")
    for rank in a.ranks:
        la, lb = a.logs[rank], b.logs[rank]
        for col in ("timestamps", "etypes", "a", "b", "c", "d"):
            _require(
                np.array_equal(getattr(la, col), getattr(lb, col)),
                f"{context}: rank {rank} column {col} changed across round-trip",
            )
    _require(
        len(a.messages(strict=False)) == len(b.messages(strict=False)),
        f"{context}: message table size changed",
    )
    _require(
        len(a.collectives()) == len(b.collectives()),
        f"{context}: collective table size changed",
    )


@oracle(
    "trace_roundtrip",
    "write_trace/read_trace (.npz and .jsonl) reproduce every event "
    "column bit for bit.",
    {"trace"},
)
def _trace_roundtrip(case: TraceCase) -> None:
    trace = case.trace
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as td:
        root = Path(td)
        for name in ("roundtrip.npz", "roundtrip.jsonl"):
            path = write_trace(trace, root / name)
            _assert_traces_equal_bitwise(trace, read_trace(path), context=name)


def _require_same_report(got, ref, context: str) -> None:
    """Two :class:`ViolationReport` s agree: counts, worst magnitude, indices."""
    for field_ in ("checked", "violated", "worst"):
        _require(
            getattr(ref, field_) == getattr(got, field_),
            f"{context}.{field_}: {getattr(got, field_)!r} vs in-memory {getattr(ref, field_)!r}",
        )
    _require(
        np.array_equal(ref.indices, got.indices), f"{context} violation indices differ"
    )


def _require_same_clc(ref: ClcResult, got: ClcResult, materialized: Trace, context: str) -> None:
    """A streamed CLC result (its trace ``materialized``) == the in-memory one, meta included."""
    import dataclasses

    assert_traces_identical(ref, dataclasses.replace(got, trace=materialized), context=context)
    _require(
        materialized.meta.get("clc") == ref.trace.meta.get("clc"),
        f"{context}: clc meta {materialized.meta.get('clc')} vs {ref.trace.meta.get('clc')}",
    )


def _with_offset_measurements(trace: Trace) -> Trace:
    """``trace`` with offset measurements in its metadata.

    Measurements a run recorded are kept; a generated case gets
    rank-dependent ones (both signs, drifting between init and finalize,
    bent by a periodic set half way) so that ``align``, ``linear`` and
    ``piecewise`` move stamps differently and change verdicts.
    """
    if "init_offsets" in trace.meta:
        return trace
    stamps = [log.timestamps for log in trace.logs.values() if len(log)]
    t0 = min((float(ts.min()) for ts in stamps), default=0.0)
    t1 = max((float(ts.max()) for ts in stamps), default=0.0) + 1.0
    base = {r: ((7 * r) % 5 - 2) * 1e-4 for r in trace.ranks}
    return Trace(dict(trace.logs), meta=dict(
        trace.meta,
        init_offsets={r: (t0, o) for r, o in base.items()},
        periodic_offsets=[{r: ((t0 + t1) / 2, o + r * 2e-5) for r, o in base.items()}],
        final_offsets={r: (t1, o - r * 3e-5) for r, o in base.items()},
    ))


def _assert_streamed_correction_matches(
    trace: Trace, shard_dir: Path, scratch: Path, gamma: float
) -> None:
    """``correct_trace(shard_dir)`` == ``correct_trace(trace)``, over its arguments.

    The path users call, not its parts: every interpolation a sharded
    source supports, scans on and off, the automatic, the zero and a
    fixed amortization window, with and without a scalar latency floor,
    under a per-pair floor given as a matrix and as a callable (and
    interpolation without the CLC) — timestamps bit for bit, every stage
    report, the CLC statistics and the ``clc`` meta record.
    """
    from repro.core.correct import STREAMING_INTERPOLATIONS, correct_trace

    ranks = np.arange(max(trace.ranks, default=0) + 1)
    per_pair = {"matrix": (np.add.outer(ranks, 2 * ranks) % 3 + 1) * 4e-7,
                "callable": lambda src, dst: 6e-7 if src < dst else 1e-7}
    grid = [
        (mode, True, scan, window, lmin)
        for mode in STREAMING_INTERPOLATIONS
        for scan in (True, False)
        for window in (None, 0.0, 0.5)
        for lmin in (0.0, 1e-6)
    ] + [(mode, False, True, None, 0.0) for mode in STREAMING_INTERPOLATIONS[1:]] + [
        (mode, True, True, None, form) for mode in STREAMING_INTERPOLATIONS for form in per_pair
    ]
    for n, (mode, clc, scan, window, lmin) in enumerate(grid):
        knobs = dict(interpolation=mode, clc=clc, scan=scan, gamma=gamma,
                     amortization_window=window, lmin=per_pair.get(lmin, lmin))
        context = f"correct_trace({mode}, clc={clc}, scan={scan}, window={window}, lmin={lmin})"
        ref = correct_trace(trace, **knobs)
        got = correct_trace(shard_dir, output=scratch / f"corrected-{n}", **knobs)
        materialized = got.trace.materialize()
        _require(ref.trace.ranks == materialized.ranks, f"{context}: rank sets differ")
        for rank in ref.trace.ranks:
            _require(
                ref.trace.logs[rank].timestamps.tobytes()
                == materialized.logs[rank].timestamps.tobytes(),
                f"{context}: rank {rank} timestamps differ",
            )
        # A sharded source skips the identity stage (it would only copy shards).
        expected = [s for s in ref.stages if s.stage != "none"]
        _require(
            [s.stage for s in got.stages] == [s.stage for s in expected],
            f"{context}: stages {[s.stage for s in got.stages]} vs "
            f"in-memory {[s.stage for s in expected]}",
        )
        for a, b in zip(got.stages, expected):
            _require_same_report(a.p2p, b.p2p, f"{context} {a.stage}.p2p")
            _require_same_report(a.collective, b.collective, f"{context} {a.stage}.collective")
        if clc:
            _require_same_clc(ref.clc, got.clc, materialized, context)


def _assert_streamed_kernels_match(
    trace: Trace, shard_dir: Path, out: Path, lmin=0.0, gamma: float = 0.99, window=None
) -> None:
    """The streaming CLC and scan over ``shard_dir`` == the in-memory kernels on ``trace``."""
    from repro.sync.streaming import streaming_clc_correct, streaming_scan_trace

    clc = ControlledLogicalClock(gamma=gamma, amortization_window=window)
    ref = clc.correct(trace, lmin=lmin)
    got = streaming_clc_correct(
        shard_dir, out, gamma=gamma, amortization_window=window, lmin=lmin
    )
    _require_same_clc(ref, got, got.trace.materialize(), "streaming-clc")
    ref_scan = scan_trace(trace, lmin=lmin)
    got_scan = streaming_scan_trace(shard_dir, lmin=lmin)
    _require(
        sorted(ref_scan) == sorted(got_scan),
        f"streaming scan kinds differ: {sorted(got_scan)} vs {sorted(ref_scan)}",
    )
    for kind in ref_scan:
        _require_same_report(got_scan[kind], ref_scan[kind], f"streaming scan[{kind}]")


def assert_streamed_matches_inmemory(
    trace: Trace, shard_events: int, lmin=0.0, gamma: float = 0.99, window=None
) -> None:
    """Out-of-core kernels over a sharded store == in-memory, bit for bit.

    Writes ``trace`` into a shard directory at the given grain, then
    demands the streaming CLC reproduce the in-memory correction
    (timestamps, every statistic, the ``clc`` meta record), the
    streaming violation scan reproduce :func:`scan_trace` (checked /
    violated counts, violation indices in message-table order, worst
    magnitude), and :func:`repro.core.correct.correct_trace` over the
    shard directory reproduce the same call over the trace.
    """
    _assert_streamed_matches(trace, shard_events, lmin, [(gamma, window)])


def _assert_streamed_matches(trace: Trace, shard_events: int, lmin, kernel_knobs) -> None:
    """One store of ``trace``: the kernels per ``(gamma, window)``, then ``correct_trace``."""
    from repro.tracing.store import write_sharded_trace

    trace = _with_offset_measurements(trace)
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as td:
        src = Path(td) / "shards"
        write_sharded_trace(trace, src, shard_events=shard_events)
        for n, (gamma, window) in enumerate(kernel_knobs):
            _assert_streamed_kernels_match(
                trace, src, Path(td) / f"clc-{n}", lmin, gamma, window
            )
        _assert_streamed_correction_matches(trace, src, Path(td), kernel_knobs[0][0])


@oracle(
    "streamed_matches_inmemory",
    "The out-of-core streaming CLC and violation scan over a sharded "
    "trace store, and correct_trace over it, are bit-identical to the "
    "in-memory path: same corrected timestamps, statistics, violation "
    "counts and indices.",
    {"trace", "streaming"},
)
def _streamed_matches_inmemory(case: TraceCase) -> None:
    shard_events = int(case.spec.params.get("shard_events", 2))
    # A fixed window exercises the backward pass even when the auto
    # window would be zero; gamma=1.0 exercises pure preservation.
    _assert_streamed_matches(case.trace, shard_events, case.lmin, [(0.99, None), (1.0, 0.5)])


@oracle(
    "sharded_roundtrip",
    "write_sharded_trace -> ShardedTraceReader reproduces every event "
    "column and the run metadata bit for bit, at any shard grain, with "
    "content digests verifying.",
    {"trace"},
)
def _sharded_roundtrip(case: TraceCase) -> None:
    from repro.tracing.store import ShardedTraceReader, write_sharded_trace

    trace = case.trace
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as td:
        for shard_events in (3, 10_000):
            directory = Path(td) / f"shards{shard_events}"
            write_sharded_trace(trace, directory, shard_events=shard_events)
            reader = ShardedTraceReader(directory, verify_digests=True)
            back = reader.read_trace()
            _assert_traces_equal_bitwise(
                trace, back, context=f"sharded(shard_events={shard_events})"
            )
            _require(
                back.meta == trace.meta,
                f"sharded(shard_events={shard_events}): meta changed across "
                "round-trip",
            )


@oracle(
    "clock_quantization",
    "Quantized clock readings never exceed the ideal reading, stay "
    "within one grid step below it, remain monotone, and read() == "
    "read_array() bitwise.",
    {"clock"},
)
def _clock_quantization(case: TraceCase) -> None:
    p = case.spec.params
    resolution = float(p["resolution"])
    offset = float(p.get("offset", 0.0))
    values = [float(v) for v in p["values"]]

    clock = Clock(ConstantDrift(0.0, offset), resolution=resolution)
    scalar = np.array([clock.read(v) for v in values])
    vector = Clock(ConstantDrift(0.0, offset), resolution=resolution).read_array(
        np.asarray(values)
    )
    _require(np.array_equal(scalar, vector),
             "scalar read() and vectorized read_array() disagree")
    ideal = np.asarray(values) + offset
    over = scalar - ideal
    _require(float(over.max(initial=0.0)) <= 0.0,
             f"quantized reading exceeds the ideal reading by {float(over.max()):g}s "
             "(floor overshoot)")
    under = ideal - scalar
    # An exactly-floored reading sits < resolution below the ideal in
    # real arithmetic; in floats the reading itself carries a few ulps
    # of representation error (e.g. 17.0 at 1e-9 resolution), so the
    # bound must leave ulp-scale slack at the magnitude of the reading.
    slack = 4.0 * float(np.spacing(np.abs(ideal).max(initial=1.0)))
    _require(float(under.max(initial=0.0)) <= resolution * (1.0 + 1e-9) + slack,
             f"quantized reading more than one grid step low "
             f"({float(under.max()):g}s at resolution {resolution:g})")
    if scalar.size > 1:
        _require(bool(np.all(np.diff(scalar) >= 0)), "readings are not monotone")


@oracle(
    "module_type_hints",
    "typing.get_type_hints resolves on the annotated callables of the "
    "target module (guards against missing imports in annotations).",
    {"hints"},
)
def _module_type_hints(case: TraceCase) -> None:
    p = case.spec.params
    module = importlib.import_module(p["module"])
    qualname = p.get("qualname") or ""
    if qualname:
        target = module
        for part in qualname.split("."):
            target = getattr(target, part)
        targets = [target]
    else:
        targets = [
            obj for _, obj in inspect.getmembers(module, inspect.isclass)
            if obj.__module__ == module.__name__
        ]
    for cls in targets:
        try:
            typing.get_type_hints(cls.__init__)
        except Exception as exc:
            raise OracleViolation(
                f"get_type_hints failed on {module.__name__}.{cls.__qualname__}: {exc}"
            ) from exc


@oracle(
    "run_grid_identity",
    "run_grid returns bit-identical results for serial and parallel "
    "execution of the same grid.",
    {"grid"},
)
def _run_grid_identity(case: TraceCase) -> None:
    from repro.analysis.runner import run_grid

    p = case.spec.params
    grid = [{"seed": int(s), "n": int(p["n"])} for s in p["seeds"]]
    serial = run_grid(grid_probe_job, grid)
    parallel = run_grid(grid_probe_job, grid, options=RunOptions(jobs=2))
    _require(serial == parallel,
             "parallel run_grid results differ from the serial run")


@oracle(
    "grid_identity_batched",
    "run_grid over a process pool, on grids large enough for multi-config "
    "batches, returns bit-identical results, in grid order, to the serial "
    "path, and the telemetry job accounting adds up.",
    {"grid_batched"},
)
def _grid_identity_batched(case: TraceCase) -> None:
    from repro.analysis.runner import run_grid
    from repro.telemetry import TelemetryRecorder

    p = case.spec.params
    grid = [{"seed": int(s), "n": int(p["n"])} for s in p["seeds"]]
    serial = run_grid(grid_probe_job, grid)
    recorder = TelemetryRecorder()
    pooled = run_grid(
        grid_probe_job, grid,
        options=RunOptions(jobs=int(p.get("jobs", 2)), telemetry=recorder),
    )
    _require(serial == pooled,
             "batched run_grid results differ from the serial run")
    executed = recorder.counters.get("runner.jobs_executed", 0)
    cached = recorder.counters.get("runner.jobs_from_cache", 0)
    _require(executed + cached == len(grid),
             f"telemetry accounts for {executed}+{cached} jobs, "
             f"grid had {len(grid)}")


# ----------------------------------------------------------------------
# repro.stats: confidence intervals and the seeded bootstrap
# ----------------------------------------------------------------------
@oracle(
    "ci_contains_truth_at_nominal_rate",
    "Student t confidence intervals on Gaussian samples cover the true "
    "mean at no less than the nominal level minus binomial slack, in a "
    "Monte-Carlo trial that is deterministic per seed.",
    {"stats", "coverage"},
)
def _ci_contains_truth_at_nominal_rate(case: TraceCase) -> None:
    from repro.stats import summarize

    p = case.spec.params
    mu, sigma = float(p["mu"]), float(p["sigma"])
    n, trials, level = int(p["n"]), int(p["trials"]), float(p["level"])
    rng = np.random.default_rng(int(p["seed"]))
    hits = 0
    for _ in range(trials):
        summary = summarize(rng.normal(mu, sigma, size=n), level=level)
        _require(summary.ci_lower <= summary.mean <= summary.ci_upper,
                 "CI does not bracket its own sample mean")
        hits += int(summary.ci_lower <= mu <= summary.ci_upper)
    coverage = hits / trials
    # The t interval is exact for Gaussian data, so observed coverage is
    # Binomial(trials, level)/trials; four standard deviations plus one
    # point of fixed slack keeps the false-alarm rate negligible while
    # still catching an interval built with z (or wrong-df) quantiles.
    slack = 4.0 * math.sqrt(level * (1.0 - level) / trials) + 0.01
    _require(
        coverage >= level - slack,
        f"coverage {coverage:.3f} below nominal {level:.2f} - {slack:.3f} "
        f"({hits}/{trials} intervals contained the true mean)",
    )


@oracle(
    "bootstrap_deterministic_under_seed",
    "Seeded percentile-bootstrap CIs are bit-identical across repeated "
    "calls, ordered, bounded by the sample extremes, and identical "
    "whether reached via bootstrap_ci or summarize.",
    {"stats", "bootstrap"},
)
def _bootstrap_deterministic_under_seed(case: TraceCase) -> None:
    from repro.stats import bootstrap_ci, summarize

    p = case.spec.params
    samples = np.asarray(p["values"], dtype=np.float64)
    level = float(p["level"])
    resamples, seed = int(p["resamples"]), int(p["seed"])
    first = bootstrap_ci(samples, level=level, resamples=resamples, seed=seed)
    second = bootstrap_ci(samples, level=level, resamples=resamples, seed=seed)
    _require(first == second,
             f"same seed produced different bootstrap bounds: "
             f"{first} vs {second}")
    lo, hi = first
    _require(lo <= hi, f"bootstrap bounds are inverted: [{lo}, {hi}]")
    _require(
        float(samples.min()) <= lo and hi <= float(samples.max()),
        "bootstrap bounds escape the sample range (resampled means "
        "cannot exceed the sample extremes)",
    )
    summary = summarize(samples, level=level, bootstrap=resamples, seed=seed)
    _require(
        (summary.bootstrap_lower, summary.bootstrap_upper) == first,
        "summarize() bootstrap bounds differ from bootstrap_ci() under "
        "the same seed",
    )


# ----------------------------------------------------------------------
# Batch fast path vs the discrete-event engine
# ----------------------------------------------------------------------
def _batch_world(params: dict):
    """Build the :class:`MpiWorld` a batch equivalence spec describes."""
    from repro.cluster import inter_chip, inter_core, inter_node, xeon_cluster
    from repro.mpi.runtime import MpiWorld

    preset = xeon_cluster()
    nranks = int(params.get("nranks", 2))
    pin = {"inter_node": inter_node, "inter_chip": inter_chip,
           "inter_core": inter_core}[params.get("pinning", "inter_node")]
    return MpiWorld(
        preset,
        pin(preset.machine, nranks),
        timer=params.get("timer", "tsc"),
        seed=int(params.get("seed", 0)),
        duration_hint=float(params.get("duration_hint", 60.0)),
        trace_buffer_capacity=int(params.get("trace_buffer_capacity", 0)),
        mpi_regions=bool(params.get("mpi_regions", False)),
        periodic_sync_every=int(params.get("periodic_sync_every", 0)),
        periodic_sync_repeats=int(params.get("periodic_sync_repeats", 3)),
        congestion_alpha=float(params.get("congestion_alpha", 0.0)),
        congestion_capacity=int(params.get("congestion_capacity", 16)),
    )


def _batch_worker(params: dict):
    """Build the workload worker a batch equivalence spec describes."""
    kind = params.get("workload", "sparse")
    nranks = int(params.get("nranks", 2))
    seed = int(params.get("workload_seed", 0))
    shape = params.get("shape") or {}
    if kind == "sparse":
        from repro.workloads.sparse import SparseConfig, sparse_worker
        return sparse_worker(SparseConfig(
            rounds=int(shape.get("rounds", 4)),
            density=float(shape.get("density", 0.3)),
            collective_every=int(shape.get("collective_every", 2)),
        ), seed=seed)
    if kind == "pingpong":
        from repro.workloads.pingpong import pingpong_worker
        return pingpong_worker(
            repeats=int(shape.get("repeats", 4)),
            nbytes=int(shape.get("nbytes", 64)),
            warmup=int(shape.get("warmup", 1)),
        )
    if kind == "collective_timing":
        from repro.workloads.pingpong import collective_timing_worker
        return collective_timing_worker(
            repeats=int(shape.get("repeats", 3)),
            nbytes=int(shape.get("nbytes", 8)),
            warmup=int(shape.get("warmup", 1)),
        )
    if kind == "pop":
        from repro.workloads.pop import PopConfig, pop_worker
        steps = int(shape.get("steps", 3))
        window = shape.get("window")
        return pop_worker(PopConfig(
            steps=steps,
            step_time=float(shape.get("step_time", 1e-3)),
            trace_window=tuple(window) if window else None,
            grid=(nranks, 1),
            halo_bytes=int(shape.get("halo_bytes", 256)),
            reductions_per_step=int(shape.get("reductions_per_step", 1)),
            fast_forward=bool(shape.get("fast_forward", True)),
        ), seed=seed)
    if kind == "smg2000":
        from repro.workloads.smg2000 import Smg2000Config, smg2000_worker
        return smg2000_worker(Smg2000Config(
            cycles=int(shape.get("cycles", 2)),
            levels=shape.get("levels"),
            smooth_time=float(shape.get("smooth_time", 1e-3)),
            msg_bytes=int(shape.get("msg_bytes", 256)),
            pre_sleep=float(shape.get("pre_sleep", 0.01)),
            post_sleep=float(shape.get("post_sleep", 0.01)),
        ), seed=seed)
    if kind == "sweep3d":
        from repro.workloads.sweep3d import Sweep3dConfig, sweep3d_worker
        return sweep3d_worker(Sweep3dConfig(
            iterations=int(shape.get("iterations", 2)),
            grid=(nranks, 1),
            cell_time=float(shape.get("cell_time", 1e-4)),
            msg_bytes=int(shape.get("msg_bytes", 128)),
        ), seed=seed)
    raise OracleViolation(f"unknown batch workload {kind!r}")


def _require_equal_offsets(a, b, label: str) -> None:
    if a is None or b is None:
        _require(a is None and b is None, f"{label} offsets present on one path only")
        return
    _require(set(a) == set(b), f"{label} offsets: worker sets differ")
    for rank in a:
        _require(a[rank] == b[rank],
                 f"{label} offsets: worker {rank} differs ({a[rank]} vs {b[rank]})")


def _require_equal_results(a: dict, b: dict) -> None:
    _require(set(a) == set(b), "worker result rank sets differ")
    for rank in a:
        va, vb = a[rank], b[rank]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            same = (isinstance(va, np.ndarray) and isinstance(vb, np.ndarray)
                    and np.array_equal(va, vb))
            _require(same, f"rank {rank}: result arrays differ")
        else:
            _require(va == vb, f"rank {rank}: results differ ({va!r} vs {vb!r})")


def assert_batch_matches_engine(params: dict) -> str:
    """Run one scenario under both engines and demand bit-identity.

    Builds two independent worlds from ``params`` (so no RNG state
    leaks between the runs), executes the reference discrete-event
    engine and the batch fast path, and compares every observable:
    trace columns, worker results, offset measurements, duration,
    ``events_processed``, and the post-run RNG stream positions (the
    proof that the fast path consumed every random stream exactly as
    far as the engine did).  Returns the path the batch run actually
    took (``"batch"``, or ``"reference"`` after a fallback).
    """
    kwargs = dict(
        tracing=bool(params.get("tracing", True)),
        measure_offsets=bool(params.get("measure_offsets", True)),
        sync_repeats=int(params.get("sync_repeats", 3)),
        tracing_initially=bool(params.get("tracing_initially", True)),
    )
    ref = _batch_world(params).run(
        _batch_worker(params), options=RunOptions(engine="reference"), **kwargs
    )
    bat = _batch_world(params).run(
        _batch_worker(params), options=RunOptions(engine="batch"), **kwargs
    )

    _require_runs_identical(ref, bat, context="batch-vs-engine")
    if bat.engine == "batch":
        _require(bat.fallback_reason is None,
                 f"engaged fast path carries fallback_reason {bat.fallback_reason!r}")
    else:
        _require(isinstance(bat.fallback_reason, str) and bat.fallback_reason,
                 "fallback produced no machine-readable reason code")
    return bat.engine


def _require_runs_identical(ref, other, context: str) -> None:
    """Demand two :class:`RunResult`\\ s are observably bit-identical."""
    _require(other.events_processed == ref.events_processed,
             f"events_processed: {other.events_processed} vs {ref.events_processed}")
    _require(other.duration == ref.duration,
             f"duration differs by {abs(other.duration - ref.duration):g}s")
    if ref.trace is None or other.trace is None:
        _require(ref.trace is None and other.trace is None,
                 "trace present on one path only")
    else:
        _assert_traces_equal_bitwise(ref.trace, other.trace, context=context)
        _require(ref.trace.meta == other.trace.meta, "trace meta differs")
    _require_equal_results(ref.results, other.results)
    _require_equal_offsets(ref.init_offsets, other.init_offsets, "init")
    _require_equal_offsets(ref.final_offsets, other.final_offsets, "final")
    _require(ref.periodic_offsets == other.periodic_offsets,
             "periodic offset sets differ")
    _require(ref.rng_states == other.rng_states,
             "post-run RNG stream positions differ (stream consumption mismatch)")


@oracle(
    "batch_matches_engine",
    "The vectorized batch trace generator produces bit-identical runs "
    "to the discrete-event engine: same trace columns, results, offset "
    "measurements, duration, event count, and RNG stream positions.",
    {"batch"},
)
def _batch_matches_engine(case: TraceCase) -> None:
    taken = assert_batch_matches_engine(case.spec.params)
    if case.spec.params.get("expect_engaged"):
        _require(taken == "batch",
                 "batch fast path fell back to the reference engine on a "
                 "spec expected to engage it")


def assert_telemetry_inert(params: dict) -> None:
    """Run one scenario with telemetry off and on; demand bit-identity.

    Telemetry may observe a run but never influence it: traces, worker
    results, offsets, duration, event counts, the execution path taken,
    and the post-run RNG stream positions must all be byte-for-byte what
    the un-instrumented run produced.  Checks both engines unless
    ``params["engine"]`` picks one.  Also demands the recorder actually
    captured something, so a silently disconnected instrumentation layer
    cannot pass as "inert".
    """
    from repro.telemetry import TelemetryRecorder

    chosen = params.get("engine")
    engines = (chosen,) if chosen else ("reference", "batch")
    kwargs = dict(
        tracing=bool(params.get("tracing", True)),
        measure_offsets=bool(params.get("measure_offsets", True)),
        sync_repeats=int(params.get("sync_repeats", 3)),
        tracing_initially=bool(params.get("tracing_initially", True)),
    )
    for eng in engines:
        plain = _batch_world(params).run(
            _batch_worker(params), options=RunOptions(engine=eng), **kwargs
        )
        recorder = TelemetryRecorder()
        recorded = _batch_world(params).run(
            _batch_worker(params),
            options=RunOptions(engine=eng, telemetry=recorder),
            **kwargs,
        )
        _require_runs_identical(plain, recorded, context=f"telemetry-inert[{eng}]")
        _require(recorded.engine == plain.engine,
                 f"execution path changed under telemetry "
                 f"({recorded.engine} vs {plain.engine})")
        _require(recorded.fallback_reason == plain.fallback_reason,
                 f"fallback reason changed under telemetry "
                 f"({recorded.fallback_reason!r} vs {plain.fallback_reason!r})")
        _require(bool(recorder.spans) and bool(recorder.counters),
                 "recorder captured nothing — instrumentation disconnected")


@oracle(
    "telemetry_is_inert",
    "Telemetry recording is provably inert: traces, results, offsets, "
    "duration, event counts, execution path, and RNG stream positions "
    "are bit-identical with a recorder attached vs detached, on both "
    "engines.",
    {"batch"},
)
def _telemetry_is_inert(case: TraceCase) -> None:
    assert_telemetry_inert(case.spec.params)
