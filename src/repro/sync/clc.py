"""The controlled logical clock (CLC) with forward and backward amortization.

Section V: *"the controlled logical clock (CLC) algorithm developed by
one of the authors retroactively corrects clock condition violations in
event traces of message-passing applications by shifting message events
in time while trying to preserve the length of intervals between local
events.  ...  If the clock condition is violated for a send-receive
event pair, the receive event is moved forward in time.  To preserve
the length of intervals between local events, events following or
immediately preceding the corrected event are moved forward as well.
These adjustments are called forward and backward amortization."*

Algorithm (following Rabenseifner [28] and the collective extension of
Becker et al. [30]):

**Forward pass** — events are processed in a happened-before-consistent
replay order (:mod:`repro.sync.order`).  Each event's corrected time is

.. math::

    LC'(e) = \\max\\bigl( LC(e),\\;
                         LC'(pred(e)) + \\gamma\\,\\delta(e),\\;
                         \\max_{s \\in deps(e)} LC'(s) + l_{min}(s, e) \\bigr)

where ``pred(e)`` is the previous local event, ``delta(e)`` the original
local interval, and ``deps(e)`` the matching send (for receives) or the
constraining collective enters (for collective exits).  The control
factor ``gamma`` slightly below 1 is the *forward amortization*: after a
jump the corrected clock keeps (gamma-compressed) local intervals and
thereby glides back toward the original timestamps instead of staying
shifted forever.  The ``LC(e)`` term guarantees the corrected clock
never runs behind the measured one.

**Backward pass** — a jump at a receive leaves a compressed interval
*before* it.  Backward amortization pre-spreads each jump linearly over
the preceding ``amortization_window`` seconds of the same rank, subject
to two caps that keep the result legal: a send event may never be pushed
past ``LC'(matching receive) - l_min`` (it would create a *new*
violation), and corrected times must stay monotone per rank.

The corrected trace provably satisfies the clock condition: receives sit
at or above their send constraints after the forward pass, and the
backward pass only ever moves events *up* while respecting the send
caps.  The accuracy of the result still depends on the input timestamps
(Section V), which is why it should run after linear interpolation —
the chain of :func:`repro.core.correct.correct_trace`.

**Implementation note.**  The default entry points run on the trace's
:class:`repro.sync.schedule.CompiledSchedule` (array-native kernels,
cached per trace); the forward pass's per-rank arithmetic is
:func:`repro.sync.schedule.forward_recurrence`, which the streaming CLC
drives too.  :meth:`ControlledLogicalClock.correct_reference` and
:func:`naive_shift_correct_reference` keep the original event-by-event
scalar formulation — the only other spelling of the follow rule — and
serve as the bit-for-bit equivalence oracle in the test suite.
Backward amortization has one implementation,
:func:`amortize_segment`: every path above (one call over every rank's
log) and the streaming CLC of :mod:`repro.sync.streaming` (one call per
shard, boundary carries) run it, and its cost follows the events inside
the amortization windows rather than ``jumps x events``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.order import build_dependencies, replay_schedule
from repro.telemetry import ensure_telemetry
from repro.sync.schedule import CompiledSchedule, forward_pass, send_caps_kernel
from repro.sync.violations import LminSpec, pair_lmin
from repro.tracing.trace import Trace

__all__ = [
    "ControlledLogicalClock",
    "ClcResult",
    "naive_shift_correct",
    "naive_shift_correct_reference",
    "compute_clc_stats",
]


@dataclass
class ClcResult:
    """Outcome of one CLC application."""

    trace: Trace
    corrected_events: int  # events whose timestamp changed
    total_events: int
    jumps: int  # events where a remote constraint was binding
    max_jump: float  # largest single forward shift, seconds
    max_shift: float  # largest total shift of any event, seconds
    #: Largest relative change of a local interval, with sub-microsecond
    #: intervals measured against a 1 us floor (a 50 ns gap stretched by
    #: 2 us would otherwise read as 4000 % while being harmless).
    interval_distortion: float
    #: Largest absolute change of a local interval, seconds.
    max_interval_growth: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CLC: {self.jumps} jumps, {self.corrected_events}/{self.total_events} "
            f"events moved, max shift {self.max_shift * 1e6:.3f} us"
        )


#: Denominator floor for the relative interval-distortion metric.
_DISTORTION_FLOOR = 1.0e-6
#: Shifts at or below this many seconds do not count as a moved event.
_MOVED_THRESHOLD = 1e-15


class ClcStats:
    """Before/after statistics of a correction, one contiguous segment at a time.

    Feed every rank's log in order — whole (in memory) or shard by
    shard (streaming, ``continues=True`` from a rank's second segment
    on, so the interval across the boundary is counted too).
    Only moved events and the intervals touching them are read: over a finite
    range of stamps any other interval changes by exactly ``0.0``, which the
    maxima absorb; a non-finite range or a mostly moved segment reads all.
    """

    def __init__(self) -> None:
        self.corrected_events = 0
        self.max_shift = 0.0
        self.interval_distortion = 0.0
        self.max_interval_growth = 0.0
        self._last: Optional[tuple[float, float]] = None

    def add(self, original: np.ndarray, corrected: np.ndarray, continues: bool = False) -> None:
        if not continues:
            self._last = None
        if not original.size:
            return
        if self._last is not None:  # the interval across the segment boundary
            self._intervals(
                np.diff([self._last[0], original[0]]), np.diff([self._last[1], corrected[0]])
            )
        self._last = (original[-1], corrected[-1])
        changed = corrected != original  # == (shift != 0) when the stamps are finite
        if np.isfinite(original.max() - original.min()) and 2 * np.count_nonzero(changed) <= changed.size:
            at = np.flatnonzero(changed[:-1] | changed[1:])
            shift = corrected[changed] - original[changed]
            self._intervals(original[at + 1] - original[at], corrected[at + 1] - corrected[at])
        else:
            shift = corrected - original
            self._intervals(np.diff(original), np.diff(corrected))
        if shift.size:
            self.corrected_events += int(np.count_nonzero(shift > _MOVED_THRESHOLD))
            self.max_shift = max(self.max_shift, float(shift.max()))

    def _intervals(self, d_orig: np.ndarray, d_corr: np.ndarray) -> None:
        if d_orig.size:
            change = np.abs(d_corr - d_orig)
            self.max_interval_growth = max(self.max_interval_growth, float(change.max()))
            rel = change / np.maximum(d_orig, _DISTORTION_FLOOR)
            self.interval_distortion = max(self.interval_distortion, float(rel.max()))

    def result(self, trace, total_events: int, jumps: int, max_jump: float) -> ClcResult:
        return ClcResult(
            trace=trace,
            corrected_events=self.corrected_events,
            total_events=total_events,
            jumps=jumps,
            max_jump=max_jump,
            max_shift=self.max_shift,
            interval_distortion=self.interval_distortion,
            max_interval_growth=self.max_interval_growth,
        )


def compute_clc_stats(
    trace: Trace,
    original: dict[int, np.ndarray],
    corrected: dict[int, np.ndarray],
    jumps_count: int,
    max_jump: float,
    meta: dict,
) -> ClcResult:
    """Assemble a :class:`ClcResult` from before/after timestamp arrays."""
    stats = ClcStats()
    for rank in trace.ranks:
        stats.add(original[rank], corrected[rank])
    out = trace.with_timestamps(corrected)
    out.meta["clc"] = meta
    return stats.result(out, trace.total_events(), jumps_count, max_jump)


class ControlledLogicalClock:
    """Configured CLC corrector.

    Parameters
    ----------
    gamma:
        Control factor in (0, 1]: fraction of each original local
        interval preserved after a jump.  1.0 never returns to the
        original timeline (pure interval preservation); the default
        0.99 glides back at 1 % of elapsed local time.
    amortization_window:
        Backward-amortization span in seconds; ``0`` disables the
        backward pass.  ``None`` picks ``50 x`` the largest jump, a
        span wide enough that local intervals change only slightly.
    telemetry:
        A :class:`repro.telemetry.TelemetryRecorder` recording per-pass
        spans (``sync.clc.compile``, ``sync.clc.forward``,
        ``sync.clc.amortize``) and jump counters, or ``None``.
    """

    def __init__(
        self,
        gamma: float = 0.99,
        amortization_window: Optional[float] = None,
        telemetry=None,
    ) -> None:
        if not 0.0 < gamma <= 1.0:
            raise SynchronizationError(f"gamma must be in (0, 1], got {gamma}")
        if amortization_window is not None and amortization_window < 0:
            raise SynchronizationError("amortization_window must be non-negative")
        self.gamma = gamma
        self.amortization_window = amortization_window
        self.telemetry = ensure_telemetry(telemetry)

    # ------------------------------------------------------------------
    def correct(self, trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
        """Apply the CLC to ``trace``; returns the corrected trace + stats."""
        with self.telemetry.span("sync.clc.compile"):
            schedule = trace.compiled_schedule()
        return self.correct_with_schedule(trace, schedule, lmin)

    def correct_with_dependencies(
        self,
        trace: Trace,
        deps: "dict[tuple[int, int], list[tuple[int, int]]]",
        lmin: LminSpec = 0.0,
    ) -> ClcResult:
        """Apply the CLC under an explicit happened-before constraint set.

        ``deps`` maps an event reference ``(rank, index)`` to the remote
        events that must precede it by ``lmin``, compiled as edges only.
        :meth:`correct` already enforces messages, MPI collectives and
        POMP regions (the latter two as blocks); this is their dense
        second spelling, e.g. ``build_dependencies(trace)``, which the
        ``custom_dependency_identity`` oracle compares against.
        """
        schedule = CompiledSchedule.from_dependencies(trace, deps)
        return self.correct_with_schedule(trace, schedule, lmin)

    def correct_with_schedule(
        self, trace: Trace, schedule: CompiledSchedule, lmin: LminSpec = 0.0
    ) -> ClcResult:
        """Apply the CLC on a pre-compiled happened-before schedule."""
        tele = self.telemetry
        edge_lmin = schedule.edge_lmin(lmin)
        original = {rank: trace.logs[rank].timestamps for rank in trace.ranks}
        orig_flat = schedule.flatten(original)

        with tele.span("sync.clc.forward", events=orig_flat.size):
            corr_flat, (ks, js), njumps, max_jump, writes, lands = forward_pass(
                schedule, orig_flat, edge_lmin, self.gamma
            )
        if tele.enabled:
            tele.count("sync.clc.events", orig_flat.size)
            tele.count("sync.clc.jumps", njumps)
            tele.count("sync.clc.forward_writes", writes)
            tele.count("sync.clc.lands", lands)
            # What the schedule compiled to: edge rows (messages, or an
            # explicit constraint set) and collective instance blocks.
            tele.count("sync.schedule.edges", schedule.n_edges)
            tele.count("sync.schedule.blocks", schedule.n_blocks)
            # The forward pass and the send caps hold every event at
            # once (only the backward amortization is windowed); the
            # gauge makes the memory model comparable with the
            # streaming path, which reports true shard residency.
            tele.gauge_max("sync.clc.peak_resident_events", orig_flat.size)

        window = self.amortization_window
        if window is None:
            window = self._auto_window(max_jump)
        if window > 0:
            with tele.span("sync.clc.amortize", window=window):
                caps = send_caps_kernel(schedule, corr_flat, edge_lmin)
                amortize_segment(
                    corr_flat, (ks, js, corr_flat[ks]), window, caps, None, tele, schedule.offsets
                )

        return compute_clc_stats(
            trace,
            original,
            schedule.split(corr_flat),
            jumps_count=njumps,
            max_jump=max_jump,
            meta={"gamma": self.gamma, "window": window, "jumps": njumps},
        )

    # ------------------------------------------------------------------
    # Scalar reference implementation (the equivalence-test oracle)
    # ------------------------------------------------------------------
    def correct_reference(self, trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
        """Event-by-event scalar CLC; bit-identical oracle for :meth:`correct`."""
        deps = build_dependencies(trace)
        return self.correct_with_dependencies_reference(trace, deps, lmin)

    def correct_with_dependencies_reference(
        self,
        trace: Trace,
        deps: "dict[tuple[int, int], list[tuple[int, int]]]",
        lmin: LminSpec = 0.0,
    ) -> ClcResult:
        """Scalar formulation of :meth:`correct_with_dependencies` (oracle)."""
        original, corrected, offsets, jumps = _forward_reference(trace, deps, lmin, self.gamma)
        max_jump = max((jump for _, jump in jumps), default=0.0)
        window = self.amortization_window
        if window is None:
            window = self._auto_window(max_jump)
        if window > 0:
            caps = self._send_caps_reference(trace, deps, corrected, pair_lmin(lmin))
            flat = np.concatenate([corrected[rank] for rank in trace.ranks])
            jumps.sort()
            ks = np.array([k for k, _ in jumps], dtype=np.int64)
            js = np.array([j for _, j in jumps], dtype=np.float64)
            amortize_segment(
                flat, (ks, js, flat[ks]), window,
                np.concatenate([caps[rank] for rank in trace.ranks]), offsets=offsets,
            )
            corrected = dict(zip(trace.ranks, np.split(flat, offsets[1:-1])))
        return compute_clc_stats(
            trace,
            original,
            corrected,
            jumps_count=len(jumps),
            max_jump=max_jump,
            meta={"gamma": self.gamma, "window": window, "jumps": len(jumps)},
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _auto_window(max_jump: float) -> float:
        # Span the largest jump over a region much wider than the jump
        # itself so local interval lengths change only slightly.
        return 50.0 * max_jump if max_jump > 0 else 0.0

    @staticmethod
    def _send_caps_reference(trace, deps, corrected, lmin_fn) -> dict[int, np.ndarray]:
        """Upper bound per event: sends must stay below partner receive - l_min."""
        caps: dict[int, np.ndarray] = {
            rank: np.full(len(trace.logs[rank]), np.inf) for rank in trace.ranks
        }
        for (dst_rank, dst_idx), sources in deps.items():
            recv_time = corrected[dst_rank][dst_idx]
            for src_rank, src_idx in sources:
                lm = lmin_fn(src_rank, dst_rank)
                cap = recv_time - lm
                # Same conservative rounding as ``send_caps_kernel``:
                # the cap must satisfy ``cap + l_min <= recv`` exactly.
                while cap + lm > recv_time:
                    cap = float(np.nextafter(cap, -np.inf))
                if cap < caps[src_rank][src_idx]:
                    caps[src_rank][src_idx] = cap
        return caps


def naive_shift_correct(trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
    """Lamport-style correction *without* amortization (baseline).

    Section V's first option: "If a receive event appears before its
    corresponding send event ... the receive event is shifted forward in
    time according to the clock value exchanged."  Each violated receive
    jumps to ``send + l_min``; subsequent local events are only clamped
    for monotonicity (they keep their original timestamps when possible).

    The result satisfies the clock condition but *collapses local
    intervals to zero* behind every jump — events pile up at the
    corrected receive time — which is precisely the distortion the CLC's
    forward/backward amortization exists to avoid.  Use it as the
    comparison point in ablations.
    """
    schedule = trace.compiled_schedule()
    edge_lmin = schedule.edge_lmin(lmin)
    original = {rank: trace.logs[rank].timestamps for rank in trace.ranks}
    orig_flat = schedule.flatten(original)
    corr_flat, _jumps, njumps, max_jump, _writes, _lands = forward_pass(
        schedule, orig_flat, edge_lmin, gamma=None
    )
    return compute_clc_stats(
        trace,
        original,
        schedule.split(corr_flat),
        jumps_count=njumps,
        max_jump=max_jump,
        meta={"naive_shift": True, "jumps": njumps},
    )


def naive_shift_correct_reference(trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
    """Scalar formulation of :func:`naive_shift_correct` (oracle)."""
    deps = build_dependencies(trace, include_collectives=True)
    original, corrected, _, jumps = _forward_reference(trace, deps, lmin, None)
    return compute_clc_stats(
        trace,
        original,
        corrected,
        jumps_count=len(jumps),
        max_jump=max((jump for _, jump in jumps), default=0.0),
        meta={"naive_shift": True, "jumps": len(jumps)},
    )


def _forward_reference(trace: Trace, deps, lmin: LminSpec, gamma: Optional[float]):
    """The scalar forward pass, event by event in replay order.

    ``gamma=None`` is the naive shift: its followers are only clamped for
    monotonicity, the follow rule with ``γ·δ = -0.0``.  Returns
    ``(original, corrected, offsets, jumps)``: per-rank stamps, the
    ranks' starts in the flat order, and ``(flat index, size)`` per jump.
    """
    lmin_fn = pair_lmin(lmin)
    original = {rank: trace.logs[rank].timestamps for rank in trace.ranks}
    corrected = {rank: original[rank].copy() for rank in trace.ranks}
    offsets = np.cumsum([0] + [original[rank].size for rank in trace.ranks])
    base = dict(zip(trace.ranks, offsets.tolist()))
    jumps: list[tuple[int, float]] = []
    for rank, idx in replay_schedule(trace, deps):
        orig = original[rank]
        corr = corrected[rank]
        value = orig[idx]
        if idx > 0:
            follow = corr[idx - 1] + (-0.0 if gamma is None else gamma * (orig[idx] - orig[idx - 1]))
            if follow > value:
                value = follow
        remote_floor = -np.inf
        for dep_rank, dep_idx in deps.get((rank, idx), ()):
            floor = corrected[dep_rank][dep_idx] + lmin_fn(dep_rank, rank)
            if floor > remote_floor:
                remote_floor = floor
        if remote_floor > value:
            jumps.append((base[rank] + idx, remote_floor - value))
            value = remote_floor
        corr[idx] = value
    return original, corrected, offsets, jumps


def ramp_cuts(js: np.ndarray, ts: np.ndarray, window: float) -> np.ndarray:
    """Per jump, a time at or below which its ramp is provably ``<= 0``.

    One ulp below ``anchor - window``: ``t <= cut`` implies ``anchor -
    t > window`` in exact arithmetic, hence ``(anchor - t) / window >=
    1`` after rounding and a non-positive ramp.
    """
    return np.nextafter((ts - js) - window, -np.inf)


#: Elements one round of :func:`_reverse_fixed_point`'s walks may hold.
_WALK_BUDGET = 1 << 13


def _reverse_fixed_point(x, right, link, step, gap=None) -> int:
    """Solve ``x[i] = step(i, x[i + 1] if link[i] else right[i])`` at every ``i``.

    A vector that satisfies a right-to-left recurrence at every index is
    its sequential scan's answer, bit for bit, whatever order reaches it.
    ``x`` holds one value past the last position (read if it is linked);
    ``right`` is one number or one per position.  A round recomputes,
    from one snapshot, the positions whose right neighbour changed (at
    first all of them, as views), then walks left from each changed one,
    up to its chain's start or the next recomputed position, while each
    value is the one the step before binds it to: ``x`` plus ``gap`` (one
    ``np.add.accumulate`` along the walk, the same adds) or ``x`` itself —
    so a binding chain settles in one round, not one a link.  ``step``
    takes index and right arrays of one shape.  Returns the rounds.
    """
    m = link.size
    chain_ends = np.append(-1, np.flatnonzero(~link))
    rounds, dirty = 0, slice(0, m)
    while True:
        rounds += 1
        whole = isinstance(dirty, slice)
        fixed = right if np.ndim(right) == 0 else right[dirty]
        new = step(dirty, np.where(link[dirty], x[1:] if whole else x[dirty + 1], fixed))
        changed = new.view(np.int64) != x[dirty].view(np.int64)
        x[dirty] = new
        if whole:
            tails = np.flatnonzero(changed)  # no walks: each left neighbour read the old value
        else:
            moved = dirty[changed]
            below = np.searchsorted(dirty, moved) - 1
            start = chain_ends[np.searchsorted(chain_ends, moved) - 1] + 1
            room = moved - np.maximum(start, np.where(below >= 0, dirty[below] + 1, 0))
            tails, c, room = moved[room == 0], moved[room > 0], room[room > 0]
            if c.size:
                cols = np.arange(min(int(room.max()), max(1, _WALK_BUDGET // c.size)))
                idx = np.maximum(c[:, None] - 1 - cols, 0)
                rights = np.repeat(x[c][:, None], cols.size, axis=1)
                if gap is not None:
                    rights[:, 1:] = gap[idx[:, :-1]]
                    np.add.accumulate(rights, axis=1, out=rights)
                vals = step(idx, rights)
                bound = np.zeros(idx.shape, dtype=bool)
                bound[:, :-1] = vals[:, :-1].view(np.int64) == rights[:, 1:].view(np.int64)
                last = (bound & (cols + 1 < room[:, None])).argmin(axis=1)  # the walk's end
                ends = c - 1 - last
                before = x[ends]
                take = cols <= last[:, None]
                x[idx[take]] = vals[take]
                tails = np.append(tails, ends[x[ends].view(np.int64) != before.view(np.int64)])
        left = tails[tails > 0] - 1  # reads a changed right neighbour next round
        dirty = np.unique(left[link[left]])
        if not dirty.size:
            return rounds


def amortize_segment(
    times: np.ndarray,
    jumps: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    window: float,
    caps: Optional[np.ndarray] = None,
    right_carry: "Optional[tuple[float, float, float]]" = None,
    telemetry=None,
    offsets: Optional[np.ndarray] = None,
) -> "tuple[np.ndarray, Optional[tuple[float, float, float]]]":
    """Backward amortization of one contiguous segment of flat stamps.

    The segment holds whole logs back to back, split at ``offsets`` like
    :attr:`CompiledSchedule.offsets <repro.sync.schedule.CompiledSchedule>`
    (``None``: one log, or one piece of a log).  ``times`` are the
    forward-corrected timestamps and ``jumps = (ks, js, ts)`` the jumps,
    ascending by ``ks``: segment-relative event index (``>= times.size``
    for a jump in a later segment of the last log; ``<= 0`` entries
    cannot reach the segment and are ignored), jump size, and corrected
    time of the jump event.  For a jump of size ``J`` at event ``k``
    (corrected time ``T``), the desired advance of an earlier event of
    its log at time ``t`` is ``J * (1 - (T - J - t)/window)`` clipped to
    ``[0, J]`` — anchored at the event's *pre-jump* time, so an event
    just before where the receive originally sat advances by (almost)
    the full jump and events ``window`` earlier don't move at all;
    multiple jumps combine by maximum.  Caps (send constraints) and
    per-log monotonicity are then enforced right to left: the advance of
    event ``i`` may not exceed ``advance(i+1) + (t(i+1) - t(i))`` nor
    ``caps[i] - t(i)``, and the summed outputs are re-clamped to stay
    ordered.  A log's last event reads no right neighbour.

    The cost follows the windows, not ``jumps x events``:

    * a ramp is ``<= 0`` wherever ``t <= anchor - window``, so each jump
      is evaluated only on ``[lo, k)`` with ``lo`` found by bisecting
      the running maximum of its log's ``times`` (valid on non-monotone,
      NTP-stepped logs) one ulp below ``anchor - window`` — a
      conservative superset, inside which the elementwise operations,
      the clips and the max over jumps are the same IEEE operations a
      dense ``(jumps, events)`` matrix would perform; the ragged
      ``(jump, event)`` pairs are expanded one log at a time;
    * both reverse scans are the identity at every event whose desired
      advance is zero (a zero stays zero, and ``out[i] > out[i+1] >=
      t[i]`` cannot hold when ``out[i] == t[i]``), so they visit only
      the events some ramp reaches, reading an unvisited right
      neighbour as "did not move", and each is solved as a fixed point
      of its recurrence (:func:`_reverse_fixed_point`).

    ``right_carry`` is the ``(advance, time, output)`` of the event just
    right of the segment (``None``: the segment ends the log).  Amortizes
    ``times`` in place and returns it with the same triple for the
    segment's first event, so a log may be processed in any
    right-to-left split with identical results.
    """
    n = times.size
    if n == 0:
        return times, right_carry
    t0 = float(times[0])
    idle = (0.0, t0, t0)
    ks, js, ts = jumps
    reach = ks > 0
    if not reach.all():
        ks, js, ts = ks[reach], js[reach], ts[reach]
    offsets = np.array([0, n]) if offsets is None else offsets
    anchors, cuts = ts - js, ramp_cuts(js, ts, window)
    pairs, reached, wanted = 0, [], []
    split = np.searchsorted(ks, offsets[1:-1]).tolist()
    for s, e, a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist(), [0, *split], [*split, ks.size]):
        if a == b:
            continue
        lo = s + np.searchsorted(np.maximum.accumulate(times[s:e]), cuts[a:b], side="right")
        counts = np.maximum(np.minimum(ks[a:b], e) - lo, 0)
        npairs = int(counts.sum())
        if npairs == 0:
            continue
        pairs += npairs
        # ``row`` names the jump, ``ev`` walks lo..hi-1 of that jump,
        # counted from ``first``, the log's first reached event.
        first = int(lo[counts > 0].min())
        row = np.repeat(np.arange(a, b), counts)
        ev = np.arange(npairs) - np.repeat(np.cumsum(counts) - counts - (lo - first), counts)
        jr = js[row]
        ramp = jr * (1.0 - (anchors[row] - times[ev + first]) / window)
        np.maximum(ramp, 0.0, out=ramp)
        np.minimum(ramp, jr, out=ramp)
        desired = np.zeros(int(ev.max()) + 1)
        np.maximum.at(desired, ev, ramp)
        hit = np.flatnonzero(desired)
        reached.append(hit + first)
        wanted.append(desired[hit])
    if pairs == 0:
        return times, idle

    nz = np.concatenate(reached)
    allowed = np.concatenate(wanted)
    reached = wanted = None
    tele = ensure_telemetry(telemetry)
    if tele.enabled:
        tele.count("sync.clc.amortize_pairs", pairs)
        tele.count("sync.clc.amortize_scanned", nz.size)
    if nz.size == 0:
        return times, idle

    t_nz = times[nz]
    if caps is not None:
        room = caps[nz] - t_nz
        np.minimum(allowed, np.maximum(room, 0.0, out=room), out=allowed)
        room = None
    # Right neighbour of every visited event: the next visited event
    # when adjacent in its log (``link``), else an event that does not
    # move; past a log's end an unmoved event at +inf, which limits
    # nothing, and past the segment's the carried event, read as the
    # value one past the last.
    after = nz + 1
    ends = np.isin(after, offsets[1:])
    link = np.append(after[:-1] == nz[1:], False) & ~ends
    carried = right_carry is not None and after[-1] == n
    link[-1] = carried
    gap = times[np.minimum(after, n - 1, out=after)]
    after = None
    gap[ends] = np.inf
    if carried:
        gap[-1] = right_carry[1]
    gap -= t_nz

    def advance(i, right):
        # A negative original gap (non-monotone recorded log, e.g. an
        # NTP step backwards) makes the limit negative; an advance must
        # never turn into a retreat — that would move a receive below
        # send + l_min and re-violate Eq. 1.
        limit = right + gap[i]
        a = np.where(allowed[i] > limit, limit, allowed[i])
        return np.where(a < 0.0, 0.0, a)

    def reclamp(i, right):
        # ``t[i] + al[i]`` rounds independently per event, so an advance
        # sitting exactly on the monotonicity limit can land one ulp
        # above its successor (same for the caps clamp below).  The
        # ``>= t[i]`` guard leaves a non-monotone recorded log as-is
        # instead of dragging events backward.
        return np.where((out_nz[i] > right) & (right >= t_nz[i]), right, out_nz[i])

    al = np.append(allowed, right_carry[0] if carried else 0.0)
    t_nz = None
    rounds = _reverse_fixed_point(al, 0.0, link, advance, gap)
    allowed = gap = None
    t_nz = times[nz]
    out_nz = t_nz + al[:-1]
    al0, al = float(al[0]), None
    if caps is not None:
        # ``t + (cap - t)`` can round one ulp above ``cap``; clamp
        # exactly so verifiers using strict comparison stay happy
        # (never below the original time, though).
        np.minimum(out_nz, np.maximum(caps[nz], t_nz), out=out_nz)
    nxt_t = times[np.minimum(nz + 1, n - 1)]
    nxt_t[ends] = np.inf
    ol = np.append(out_nz, right_carry[2] if carried else 0.0)
    rounds += _reverse_fixed_point(ol, nxt_t, link, reclamp)
    if tele.enabled:
        tele.count("sync.clc.amortize_rounds", rounds)
    left = (al0, float(t_nz[0]), float(ol[0])) if int(nz[0]) == 0 else idle
    times[nz] = ol[:-1]
    return times, left
