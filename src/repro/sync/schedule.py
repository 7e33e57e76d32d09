"""Array-native compilation of a trace's happened-before structure.

Every logical-clock algorithm in this package — Lamport and vector
clocks, the controlled logical clock, the naive Lamport shift, and the
replay decomposition — consumes the same two ingredients: the sparse
remote-dependency relation of :func:`repro.sync.order.dependency_edges`
and a happened-before-consistent processing order.

:class:`CompiledSchedule` derives both **once** and stores them as flat
numpy arrays:

* **global event ids** — rank ``ranks[i]``'s events occupy the gid range
  ``[offsets[i], offsets[i+1])``;
* **the edge table** — ``e_dst``/``e_src`` (gids) and
  ``edge_dst_rank``/``edge_src_rank`` (rank ids, for vectorized ``l_min``
  resolution via :func:`repro.sync.violations.resolve_lmin`), one entry
  per edge in the order given; the send caps of the CLC backward pass
  are one scatter-min over it;
* **a compact forward CSR** — ``dep_gids`` lists the dependency-bearing
  events (receives, collective exits, custom constraints such as POMP)
  ascending by gid, ``dep_indptr`` delimits their sources in
  ``dep_src`` (gids; ``dep_edge_ids`` names the edge-table row behind
  each slot, sources in the order given), and rank ``i``'s dependents
  are the contiguous range ``rank_deps[i]:rank_deps[i+1]``.  Nothing is
  indexed by event: a million dependency-free events cost nothing here;
* **an execution plan** — ``steps`` is a sequence of per-rank spans
  ``(rank position, start gid, stop gid, first dependent, stop
  dependent)`` whose sequential execution respects every dependency.
  :func:`cursor_walk` finds it the way the streaming CLC orders itself
  (:mod:`repro.sync.streaming`): each rank advances until a source is
  not yet done, sleeps on that source, and is woken when it is.  The
  forward pass is deterministic dataflow, so *any* valid order yields
  the same bits; this one is not ``replay_schedule``'s.

The kernels (:func:`clc_forward`, :func:`send_caps_kernel`,
:func:`lamport_kernel`, :func:`vector_kernel`, :func:`bsp_rounds`) are
**bit-for-bit equivalent** to the scalar reference implementations that
remain in :mod:`repro.sync.clc`, :mod:`repro.sync.lamport`, and
:mod:`repro.sync.vector` as ``*_reference`` functions:

* integer kernels (Lamport, vector) use closed forms that are exact in
  int64 arithmetic;
* the float CLC recurrence ``LC'[i] = max(LC[i], LC'[i-1] + γ·δ[i])``
  lives in :func:`forward_recurrence`, shared with the streaming CLC,
  and is only evaluated — with exactly the reference's operation order
  — where it can deviate from the identity ``LC'[i] = LC[i]``: after a
  remote-constrained jump (until the γ-glide decays back onto the
  original timeline) and at the rare positions where
  ``LC[i-1] + γ·δ[i] > LC[i]`` holds spontaneously through rounding
  (detected by one vectorized pass).  Everywhere else the corrected
  timestamp provably equals the original bit pattern, so skipping the
  event is exact, not approximate.  The original stamps therefore stay
  a numpy array: corrections live in an overlay that holds Python
  floats only for the events the pass reads or moves, and the result
  is the original array with the moved events scattered in — the pass
  costs what the dependencies and the moved events cost, not the log.

Schedules are structure-only (no timestamps), so a compiled schedule is
valid for every timestamp correction of the same trace; ``Trace``
caches one per ``include_collectives`` flavor
(:meth:`repro.tracing.trace.Trace.compiled_schedule`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.order import EventRef, dependency_edges
from repro.sync.violations import LminSpec, resolve_lmin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports us lazily)
    from repro.tracing.trace import Trace

__all__ = [
    "CompiledSchedule",
    "cursor_walk",
    "forward_recurrence",
    "clc_forward",
    "send_caps_kernel",
    "lamport_kernel",
    "vector_kernel",
    "bsp_rounds",
]

_NEG_INF = float("-inf")


def cursor_walk(
    offsets: Sequence[int],
    rank_deps: Sequence[int],
    dep_gids: Sequence[int],
    dep_indptr: Sequence[int],
    src: Sequence[int],
    src_pos: Sequence[int],
) -> tuple[list[tuple[int, int, int, int, int]], list[int], int]:
    """A happened-before-consistent execution plan, by structure alone.

    Arguments are the list mirrors of a :class:`CompiledSchedule`'s
    compact CSR (``src_pos`` is the rank position of each ``src`` gid).
    Every rank keeps a cursor; a visit moves it over dependency-free
    events and over each dependent whose sources all lie behind their
    own rank's cursor, and ends at the first source that does not.  The
    rank then sleeps in that source rank's heap, keyed by the awaited
    gid, is woken only once the cursor there has passed it, and resumes
    its source scan behind the edge it slept on: every edge is checked
    once, a sleep costs ``O(log ranks)``, nothing is polled.

    Returns ``(steps, cursors, checks)``: the visits that moved a cursor
    as ``(rank position, start gid, stop gid, first dependent, stop
    dependent)``, each rank's final cursor (short of ``offsets[i + 1]``
    where a cycle left it asleep), and the number of edge checks made.
    """
    nr = len(offsets) - 1
    done = list(offsets[:nr])  # per rank: every gid below has been scheduled
    dep = list(rank_deps[:nr])  # per rank: its next dependent
    edge = [dep_indptr[d] for d in dep]  # per rank: the next source to check
    asleep: list[list[tuple[int, int]]] = [[] for _ in range(nr)]
    ready = deque(range(nr))
    steps = []
    checks = 0
    while ready:
        rp = ready.popleft()
        start, first, resumed = done[rp], dep[rp], edge[rp]
        d, e, d_stop = first, resumed, rank_deps[rp + 1]
        while d < d_stop:
            done[rp] = dep_gids[d]  # all before the dependent runs; a same-rank source may be there
            stop = dep_indptr[d + 1]
            while e < stop and src[e] < done[src_pos[e]]:
                e += 1
            if e < stop:
                heappush(asleep[src_pos[e]], (src[e], rp))
                e += 1
                break
            d += 1
        else:
            done[rp] = offsets[rp + 1]
        checks += e - resumed
        dep[rp], edge[rp] = d, e
        if done[rp] > start:
            steps.append((rp, start, done[rp], first, d))
            sleepers = asleep[rp]
            while sleepers and sleepers[0][0] < done[rp]:
                ready.append(heappop(sleepers)[1])
    return steps, done, checks


class CompiledSchedule:
    """One-shot array compilation of a trace's happened-before structure.

    Build via :meth:`from_trace` (message + collective constraints, the
    standard relation) or :meth:`from_dependencies` (any explicit
    constraint dict, e.g. POMP semantics).  Instances are immutable and
    timestamp-independent; see the module docstring for the layout.
    """

    __slots__ = (
        "ranks",
        "offsets",
        "lengths",
        "n_events",
        "n_edges",
        "e_src",
        "e_dst",
        "edge_src_rank",
        "edge_dst_rank",
        "dep_gids",
        "dep_indptr",
        "dep_edge_ids",
        "dep_src",
        "rank_deps",
        "steps",
        "hot",
        "_topo",
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: "Trace", include_collectives: bool = True) -> "CompiledSchedule":
        """Compile the standard message/collective happened-before relation."""
        return cls(trace, dependency_edges(trace, include_collectives))

    @classmethod
    def from_dependencies(
        cls, trace: "Trace", deps: dict[EventRef, list[EventRef]]
    ) -> "CompiledSchedule":
        """Compile an explicit constraint set (the POMP extension point).

        Every target and source must be an event of the trace; the first
        that is not, reading each target and then its sources in dict
        order, raises ``SynchronizationError``.
        """
        fanin = np.fromiter(map(len, deps.values()), dtype=np.int64, count=len(deps))
        refs = np.array(
            [ref for target, sources in deps.items() for ref in (target, *sources)], dtype=np.int64
        ).reshape(-1, 2)
        is_target = np.zeros(len(refs), dtype=bool)
        is_target[np.cumsum(fanin + 1) - fanin - 1] = True
        rank, idx = refs[:, 0], refs[:, 1]
        known = np.array(trace.ranks, dtype=np.int64)
        # Position ``len(known)``, above every rank, gets a pad of length zero.
        lengths = np.array([len(trace.logs[r]) for r in trace.ranks] + [0], dtype=np.int64)
        pos = np.searchsorted(known, rank)
        missing = (np.append(known, -1)[pos] != rank) | (idx < 0) | (idx >= lengths[pos])
        bad = np.flatnonzero(missing)
        if bad.size:
            what = "target" if is_target[bad[0]] else "source"
            raise SynchronizationError(
                f"dependency {what} ({rank[bad[0]]}, {idx[bad[0]]}) is not an event of the trace"
            )
        targets, sources = np.repeat(refs[is_target], fanin, axis=0), refs[~is_target]
        return cls(trace, (targets[:, 0], targets[:, 1], sources[:, 0], sources[:, 1]))

    def __init__(
        self,
        trace: "Trace",
        edges: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """``edges`` is ``(dst_rank, dst_idx, src_rank, src_idx)``, one entry per edge,
        each naming an event of ``trace`` (:meth:`from_dependencies` checks a dict's)."""
        self.ranks = trace.ranks
        self.lengths = np.array([len(trace.logs[r]) for r in self.ranks], dtype=np.int64)
        offsets = np.zeros(len(self.ranks) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=offsets[1:])
        self.offsets = offsets
        self.n_events = int(offsets[-1])

        # ---- edge table, in the order given ----------------------------
        dst_rank, dst_idx, src_rank, src_idx = edges
        rank_ids = np.array(self.ranks, dtype=np.int64)
        src_pos = np.searchsorted(rank_ids, src_rank)
        self.e_dst = e_dst = offsets[np.searchsorted(rank_ids, dst_rank)] + dst_idx
        self.e_src = offsets[src_pos] + src_idx
        self.n_edges = e_dst.size
        self.edge_src_rank = src_rank
        self.edge_dst_rank = dst_rank

        # ---- compact forward CSR (dependent -> sources) ----------------
        self.dep_edge_ids = by_dst = np.argsort(e_dst, kind="stable")
        dst_sorted = e_dst[by_dst]
        first = np.flatnonzero(np.diff(dst_sorted, prepend=-1))
        self.dep_gids = dst_sorted[first]
        self.dep_indptr = np.append(first, self.n_edges)
        self.dep_src = self.e_src[by_dst]
        self.rank_deps = np.searchsorted(self.dep_gids, offsets)

        # ---- cursor walk -> execution plan -----------------------------
        #: Python-list mirrors of the arrays the walk and the kernels read
        #: scalar-wise: exactly :func:`cursor_walk`'s arguments.
        self.hot = {
            "offsets": offsets.tolist(),
            "rank_deps": self.rank_deps.tolist(),
            "dep_gids": self.dep_gids.tolist(),
            "dep_indptr": self.dep_indptr.tolist(),
            "src": self.dep_src.tolist(),
            "src_pos": src_pos[by_dst].tolist(),
        }
        self.steps, cursors, _ = cursor_walk(**self.hot)
        scheduled = sum(cursors) - int(offsets[:-1].sum())
        if scheduled != self.n_events:
            raise SynchronizationError(
                f"replay schedule incomplete ({scheduled}/{self.n_events} events); "
                "the trace's happened-before graph has a cycle or dangling dependency"
            )
        self._topo = None

    # ------------------------------------------------------------------
    # Views and helpers
    # ------------------------------------------------------------------
    def _rank_pos_of(self, gids: np.ndarray) -> np.ndarray:
        """Rank position (index into ``self.ranks``) of each gid."""
        return np.searchsorted(self.offsets, gids, side="right") - 1

    def topo_gids(self) -> np.ndarray:
        """Every event's gid in compiled order."""
        if self._topo is None:
            parts = [np.arange(a, b, dtype=np.int64) for _, a, b, _, _ in self.steps]
            self._topo = (
                np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            )
        return self._topo

    def topo_refs(self) -> list[EventRef]:
        """Compiled order as ``(rank, local index)`` tuples (test oracle)."""
        gids = self.topo_gids()
        pos = self._rank_pos_of(gids)
        ranks_arr = np.array(self.ranks, dtype=np.int64)
        locals_ = gids - self.offsets[pos]
        return list(zip(ranks_arr[pos].tolist(), locals_.tolist()))

    def edge_lmin(self, lmin: LminSpec) -> np.ndarray:
        """Per-edge minimum-latency floor, in edge order.

        Reuses :func:`repro.sync.violations.resolve_lmin`, so callables
        are evaluated once per unique rank pair and matrices are indexed
        by actual rank ids — float-identical to the scalar
        :func:`repro.sync.violations.pair_lmin` of the reference
        implementation.
        """
        if self.n_edges == 0:
            return np.zeros(0, dtype=np.float64)
        return resolve_lmin(lmin, self.edge_src_rank, self.edge_dst_rank)

    def flatten(self, per_rank: dict[int, np.ndarray]) -> np.ndarray:
        """Concatenate per-rank arrays into one gid-indexed array."""
        parts = [np.asarray(per_rank[r], dtype=np.float64) for r in self.ranks]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.float64)

    def split(self, flat: np.ndarray) -> dict[int, np.ndarray]:
        """Per-rank views of a gid-indexed array."""
        return {
            rank: flat[self.offsets[i] : self.offsets[i + 1]]
            for i, rank in enumerate(self.ranks)
        }


# ----------------------------------------------------------------------
# The forward recurrence
# ----------------------------------------------------------------------
def forward_recurrence(
    orig: np.ndarray, gamma: float | None, heads: Sequence[int], reads: Sequence[int]
) -> tuple[
    list,
    list[int],
    Callable[[int, int, int], int],
    Callable[[int, float], float],
    Callable[[], tuple[np.ndarray, np.ndarray]],
]:
    """The per-rank arithmetic of the forward pass, over one array of log windows.

    ``orig`` holds the original timestamps of one or more contiguous
    windows of per-rank logs; ``heads`` are the positions with no local
    predecessor in ``orig`` (position 0 always is one).  ``gamma`` is the
    CLC's control factor, ``None`` for the naive shift, whose followers
    are only clamped for monotonicity: that is ``γ·δ = -0.0``, the one
    addend that changes no float, the sign of a zero included.  ``reads``
    are the positions the caller reads from ``corr`` or lands on.

    Returns ``(corr, spont, stretch, land, settle)``.  ``corr`` is an
    overlay: a list that holds ``None`` except at ``reads`` (filled from
    ``orig``) and at the events the pass moved, so what the pass costs in
    Python follows the dependencies and the moved events, not the log
    length.  A caller whose window continues a log keeps the carried
    predecessor in the slot before it (``orig[0]`` its original stamp)
    and lands that slot on its corrected stamp: ``land(0, carried)``.
    ``spont`` lists, ascending, the positions where the follow rule
    binds although the predecessor did not move — ``LC[i-1] + γ·δ[i] >
    LC[i]`` through rounding (CLC) or a locally unsorted log (naive
    shift) — found in one vectorized pass.  Off those positions the rule
    binds only behind a moved event, which is what licenses skipping
    every event whose predecessor kept its stamp.

    ``stretch(cur, stop, k)`` corrects the dependency-free events
    ``[cur, stop)``: the glide tail continuing from ``cur - 1`` if that
    event moved and one tail from every spontaneous position, ``k``
    being the caller's cursor into ``spont`` for this log (the new
    cursor is returned).  Splitting a stretch anywhere is bit-identical
    to running it whole.  ``land(p, floor)`` corrects the
    dependency-bearing event ``p`` given the largest ``LC'(source) +
    l_min`` over its sources and returns the jump size, ``0.0`` when
    the remote constraint did not bind.  ``settle()`` returns ``(the
    corrected stamps as an array, the moved positions)``: ``orig`` with
    the overlay's moved events scattered in.
    """
    n = orig.size
    gd = np.full(n, -0.0)
    if gamma is not None:
        np.subtract(orig[1:], orig[:-1], out=gd[1:])
        gd[1:] *= gamma
    gd[:1] = gd[heads] = _NEG_INF  # no predecessor: the follow rule never binds
    spont_at = np.flatnonzero(orig[:-1] + gd[1:] > orig[1:]) + 1
    spont = spont_at.tolist()
    nsp = len(spont)
    spont_set = set(spont)

    moved = bytearray(n)  # 1 where the overlay holds a corrected stamp
    mask = np.frombuffer(moved, dtype=np.bool_)
    mask[reads] = True
    mask[spont_at - 1] = True  # a spontaneous tail reads the stamp before it
    at = np.flatnonzero(mask)
    mask[at] = False
    corr: list = [None] * n
    for i, value in zip(at.tolist(), orig[at].tolist()):
        corr[i] = value

    orig_at, gd_at = memoryview(orig), memoryview(gd)

    def tail(i: int, stop: int) -> int:
        """Apply the follow rule from ``i`` for as long as it binds."""
        prev = corr[i - 1]
        while i < stop:
            follow = prev + gd_at[i]
            if not follow > orig_at[i]:
                break
            corr[i] = prev = follow
            moved[i] = 1
            i += 1
        return i

    def stretch(cur: int, stop: int, k: int) -> int:
        # ``cur - 1`` of a head is another log's event: γ·δ = -inf there.
        if cur < stop and moved[cur - 1]:
            cur = tail(cur, stop)
        while k < nsp and spont[k] < stop:
            if spont[k] >= cur:
                cur = tail(spont[k], stop)
            k += 1
        return k

    def land(p: int, floor: float) -> float:
        value = before = corr[p]
        if moved[p - 1] or p in spont_set:
            follow = corr[p - 1] + gd_at[p]
            if follow > value:
                value = follow
        jump = 0.0
        if floor > value:
            jump = floor - value
            value = floor
        if value > before:  # every correction is a strict rise
            corr[p] = value
            moved[p] = 1
        return jump

    def settle() -> tuple[np.ndarray, np.ndarray]:
        out = orig.copy()
        written = np.flatnonzero(mask)
        out[written] = np.fromiter(map(corr.__getitem__, written.tolist()), np.float64, written.size)
        return out, written

    return corr, spont, stretch, land, settle


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def clc_forward(
    schedule: CompiledSchedule,
    orig_flat: np.ndarray,
    edge_lmin: np.ndarray,
    gamma: float | None,
) -> tuple[np.ndarray, dict[int, list[tuple[int, float]]], int, float, int]:
    """Forward pass of the CLC (``gamma`` set) or naive shift (``None``).

    Returns ``(corrected_flat, jumps, njumps, max_jump, writes)`` with
    ``jumps`` mapping each rank to its ``(local index, jump size)`` list
    — bit-identical to the scalar reference loop — and ``writes`` the
    number of events the pass moved.
    """
    ranks = schedule.ranks
    jumps: dict[int, list[tuple[int, float]]] = {rank: [] for rank in ranks}
    hot = schedule.hot
    offsets = hot["offsets"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    src = hot["src"]
    elmin = edge_lmin[schedule.dep_edge_ids].tolist()

    corr, spont, stretch, land, settle = forward_recurrence(
        orig_flat,
        gamma,
        schedule.offsets[:-1][schedule.lengths > 0],
        np.concatenate([schedule.dep_src, schedule.dep_gids]),
    )
    spont_ptr = [bisect_left(spont, start) for start in offsets]
    njumps = 0
    max_jump = 0.0
    for rp, a, b, dep_lo, dep_hi in schedule.steps:
        rk_start = offsets[rp]
        jlist = jumps[ranks[rp]]
        k = spont_ptr[rp]
        e = dep_indptr[dep_lo]
        for di in range(dep_lo, dep_hi):
            p = dep_gids[di]
            if a < p:
                k = stretch(a, p, k)
            remote_floor = _NEG_INF
            estop = dep_indptr[di + 1]
            while e < estop:
                floor = corr[src[e]] + elmin[e]
                if floor > remote_floor:
                    remote_floor = floor
                e += 1
            jump = land(p, remote_floor)
            if jump:
                jlist.append((p - rk_start, jump))
                njumps += 1
                if jump > max_jump:
                    max_jump = jump
            a = p + 1
        spont_ptr[rp] = stretch(a, b, k) if a < b else k

    corrected, written = settle()
    return corrected, jumps, njumps, max_jump, len(written)


def send_caps_kernel(
    schedule: CompiledSchedule, corrected_flat: np.ndarray, edge_lmin: np.ndarray
) -> np.ndarray:
    """Per-event upper bound ``min(partner receive - l_min)`` (flat).

    One scatter-min over the edge table replaces the scalar reference's
    per-edge dict loop; ``min`` is exact, so the caps are bit-identical.
    """
    caps = np.full(schedule.n_events, np.inf, dtype=np.float64)
    recv = corrected_flat[schedule.e_dst]
    vals = recv - edge_lmin
    # Round-to-nearest can land ``recv - l_min`` above the true bound; an
    # event later advanced to that cap would sit one ulp past ``recv -
    # l_min`` and break the clock condition under exact comparison.
    # Nudge down until ``cap + l_min <= recv``.
    bad = vals + edge_lmin > recv
    while bad.any():
        vals[bad] = np.nextafter(vals[bad], -np.inf)
        bad = vals + edge_lmin > recv
    np.minimum.at(caps, schedule.e_src, vals)
    return caps


def lamport_kernel(schedule: CompiledSchedule) -> dict[int, np.ndarray]:
    """Lamport times for every event, bit-identical to the scalar pass.

    Int64 max-plus arithmetic is exact, so the per-rank closed form
    ``LC[i] = i + max(1, max_{p ≤ i}(B_p - p))`` (bases ``B_p`` at
    dependency-bearing events, combined by ``np.maximum.accumulate``)
    reproduces the event-by-event recurrence exactly; the Python loop
    runs only over dependency-bearing events.
    """
    hot = schedule.hot
    offsets = hot["offsets"]
    rank_deps = hot["rank_deps"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    # A source's running maximum is that of the last dependent of its
    # rank at or before it: slot ``excess[last]``, or the spare last
    # slot (never written, 1) when its rank has none that early.
    src_pos = schedule._rank_pos_of(schedule.dep_src)
    src_local = (schedule.dep_src - schedule.offsets[src_pos]).tolist()
    last = np.searchsorted(schedule.dep_gids, schedule.dep_src, side="right") - 1
    last = np.where(last >= schedule.rank_deps[src_pos], last, -1).tolist()
    excess = [1] * (len(dep_gids) + 1)

    for rp, _, _, dep_lo, dep_hi in schedule.steps:
        cur = excess[dep_lo - 1] if dep_lo > rank_deps[rp] else 1
        for di in range(dep_lo, dep_hi):
            pl = dep_gids[di] - offsets[rp]
            value = pl + cur
            for e in range(dep_indptr[di], dep_indptr[di + 1]):
                dep_value = src_local[e] + excess[last[e]] + 1
                if dep_value > value:
                    value = dep_value
            excess[di] = cur = max(cur, value - pl)

    out: dict[int, np.ndarray] = {}
    for rp, rank in enumerate(schedule.ranks):
        m_arr = np.ones(offsets[rp + 1] - offsets[rp], dtype=np.int64)
        lo, hi = rank_deps[rp], rank_deps[rp + 1]
        m_arr[schedule.dep_gids[lo:hi] - offsets[rp]] = excess[lo:hi]
        np.maximum.accumulate(m_arr, out=m_arr)
        out[rank] = np.arange(m_arr.size, dtype=np.int64) + m_arr
    return out


def vector_kernel(schedule: CompiledSchedule) -> dict[int, np.ndarray]:
    """Fidge/Mattern vector times, bit-identical to the scalar pass.

    Dependency-free stretches are filled with one broadcast assignment
    plus an ``arange`` on the rank's own component (exact in int64);
    the Python loop touches only dependency-bearing events.
    """
    nr = len(schedule.ranks)
    hot = schedule.hot
    offsets = hot["offsets"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    src = hot["src"]
    vectors = np.zeros((schedule.n_events, nr), dtype=np.int64)  # by gid
    zero = np.zeros(nr, dtype=np.int64)

    def fill_stretch(rp: int, cur: int, stop: int) -> None:
        if cur < stop:
            carry = vectors[cur - 1] if cur > offsets[rp] else zero
            vectors[cur:stop] = carry
            vectors[cur:stop, rp] = carry[rp] + np.arange(1, stop - cur + 1, dtype=np.int64)

    for rp, a, b, dep_lo, dep_hi in schedule.steps:
        for di in range(dep_lo, dep_hi):
            p = dep_gids[di]
            fill_stretch(rp, a, p)
            vec = (vectors[p - 1] if p > offsets[rp] else zero).copy()
            for e in range(dep_indptr[di], dep_indptr[di + 1]):
                np.maximum(vec, vectors[src[e]], out=vec)
            vec[rp] += 1
            vectors[p] = vec
            a = p + 1
        fill_stretch(rp, a, b)

    return schedule.split(vectors)


def bsp_rounds(schedule: CompiledSchedule) -> tuple[int, int]:
    """Bulk-synchronous replay statistics ``(rounds, max_queue)``.

    Simulates the round structure of the parallel replay — each rank
    advances per round until it blocks on a value produced in the same
    round — touching only dependency-bearing events.  Matches the
    event-by-event reference loop exactly because dependency-free
    events never block.
    """
    hot = schedule.hot
    offsets = hot["offsets"]
    rank_deps = hot["rank_deps"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    src = hot["src"]
    src_pos = hot["src_pos"]
    nr = len(schedule.ranks)

    produced = offsets[:nr]  # per rank: every gid below has been produced
    ptr = rank_deps[:nr]
    rounds = 0
    done = 0
    max_queue = 0
    while done < schedule.n_events:
        rounds += 1
        snapshot = list(produced)
        for rp in range(nr):
            k = ptr[rp]
            k_stop = rank_deps[rp + 1]
            while k < k_stop:
                # A same-rank source only has to precede the dependent;
                # a remote one must have been produced in an earlier round.
                q = dep_gids[k]
                if any(
                    src[e] >= (q if src_pos[e] == rp else snapshot[src_pos[e]])
                    for e in range(dep_indptr[k], dep_indptr[k + 1])
                ):
                    break
                k += 1
            ptr[rp] = k
            produced[rp] = dep_gids[k] if k < k_stop else offsets[rp + 1]
        in_flight = sum(produced) - sum(snapshot)
        if in_flight == 0:
            raise RuntimeError("replay stalled; trace dependency graph has a cycle")
        done += in_flight
        max_queue = max(max_queue, in_flight)
    return rounds, max_queue
