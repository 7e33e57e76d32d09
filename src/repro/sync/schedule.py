"""Array-native compilation of a trace's happened-before structure.

Every logical-clock algorithm in this package — Lamport and vector
clocks, the controlled logical clock, the naive Lamport shift, and the
replay decomposition — consumes the same two ingredients: the sparse
remote-dependency relation of :func:`repro.sync.order.dependency_edges`
and a happened-before-consistent processing order.  Deriving the order
per call through Python dicts keyed on ``(rank, idx)`` tuples dominated
the cost of trace correction (the `replay_schedule` Kahn generator plus
one dict lookup per event).

:class:`CompiledSchedule` performs that derivation **once** and stores
the result as flat numpy arrays:

* **global event ids** — rank ``ranks[i]``'s events occupy the gid range
  ``[offsets[i], offsets[i+1])``; every per-event array below is indexed
  by gid;
* **CSR dependency arrays** — ``indptr``/``indices`` give, per event,
  the gids of its remote happened-before predecessors (non-empty only
  for receives, collective exits, and custom constraints such as POMP);
  per-edge source/destination *rank ids* support vectorized ``l_min``
  resolution via :func:`repro.sync.violations.resolve_lmin`;
* **reverse (unblocks) CSR** — ``rev_indptr``/``rev_targets`` invert the
  relation (per source, the dependents it unblocks); the send-cap
  computation of the CLC backward pass is a single segmented
  ``np.minimum.reduceat`` over it;
* **a topological execution plan** — ``steps`` is a sequence of
  contiguous per-rank spans ``[start_gid, stop_gid)`` whose sequential
  execution respects every dependency, mirroring ``replay_schedule``'s
  Kahn traversal (same rank queue, same tie-breaking) but computed once;
  within a span only the *dependency-bearing* events need Python-level
  attention, which is what lets the kernels below run their per-event
  recurrences over jump events instead of all events.

The kernels (:func:`clc_forward`, :func:`send_caps_kernel`,
:func:`lamport_kernel`, :func:`vector_kernel`, :func:`bsp_rounds`) are
**bit-for-bit equivalent** to the scalar reference implementations that
remain in :mod:`repro.sync.clc`, :mod:`repro.sync.lamport`, and
:mod:`repro.sync.vector` as ``*_reference`` functions:

* integer kernels (Lamport, vector) use closed forms that are exact in
  int64 arithmetic;
* the float CLC recurrence ``LC'[i] = max(LC[i], LC'[i-1] + γ·δ[i])``
  is only evaluated — with exactly the reference's operation order —
  where it can deviate from the identity ``LC'[i] = LC[i]``: after a
  remote-constrained jump (until the γ-glide decays back onto the
  original timeline) and at the rare positions where
  ``LC[i-1] + γ·δ[i] > LC[i]`` holds spontaneously through rounding
  (detected by one vectorized pass).  Everywhere else the corrected
  timestamp provably equals the original bit pattern, so skipping the
  event is exact, not approximate.

Schedules are structure-only (no timestamps), so a compiled schedule is
valid for every timestamp correction of the same trace; ``Trace``
caches one per ``include_collectives`` flavor
(:meth:`repro.tracing.trace.Trace.compiled_schedule`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.order import EventRef, dependency_edges
from repro.sync.violations import LminSpec, resolve_lmin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports us lazily)
    from repro.tracing.trace import Trace

__all__ = [
    "CompiledSchedule",
    "clc_forward",
    "send_caps_kernel",
    "lamport_kernel",
    "vector_kernel",
    "bsp_rounds",
]

_NEG_INF = float("-inf")


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
        "indptr",
        "indices",
        "f_edge_ids",
        "rev_indptr",
        "rev_targets",
        "rev_edge_ids",
        "steps",
        "exec_dep_gids",
        "exec_dep_indptr",
        "exec_edge_ids",
        "exec_edge_src",
        "dep_pos_by_rank",
        "_hot",
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
        nr = len(self.ranks)
        self.lengths = np.array([len(trace.logs[r]) for r in self.ranks], dtype=np.int64)
        offsets = np.zeros(nr + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=offsets[1:])
        self.offsets = offsets
        n = int(offsets[-1])
        self.n_events = n

        # ---- edge arrays, in the order given ---------------------------
        dst_rank, dst_idx, src_rank, src_idx = edges
        e_dst = self._gids(dst_rank, dst_idx)
        e_src = self._gids(src_rank, src_idx)
        self.e_dst = e_dst
        self.e_src = e_src
        self.n_edges = e_dst.size
        self.edge_src_rank = src_rank
        self.edge_dst_rank = dst_rank

        # ---- forward CSR (dependent -> sources) ------------------------
        counts = np.bincount(e_dst, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        self.f_edge_ids = np.argsort(e_dst, kind="stable")
        self.indices = e_src[self.f_edge_ids]

        # ---- reverse (unblocks) CSR (source -> dependents) -------------
        rev_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(e_src, minlength=n), out=rev_indptr[1:])
        self.rev_indptr = rev_indptr
        self.rev_edge_ids = np.argsort(e_src, kind="stable")
        self.rev_targets = e_dst[self.rev_edge_ids]

        # ---- per-rank dependency-bearing event positions ---------------
        dep_gids = np.unique(e_dst)
        self.dep_pos_by_rank = [
            dep_gids[(dep_gids >= offsets[i]) & (dep_gids < offsets[i + 1])] - offsets[i]
            for i in range(nr)
        ]

        # ---- Kahn traversal -> execution plan --------------------------
        self._compile_steps(counts)
        self._hot = None
        self._topo = None

    def _gids(self, ranks: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Global ids of the ``(rank, local index)`` events."""
        return self.offsets[np.searchsorted(np.array(self.ranks, dtype=np.int64), ranks)] + idx

    def _rank_pos_of(self, gids: np.ndarray) -> np.ndarray:
        """Rank position (index into ``self.ranks``) of each gid."""
        return np.searchsorted(self.offsets, gids, side="right") - 1

    def _compile_steps(self, pending_counts: np.ndarray) -> None:
        """Kahn traversal mirroring ``replay_schedule``'s rank queue.

        Emits contiguous per-rank spans instead of single events; only
        dependency sources and dependency-bearing events get
        Python-level attention, so compilation is O(events) numpy +
        O(edges) Python.
        """
        nr = len(self.ranks)
        offsets = self.offsets.tolist()
        lengths = self.lengths.tolist()
        pending = pending_counts.tolist()
        rev_indptr = self.rev_indptr.tolist()
        rev_targets = self.rev_targets.tolist()
        rev_t_pos = (
            self._rank_pos_of(self.rev_targets).tolist() if self.n_edges else []
        )
        indptr = self.indptr
        f_edge_ids = self.f_edge_ids

        dep_lists = [arr.tolist() for arr in self.dep_pos_by_rank]
        src_gids = np.unique(self.e_src) if self.n_edges else self.e_src
        src_lists: list[list[int]] = [[] for _ in range(nr)]
        for pos, gid in zip(self._rank_pos_of(src_gids).tolist(), src_gids.tolist()):
            src_lists[pos].append(gid - offsets[pos])

        cursor = [0] * nr
        dep_ptr = [0] * nr
        src_ptr = [0] * nr
        ready: deque[int] = deque(rp for rp in range(nr) if lengths[rp] > 0)
        in_ready = [lengths[rp] > 0 for rp in range(nr)]

        steps: list[tuple[int, int, int, int, int]] = []
        exec_dep: list[int] = []
        exec_edge_parts: list[np.ndarray] = []
        exec_edge_counts: list[int] = []
        emitted = 0

        def unblock(rp: int, hi_local: int) -> None:
            """Process the unblock edges of rank ``rp``'s events below ``hi_local``."""
            sl = src_lists[rp]
            i = src_ptr[rp]
            nsl = len(sl)
            while i < nsl and sl[i] < hi_local:
                g = offsets[rp] + sl[i]
                for e in range(rev_indptr[g], rev_indptr[g + 1]):
                    t = rev_targets[e]
                    pending[t] -= 1
                    if pending[t] == 0:
                        trp = rev_t_pos[e]
                        if cursor[trp] == t - offsets[trp] and not in_ready[trp]:
                            ready.append(trp)
                            in_ready[trp] = True
                i += 1
            src_ptr[rp] = i

        while ready:
            rp = ready.popleft()
            in_ready[rp] = False
            start = cursor[rp]
            dep_lo = len(exec_dep)
            dl = dep_lists[rp]
            ndl = len(dl)
            while True:
                dp = dep_ptr[rp]
                nxt = dl[dp] if dp < ndl else lengths[rp]
                if nxt > cursor[rp]:  # dependency-free stretch
                    emitted += nxt - cursor[rp]
                    cursor[rp] = nxt
                    unblock(rp, nxt)
                if dp >= ndl:
                    break
                g = offsets[rp] + nxt
                if pending[g] != 0:
                    break  # blocked on a remote predecessor
                exec_dep.append(g)
                lo, hi = int(indptr[g]), int(indptr[g + 1])
                exec_edge_parts.append(f_edge_ids[lo:hi])
                exec_edge_counts.append(hi - lo)
                dep_ptr[rp] = dp + 1
                cursor[rp] = nxt + 1
                emitted += 1
                unblock(rp, nxt + 1)
            if cursor[rp] > start:
                steps.append(
                    (rp, offsets[rp] + start, offsets[rp] + cursor[rp], dep_lo, len(exec_dep))
                )

        if emitted != self.n_events:
            raise SynchronizationError(
                f"replay schedule incomplete ({emitted}/{self.n_events} events); "
                "the trace's happened-before graph has a cycle or dangling dependency"
            )

        self.steps = np.array(steps, dtype=np.int64).reshape(len(steps), 5)
        self.exec_dep_gids = np.array(exec_dep, dtype=np.int64)
        exec_dep_indptr = np.zeros(len(exec_dep) + 1, dtype=np.int64)
        np.cumsum(np.array(exec_edge_counts, dtype=np.int64), out=exec_dep_indptr[1:])
        self.exec_dep_indptr = exec_dep_indptr
        self.exec_edge_ids = (
            np.concatenate(exec_edge_parts)
            if exec_edge_parts
            else np.zeros(0, dtype=np.int64)
        )
        self.exec_edge_src = (
            self.e_src[self.exec_edge_ids] if self.n_edges else np.zeros(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Views and helpers
    # ------------------------------------------------------------------
    @property
    def hot(self) -> dict:
        """Python-list mirrors of the arrays read scalar-wise in kernels."""
        if self._hot is None:
            self._hot = {
                "offsets": self.offsets.tolist(),
                "steps": [tuple(row) for row in self.steps.tolist()],
                "dep_gids": self.exec_dep_gids.tolist(),
                "dep_indptr": self.exec_dep_indptr.tolist(),
                "edge_src": self.exec_edge_src.tolist(),
                "dep_pos": self._rank_pos_of(self.exec_dep_gids).tolist()
                if self.exec_dep_gids.size
                else [],
                "edge_src_pos": self._rank_pos_of(self.exec_edge_src).tolist()
                if self.exec_edge_src.size
                else [],
            }
        return self._hot

    def topo_gids(self) -> np.ndarray:
        """Every event's gid in compiled (replay) order."""
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
# Kernels
# ----------------------------------------------------------------------
def _spont_positions(
    schedule: CompiledSchedule, orig_flat: np.ndarray, gd: np.ndarray | None
) -> list[list[int]]:
    """Per-rank positions where the local recurrence binds spontaneously.

    For the CLC, position ``i`` can deviate from the identity even in
    steady state (``LC'[i-1] == LC[i-1]``) when rounding makes
    ``LC[i-1] + γ·δ[i] > LC[i]``; for the naive shift the condition is a
    locally unsorted log (``LC[i-1] > LC[i]``).  One vectorized pass
    finds them all, which is what licenses skipping every other
    non-dependency event.
    """
    n = orig_flat.size
    nr = len(schedule.ranks)
    if n < 2:
        return [[] for _ in range(nr)]
    mask = np.zeros(n, dtype=bool)
    if gd is None:
        mask[1:] = orig_flat[:-1] > orig_flat[1:]
    else:
        mask[1:] = (orig_flat[:-1] + gd[1:]) > orig_flat[1:]
    starts = schedule.offsets[:-1]
    mask[starts[starts < n]] = False  # first event of a rank has no predecessor
    positions = np.nonzero(mask)[0]
    bounds = np.searchsorted(positions, schedule.offsets)
    return [
        positions[bounds[i] : bounds[i + 1]].tolist() for i in range(nr)
    ]


def clc_forward(
    schedule: CompiledSchedule,
    orig_flat: np.ndarray,
    edge_lmin: np.ndarray,
    gamma: float | None,
) -> tuple[np.ndarray, dict[int, list[tuple[int, float]]], int, float]:
    """Forward pass of the CLC (``gamma`` set) or naive shift (``None``).

    Returns ``(corrected_flat, jumps, njumps, max_jump)`` with ``jumps``
    mapping each rank to its ``(local index, jump size)`` list —
    bit-identical to the scalar reference loop.
    """
    n = orig_flat.size
    jumps: dict[int, list[tuple[int, float]]] = {rank: [] for rank in schedule.ranks}
    if n == 0:
        return orig_flat.copy(), jumps, 0, 0.0

    if gamma is None:
        gd_arr = None
        gdl = None
    else:
        gd_arr = np.zeros(n, dtype=np.float64)
        if n > 1:
            gd_arr[1:] = gamma * (orig_flat[1:] - orig_flat[:-1])
        gdl = gd_arr.tolist()

    spont = _spont_positions(schedule, orig_flat, gd_arr)
    spont_ptr = [0] * len(spont)

    hot = schedule.hot
    offsets = hot["offsets"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    edge_src = hot["edge_src"]
    exec_elmin = (
        edge_lmin[schedule.exec_edge_ids].tolist() if schedule.n_edges else []
    )

    origl = orig_flat.tolist()
    corr = list(origl)
    ranks = schedule.ranks
    njumps = 0
    max_jump = 0.0

    if gamma is None:

        def run_tail(i: int, stop: int) -> int:
            while i < stop:
                follow = corr[i - 1]
                if follow > origl[i]:
                    corr[i] = follow
                    i += 1
                else:
                    break
            return i

    else:

        def run_tail(i: int, stop: int) -> int:
            while i < stop:
                follow = corr[i - 1] + gdl[i]
                if follow > origl[i]:
                    corr[i] = follow
                    i += 1
                else:
                    break
            return i

    def do_stretch(cur: int, stop: int, rk_start: int, rp: int) -> None:
        if cur >= stop:
            return
        if cur > rk_start and corr[cur - 1] > origl[cur - 1]:
            cur = run_tail(cur, stop)
        sp = spont[rp]
        k = spont_ptr[rp]
        nsp = len(sp)
        while k < nsp and sp[k] < stop:
            s = sp[k]
            k += 1
            if s < cur:
                continue
            corr[s] = corr[s - 1] + gdl[s] if gdl is not None else corr[s - 1]
            cur = run_tail(s + 1, stop)
        spont_ptr[rp] = k

    # Steps visit dep events 0..D-1 in ascending order, so one running
    # pointer walks the exec edge arrays without per-event indptr reads.
    eptr = 0
    for rp, a, b, dep_lo, dep_hi in hot["steps"]:
        rk_start = offsets[rp]
        jlist = jumps[ranks[rp]]
        cur = a
        for di in range(dep_lo, dep_hi):
            p = dep_gids[di]
            if p > cur:
                do_stretch(cur, p, rk_start, rp)
            value = origl[p]
            if p > rk_start:
                follow = corr[p - 1] + gdl[p] if gdl is not None else corr[p - 1]
                if follow > value:
                    value = follow
            remote_floor = _NEG_INF
            estop = dep_indptr[di + 1]
            while eptr < estop:
                floor = corr[edge_src[eptr]] + exec_elmin[eptr]
                if floor > remote_floor:
                    remote_floor = floor
                eptr += 1
            if remote_floor > value:
                jump = remote_floor - value
                value = remote_floor
                jlist.append((p - rk_start, jump))
                njumps += 1
                if jump > max_jump:
                    max_jump = jump
            corr[p] = value
            cur = p + 1
        do_stretch(cur, b, rk_start, rp)

    return np.asarray(corr, dtype=np.float64), jumps, njumps, max_jump


def send_caps_kernel(
    schedule: CompiledSchedule, corrected_flat: np.ndarray, edge_lmin: np.ndarray
) -> np.ndarray:
    """Per-event upper bound ``min(partner receive - l_min)`` (flat).

    One segmented scatter-min over the reverse CSR replaces the scalar
    reference's per-edge dict loop; ``min`` is exact, so the caps are
    bit-identical.
    """
    caps = np.full(schedule.n_events, np.inf, dtype=np.float64)
    if schedule.n_edges:
        recv = corrected_flat[schedule.rev_targets]
        lm = edge_lmin[schedule.rev_edge_ids]
        vals = recv - lm
        # Round-to-nearest can land ``recv - l_min`` above the true
        # bound; an event later advanced to that cap would sit one ulp
        # past ``recv - l_min`` and break the clock condition under
        # exact comparison.  Nudge down until ``cap + l_min <= recv``.
        bad = vals + lm > recv
        while bad.any():
            vals[bad] = np.nextafter(vals[bad], -np.inf)
            bad = vals + lm > recv
        degrees = np.diff(schedule.rev_indptr)
        sources = np.nonzero(degrees > 0)[0]
        caps[sources] = np.minimum.reduceat(vals, schedule.rev_indptr[sources])
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
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    edge_src = hot["edge_src"]
    dep_pos = hot["dep_pos"]
    edge_src_pos = hot["edge_src_pos"]

    nr = len(schedule.ranks)
    cur_m = [1] * nr
    base_pos: list[list[int]] = [[] for _ in range(nr)]
    base_val: list[list[int]] = [[] for _ in range(nr)]

    for di in range(len(dep_gids)):
        rp = dep_pos[di]
        pl = dep_gids[di] - offsets[rp]
        value = pl + cur_m[rp] if pl > 0 else 1
        for e in range(dep_indptr[di], dep_indptr[di + 1]):
            srp = edge_src_pos[e]
            sl = edge_src[e] - offsets[srp]
            bp = base_pos[srp]
            k = bisect_right(bp, sl)
            m_src = base_val[srp][k - 1] if k else 1
            dep_value = sl + m_src + 1
            if dep_value > value:
                value = dep_value
        cand = value - pl
        if cand > cur_m[rp]:
            cur_m[rp] = cand
        base_pos[rp].append(pl)
        base_val[rp].append(cur_m[rp])

    out: dict[int, np.ndarray] = {}
    for rp, rank in enumerate(schedule.ranks):
        n_r = int(schedule.lengths[rp])
        m_arr = np.ones(n_r, dtype=np.int64)
        if base_pos[rp]:
            m_arr[np.array(base_pos[rp], dtype=np.int64)] = np.array(
                base_val[rp], dtype=np.int64
            )
            np.maximum.accumulate(m_arr, out=m_arr)
        out[rank] = np.arange(n_r, dtype=np.int64) + m_arr if n_r else m_arr
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
    edge_src = hot["edge_src"]
    edge_src_pos = hot["edge_src_pos"]

    mats = [
        np.zeros((int(schedule.lengths[rp]), nr), dtype=np.int64) for rp in range(nr)
    ]

    def fill_stretch(rp: int, cur: int, stop: int) -> None:
        if cur >= stop:
            return
        arr = mats[rp]
        carry = arr[cur - 1] if cur > 0 else np.zeros(nr, dtype=np.int64)
        arr[cur:stop] = carry
        arr[cur:stop, rp] = carry[rp] + np.arange(1, stop - cur + 1, dtype=np.int64)

    for rp, a, b, dep_lo, dep_hi in hot["steps"]:
        rk_start = offsets[rp]
        cur = a - rk_start
        stop = b - rk_start
        arr = mats[rp]
        for di in range(dep_lo, dep_hi):
            pl = dep_gids[di] - rk_start
            fill_stretch(rp, cur, pl)
            vec = (
                arr[pl - 1].copy() if pl > 0 else np.zeros(nr, dtype=np.int64)
            )
            for e in range(dep_indptr[di], dep_indptr[di + 1]):
                srp = edge_src_pos[e]
                sl = edge_src[e] - offsets[srp]
                np.maximum(vec, mats[srp][sl], out=vec)
            vec[rp] += 1
            arr[pl] = vec
            cur = pl + 1
        fill_stretch(rp, cur, stop)

    return {rank: mats[rp] for rp, rank in enumerate(schedule.ranks)}


def bsp_rounds(schedule: CompiledSchedule) -> tuple[int, int]:
    """Bulk-synchronous replay statistics ``(rounds, max_queue)``.

    Simulates the round structure of the parallel replay — each rank
    advances per round until it blocks on a value produced in the same
    round — touching only dependency-bearing events.  Matches the
    event-by-event reference loop exactly because dependency-free
    events never block.
    """
    nr = len(schedule.ranks)
    offsets = schedule.offsets.tolist()
    lengths = schedule.lengths.tolist()
    total = schedule.n_events
    indptr = schedule.indptr
    f_src = schedule.indices.tolist()
    f_src_pos = (
        schedule._rank_pos_of(schedule.indices).tolist() if schedule.n_edges else []
    )
    indptr_l = indptr.tolist()
    dep_lists = [arr.tolist() for arr in schedule.dep_pos_by_rank]

    produced = [0] * nr
    ptr = [0] * nr
    rounds = 0
    done = 0
    max_queue = 0
    while done < total:
        rounds += 1
        snapshot = list(produced)
        progressed = 0
        for rp in range(nr):
            idx = produced[rp]
            dl = dep_lists[rp]
            k = ptr[rp]
            ndl = len(dl)
            while True:
                if k >= ndl:
                    idx = lengths[rp]
                    break
                q = dl[k]
                g = offsets[rp] + q
                available = True
                for e in range(indptr_l[g], indptr_l[g + 1]):
                    srp = f_src_pos[e]
                    sl = f_src[e] - offsets[srp]
                    if srp == rp:
                        if not sl < q:
                            available = False
                            break
                    elif not sl < snapshot[srp]:
                        available = False
                        break
                if not available:
                    idx = q
                    break
                k += 1
                idx = q + 1
            ptr[rp] = k
            progressed += idx - produced[rp]
            produced[rp] = idx
        done += progressed
        in_flight = sum(produced[i] - snapshot[i] for i in range(nr))
        if in_flight > max_queue:
            max_queue = in_flight
        if progressed == 0:
            raise RuntimeError("replay stalled; trace dependency graph has a cycle")
    return rounds, max_queue
