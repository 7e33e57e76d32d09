"""Array-native compilation of a trace's happened-before structure.

Every logical-clock algorithm in this package — Lamport and vector
clocks, the controlled logical clock, the naive Lamport shift, and the
replay decomposition — consumes the same two ingredients: the sparse
remote-dependency relation (messages, and collectives by the flavor rule
of :mod:`repro.sync.collectives_map`) and a happened-before-consistent
processing order.

:class:`CompiledSchedule` derives both **once** and stores them as flat
numpy arrays:

* **global event ids** — rank ``ranks[i]``'s events occupy the gid range
  ``[offsets[i], offsets[i+1])``;
* **the edge table** — ``e_dst``/``e_src`` (gids) and
  ``edge_dst_rank``/``edge_src_rank`` (rank ids, for vectorized ``l_min``
  resolution via :func:`repro.sync.violations.resolve_lmin`), one entry
  per edge in the order given: messages and the pairs of rooted (1-to-N,
  N-to-1) collectives;
* **the blocks** — every N-to-N and prefix collective instance of two or
  more members (:func:`repro.sync.collectives_map.collective_constraints`)
  as its members' enter and exit gids, ``b_enter``/``b_exit`` (rank ids
  in ``b_rank``), block ``b`` owning member slots
  ``b_indptr[b]:b_indptr[b + 1]``.  Slot ``s``'s exit depends on the
  enters of slots ``[b_lo[s], b_need[s])`` — the whole block for N-to-N
  (the own enter precedes the exit in its log, so it changes nothing),
  the lower members for prefix.  An instance of ``n`` members costs
  ``n`` slots, not the ``n·(n-1)`` edges of the pair expansion;
* **a compact forward CSR** — ``dep_gids`` lists the dependency-bearing
  events (receives, collective exits, custom constraints such as POMP)
  ascending by gid, ``dep_indptr`` delimits their edge-table sources in
  ``dep_src`` (gids; ``dep_edge_ids`` names the edge-table row behind
  each slot, sources in the order given), ``dep_slot`` names a block
  exit's member slot (``-1`` elsewhere), and rank ``i``'s dependents
  are the contiguous range ``rank_deps[i]:rank_deps[i+1]``.  Nothing is
  indexed by event: a million dependency-free events cost nothing here;
* **an execution plan** — ``steps`` is a sequence of per-rank spans
  ``(rank position, start gid, stop gid, first dependent, stop
  dependent)`` whose sequential execution respects every dependency.
  :func:`cursor_walk` finds it the way the streaming CLC orders itself
  (:mod:`repro.sync.streaming`): each rank advances until a source is
  not yet done, sleeps on that source, and is woken when it is.  A
  block is a barrier: a shared per-block counter of the members whose
  enter is done is advanced by whichever exit looks first, so a block
  costs ``O(n)`` checks however many of its exits wait.  The forward
  pass is deterministic dataflow, so *any* valid order yields the same
  bits; this one is not ``replay_schedule``'s.

The kernels (:func:`clc_forward`, :func:`send_caps_kernel`,
:func:`lamport_kernel`, :func:`vector_kernel`, :func:`bsp_rounds`) are
**bit-for-bit equivalent** to the scalar reference implementations that
remain in :mod:`repro.sync.clc`, :mod:`repro.sync.lamport`, and
:mod:`repro.sync.vector` as ``*_reference`` functions:

* integer kernels (Lamport, vector) use closed forms that are exact in
  int64 arithmetic;
* a block's floors are reductions over its members
  (:func:`block_floors`): one top-2 scan gives every N-to-N exit the
  largest ``LC'(enter_j) + l_min`` over the *other* members (one
  members × members array op when ``l_min`` differs per pair), and a
  prefix exit takes one column op over the lower members.  Each addition is the pair edge's own, and
  the tie rule is the dense loop's ``if floor > remote_floor``: among
  equal floors (``-0.0`` and ``+0.0`` included) the first sender in
  member order binds, and a NaN floor never binds.  Send caps take the
  mirrored ``min`` with ``np.minimum.at``'s rule (the last receiver
  among equal caps wins, a NaN propagates);
* the float CLC recurrence ``LC'[i] = max(LC[i], LC'[i-1] + γ·δ[i])``
  lives in :func:`forward_recurrence`, shared with the streaming CLC,
  and is only evaluated — with exactly the reference's operation order
  — where it can deviate from the identity ``LC'[i] = LC[i]``: after a
  remote-constrained jump (until the γ-glide decays back onto the
  original timeline) and at the rare positions where
  ``LC[i-1] + γ·δ[i] > LC[i]`` holds spontaneously through rounding
  (detected by one vectorized pass).  Everywhere else the corrected
  timestamp provably equals the original bit pattern, so skipping the
  event is exact, not approximate.  So is landing only the dependents
  that can bind, as the streaming CLC does (50 of 31,250 receives on
  the 2 × 500k benchmark trace, 12,268 of 26,400 dependents on POP).
  The original stamps therefore stay a numpy array: corrections live
  in an overlay that holds Python floats only for the events the pass
  reads or moves, and the result is the original array with the moved
  events scattered in — the pass costs what binds and moves, not the log.

Schedules are structure-only (no timestamps), so a compiled schedule is
valid for every timestamp correction of the same trace; ``Trace``
caches one per ``include_collectives`` flavor
(:meth:`repro.tracing.trace.Trace.compiled_schedule`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.collectives_map import CollectiveBlocks, collective_constraints
from repro.sync.order import EventRef, dependency_edges
from repro.sync.violations import LminSpec, resolve_lmin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports us lazily)
    from repro.tracing.trace import Trace

__all__ = [
    "CompiledSchedule",
    "EdgeLmin",
    "cursor_walk",
    "block_entered",
    "block_lmin",
    "block_floors",
    "forward_recurrence",
    "clc_forward",
    "send_caps_kernel",
    "lamport_kernel",
    "vector_kernel",
    "bsp_rounds",
]

_NEG_INF = float("-inf")


def block_entered(
    b_lo: Sequence[int], is_entered: Callable[[int], bool]
) -> tuple[list[int], Callable[[int, int], int]]:
    """Per block, the count of its leading slots whose enter is done.

    Returns ``(count, extend)``: ``count[lo]`` (``lo`` a block's first
    slot) starts at ``lo``, and ``extend(lo, need)`` moves it past every
    slot below ``need`` that ``is_entered`` accepts, up to the first it
    refuses, and returns it — the first missing slot of ``[lo, need)``,
    or ``need``.  Exits of one block share the count, so however many
    of them ask, every slot is accepted once.
    """
    count = list(b_lo)

    def extend(lo: int, need: int) -> int:
        v = count[lo]
        while v < need and is_entered(v):
            v += 1
        count[lo] = v
        return v

    return count, extend


def cursor_walk(
    offsets: Sequence[int],
    rank_deps: Sequence[int],
    dep_gids: Sequence[int],
    dep_indptr: Sequence[int],
    src: Sequence[int],
    src_pos: Sequence[int],
    dep_slot: Sequence[int],
    b_lo: Sequence[int],
    b_need: Sequence[int],
    b_enter: Sequence[int],
    b_pos: Sequence[int],
) -> tuple[list[tuple[int, int, int, int, int]], list[int], int]:
    """A happened-before-consistent execution plan, by structure alone.

    Arguments are the list mirrors of a :class:`CompiledSchedule`'s
    compact CSR and blocks (``src_pos``/``b_pos`` are the rank positions
    of the ``src``/``b_enter`` gids).  Every rank keeps a cursor; a visit
    moves it over dependency-free events and over each dependent whose
    sources all lie behind their own rank's cursor, and ends at the
    first source that does not.  The rank then sleeps in that source
    rank's heap, keyed by the awaited gid, is woken only once the cursor
    there has passed it, and resumes its source scan behind the edge it
    slept on: every edge is checked once, a sleep costs
    ``O(log ranks)``, nothing is polled.  A block exit's sources are the
    enters of slots ``[b_lo, b_need)``.  The block keeps the count of its
    leading slots known to have entered (:func:`block_entered`); an exit that finds its range
    incomplete parks on the block, and only the block sleeps, on its
    first missing enter — woken, it extends the count and releases the
    exits it now covers, so a block costs ``O(n log n)`` however its
    exits arrive.

    Returns ``(steps, cursors, checks)``: the visits that moved a cursor
    as ``(rank position, start gid, stop gid, first dependent, stop
    dependent)``, each rank's final cursor (short of ``offsets[i + 1]``
    where a cycle left it asleep), and the number of edge and block
    member checks made.
    """
    nr = len(offsets) - 1
    done = list(offsets[:nr])  # per rank: every gid below has been scheduled
    dep = list(rank_deps[:nr])  # per rank: its next dependent
    edge = [dep_indptr[d] for d in dep]  # per rank: the next source to check
    entered, extend = block_entered(b_lo, lambda v: b_enter[v] < done[b_pos[v]])
    parked: dict[int, list] = {}  # watched block -> [heap of (need, rank), largest need]
    # Keyed by the awaited gid: a rank, or ``~first slot`` for a block.
    asleep: list[list[tuple[int, int]]] = [[] for _ in range(nr)]
    ready = deque(range(nr))
    wake, push, pop = ready.append, heappush, heappop
    steps = []
    checks = 0

    def advance(lo: int, need: int) -> int:
        nonlocal checks
        was = entered[lo]
        v = extend(lo, need)
        checks += v - was + (v < need)
        return v

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
                push(asleep[src_pos[e]], (src[e], rp))
                e += 1
                break
            s = dep_slot[d]
            if s >= 0:
                lo, need = b_lo[s], b_need[s]
                if entered[lo] < need and advance(lo, need) < need:
                    waiting = parked.get(lo)
                    if waiting is None:
                        waiting = parked[lo] = [[], need]
                        v = entered[lo]
                        push(asleep[b_pos[v]], (b_enter[v], ~lo))
                    elif need > waiting[1]:
                        waiting[1] = need
                    push(waiting[0], (need, rp))
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
                who = pop(sleepers)[1]
                if who >= 0:
                    wake(who)
                    continue
                heap, bound = parked[~who]
                v = advance(~who, bound)
                while heap and heap[0][0] <= v:
                    wake(pop(heap)[1])
                if heap:
                    push(asleep[b_pos[v]], (b_enter[v], who))
                else:
                    del parked[~who]
    return steps, done, checks


class EdgeLmin(NamedTuple):
    """A latency spec resolved against one schedule (:meth:`CompiledSchedule.edge_lmin`).

    ``rows`` holds one ``l_min`` per edge-table row; ``blocks`` is the
    spec's one value when it is a number, else :func:`block_lmin`'s
    per-slot matrices.
    """

    rows: np.ndarray
    blocks: Union[float, list]


def block_lmin(lmin: LminSpec, indptr: np.ndarray, ranks: np.ndarray) -> Union[float, list]:
    """``l_min`` between the members of every block.

    A number stays one number (every pair's ``l_min``).  A matrix or a
    callable gives, per member slot, its block's ``(n, n)`` matrix
    ``[sender position, receiver position]`` — one
    :func:`repro.sync.violations.resolve_lmin` call over every block, so
    each entry is the value the pair's edge would carry.
    """
    if not (callable(lmin) or isinstance(lmin, np.ndarray)):
        return float(lmin)
    sizes = np.diff(indptr).tolist()
    if not sizes:
        return []
    blocks = [ranks[lo:hi] for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    flat = resolve_lmin(
        lmin,
        np.concatenate([np.repeat(r, r.size) for r in blocks]),
        np.concatenate([np.tile(r, r.size) for r in blocks]),
    )
    cuts = np.cumsum([n * n for n in sizes])[:-1]
    return [
        m.reshape(n, n) for m, n in zip(np.split(flat, cuts), sizes) for _ in range(n)
    ]


def _first_max(sums: np.ndarray) -> np.ndarray:
    """Per column of ``[sender, receiver]`` sums, the dense loop's floor.

    The first row among the largest wins (``-0.0`` against ``+0.0``
    included) and a NaN never does: ``argmax`` after NaN becomes
    ``-inf``, the value a column of NaNs leaves the loop at.
    """
    sums = np.where(np.isnan(sums), _NEG_INF, sums)
    return sums[sums.argmax(axis=0), np.arange(sums.shape[1])]


def block_floors(
    b_lo: Sequence[int],
    b_need: Sequence[int],
    lmin: Union[float, int, list],
    enters: Callable[[int, int], list],
) -> Callable[[int], float]:
    """``floor(s)``: the largest ``LC'(enter_t) + l_min(t, s)`` over slot ``s``'s sources.

    ``b_lo``/``b_need`` are a :class:`CompiledSchedule`'s block columns
    (or the streaming CLC's, laid out alike), ``lmin`` is
    :func:`block_lmin`'s, and ``enters(lo, hi)`` lists the corrected
    stamps of slots ``lo..hi-1``'s enters — asked only behind
    ``b_need[s]``, where the walk guarantees they are final.  A prefix
    exit takes one column op over the lower members.  An N-to-N block is
    reduced once, the first time one of its exits asks: by one members ×
    members array op, or with one ``l_min`` by a top-2 scan (the exit of
    the largest sender gets the runner-up).  The scan is kept because it
    pays: with the array op alone (``l_min`` broadcast into ``sums``) the
    ``inmem_jumpdense`` benchmark (600 sixteen-member blocks) ran at
    0.74 M against 0.86 M events/s, median of 8 alternating launches.
    The tie rule is the dense loop's (see the module docstring), so
    every floor has the bits of ``max`` over the exit's pair edges.
    """
    out: list = [None] * len(b_lo)
    per_pair = isinstance(lmin, list)

    def floor(s: int) -> float:
        value = out[s]
        if value is not None:
            return value
        lo, need = b_lo[s], b_need[s]
        if need <= s:  # prefix: the lower members
            column = lmin[s][: need - lo, s - lo] if per_pair else lmin
            sums = np.array(enters(lo, need), dtype=np.float64) + column
            out[s] = float(_first_max(sums[:, None])[0])
        elif per_pair:  # N-to-N: every exit of the block at once
            sums = np.array(enters(lo, need), dtype=np.float64)[:, None] + lmin[s]
            np.fill_diagonal(sums, _NEG_INF)
            out[lo:need] = _first_max(sums).tolist()
        else:
            best = second = _NEG_INF
            top = -1
            for t, x in enumerate(enters(lo, need), lo):
                v = x + lmin
                if v > best:
                    best, second, top = v, best, t
                elif v > second:
                    second = v
            out[lo:need] = [best] * (need - lo)
            if top >= 0:
                out[top] = second
        return out[s]

    return floor


class CompiledSchedule:
    """One-shot array compilation of a trace's happened-before structure.

    Build via :meth:`from_trace` (message + collective constraints, the
    standard relation) or :meth:`from_dependencies` (any explicit
    constraint dict, e.g. POMP semantics, compiled as edges only).
    Instances are immutable and timestamp-independent; see the module
    docstring for the layout.
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
        "n_blocks",
        "b_indptr",
        "b_prefix",
        "b_rank",
        "b_enter",
        "b_exit",
        "dep_gids",
        "dep_indptr",
        "dep_edge_ids",
        "dep_src",
        "dep_slot",
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
        """Compile the standard message/collective happened-before relation.

        Messages and rooted collective pairs become edges, N-to-N and
        prefix instances blocks (:func:`collective_constraints`).
        """
        edges = [dependency_edges(trace, include_collectives=False)]
        blocks = None
        if include_collectives:
            table = trace.collectives()
            (receivers, senders), found = collective_constraints(table)
            edges.append((
                table.ranks[receivers], table.exit_idx[receivers],
                table.ranks[senders], table.enter_idx[senders],
            ))
            members = found.members
            columns = (table.ranks, table.enter_idx, table.exit_idx)
            blocks = (found, *(column[members] for column in columns))
        return cls(trace, tuple(np.concatenate(column) for column in zip(*edges)), blocks)

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
        blocks: Optional[tuple] = None,
    ) -> None:
        """``edges`` is ``(dst_rank, dst_idx, src_rank, src_idx)``, one entry per edge,
        each naming an event of ``trace`` (:meth:`from_dependencies` checks a dict's);
        ``blocks`` is ``(CollectiveBlocks, rank, enter_idx, exit_idx)``, the blocks
        and their members' columns (:meth:`from_trace`)."""
        self.ranks = trace.ranks
        self.lengths = np.array([len(trace.logs[r]) for r in self.ranks], dtype=np.int64)
        offsets = np.zeros(len(self.ranks) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=offsets[1:])
        self.offsets = offsets
        self.n_events = int(offsets[-1])
        rank_ids = np.array(self.ranks, dtype=np.int64)

        # ---- edge table, in the order given ----------------------------
        dst_rank, dst_idx, src_rank, src_idx = edges
        src_pos = np.searchsorted(rank_ids, src_rank)
        self.e_dst = e_dst = offsets[np.searchsorted(rank_ids, dst_rank)] + dst_idx
        self.e_src = offsets[src_pos] + src_idx
        self.n_edges = e_dst.size
        self.edge_src_rank = src_rank
        self.edge_dst_rank = dst_rank

        # ---- blocks ----------------------------------------------------
        if blocks is None:
            none = np.zeros(0, dtype=np.int64)
            blocks = (CollectiveBlocks(none, np.zeros(1, dtype=np.int64), none.astype(bool)),
                      none, none, none)
        found, self.b_rank, enter_idx, exit_idx = blocks
        self.b_indptr, self.b_prefix = found.indptr, found.prefix
        self.n_blocks = self.b_prefix.size
        b_pos = np.searchsorted(rank_ids, self.b_rank)
        self.b_enter = offsets[b_pos] + enter_idx
        self.b_exit = offsets[b_pos] + exit_idx
        b_lo, b_need = found.sources()
        bound = np.flatnonzero(b_need > b_lo)  # a prefix block's first exit waits for nobody

        # ---- compact forward CSR (dependent -> sources) ----------------
        self.dep_edge_ids = by_dst = np.argsort(e_dst, kind="stable")
        dst_sorted = e_dst[by_dst]
        dependents = np.sort(np.append(dst_sorted, self.b_exit[bound]), kind="stable")
        self.dep_gids = dependents[np.flatnonzero(np.diff(dependents, prepend=-1))]
        self.dep_indptr = np.append(np.searchsorted(dst_sorted, self.dep_gids), self.n_edges)
        self.dep_src = self.e_src[by_dst]
        self.dep_slot = np.full(self.dep_gids.size, -1, dtype=np.int64)
        self.dep_slot[np.searchsorted(self.dep_gids, self.b_exit[bound])] = bound
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
            "dep_slot": self.dep_slot.tolist(),
            "b_lo": b_lo.tolist(),
            "b_need": b_need.tolist(),
            "b_enter": self.b_enter.tolist(),
            "b_pos": b_pos.tolist(),
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

    def edge_lmin(self, lmin: LminSpec) -> EdgeLmin:
        """The minimum-latency floor of every constraint: edge rows and blocks.

        Reuses :func:`repro.sync.violations.resolve_lmin`, so callables
        are evaluated once per unique rank pair and matrices are indexed
        by actual rank ids — float-identical to the scalar
        :func:`repro.sync.violations.pair_lmin` of the reference
        implementation.  Blocks get :func:`block_lmin`'s form.
        """
        rows = np.zeros(0, dtype=np.float64)
        if self.n_edges:
            rows = resolve_lmin(lmin, self.edge_src_rank, self.edge_dst_rank)
        return EdgeLmin(rows, block_lmin(lmin, self.b_indptr, self.b_rank))

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
    bytearray,
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
    are the positions the caller reads from ``corr`` directly.

    Returns ``(corr, moved, spont, stretch, land, settle)``.  ``corr`` is an
    overlay: ``None`` except at ``reads`` (filled from ``orig``) and at the
    moved events, set in the bytemap ``moved`` (any other keeps ``orig``),
    so what the pass costs in Python follows the dependencies and the moved
    events, not the log length.  A caller whose window continues a log keeps
    the carried predecessor in the slot before it (``orig[0]`` its original
    stamp) and lands that slot on its corrected stamp: ``land(0, carried)``.
    ``spont`` lists, ascending, the positions where the follow rule binds
    although the predecessor did not move — ``LC[i-1] + γ·δ[i] > LC[i]``
    through rounding (CLC) or a locally unsorted log (naive shift) — found
    in one vectorized pass.  Off those positions the rule binds only behind
    a moved event, which is what licenses skipping every event whose
    predecessor kept its stamp.

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

    Both drivers (:func:`clc_forward`, streaming's ``ShardSweeps._forward``)
    land only a collective exit or a dependent with an own-rank source, a
    binding input floor (largest ``orig[source] + l_min`` above ``orig[p]``)
    or a moved source; any other is a plain event of a ``stretch``, exactly:
    its floor is the input floor, at most ``orig[p]`` or NaN, so ``land`` —
    which starts from ``orig[p]`` and takes the follow value where the rule
    can bind and it is larger — finds no jump and moves ``p`` iff the follow
    value exceeds ``orig[p]``, as the glide ``tail`` does.
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
        value = before = orig_at[p]
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

    return corr, moved, spont, stretch, land, settle


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _bound_dependents(schedule: CompiledSchedule, orig: np.ndarray, elmin: np.ndarray) -> np.ndarray:
    """Per dependent, whether it lands whatever moved: a block exit, an own-rank
    source, or a binding input floor (``fmax``: a NaN floor never binds)."""
    bound = schedule.dep_slot >= 0
    starts = schedule.dep_indptr[:-1]
    has = np.flatnonzero(schedule.dep_indptr[1:] > starts)
    if has.size:
        at, eids = starts[has], schedule.dep_edge_ids
        floors = np.fmax.reduceat(orig[schedule.dep_src] + elmin, at)
        own = schedule.edge_src_rank[eids] == schedule.edge_dst_rank[eids]
        bound[has] |= (floors > orig[schedule.dep_gids[has]]) | np.logical_or.reduceat(own, at)
    return bound


def clc_forward(
    schedule: CompiledSchedule,
    orig_flat: np.ndarray,
    edge_lmin: EdgeLmin,
    gamma: float | None,
) -> tuple[np.ndarray, dict[int, list[tuple[int, float]]], int, float, int, int]:
    """Forward pass of the CLC (``gamma`` set) or naive shift (``None``).

    Returns ``(corrected_flat, jumps, njumps, max_jump, writes, lands)``
    with ``jumps`` mapping each rank to its ``(local index, jump size)``
    list — bit-identical to the scalar reference loop — ``writes`` the
    number of events the pass moved and ``lands`` the number of
    dependents it landed: those that can bind (:func:`forward_recurrence`).
    A step starts with every other rank's source final (:func:`cursor_walk`).
    """
    ranks = schedule.ranks
    jumps: dict[int, list[tuple[int, float]]] = {rank: [] for rank in ranks}
    hot = schedule.hot
    offsets = hot["offsets"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    src = hot["src"]
    dep_slot = hot["dep_slot"]
    b_enter = hot["b_enter"]
    elmin = edge_lmin.rows[schedule.dep_edge_ids]
    bound = _bound_dependents(schedule, orig_flat, elmin)
    bound_at, bound = np.flatnonzero(bound).tolist(), bound.tolist()

    corr, moved, spont, stretch, land, settle = forward_recurrence(
        orig_flat, gamma, schedule.offsets[:-1][schedule.lengths > 0], schedule.b_enter
    )
    orig_at, elmin = memoryview(orig_flat), memoryview(elmin)
    block_floor = block_floors(
        hot["b_lo"], hot["b_need"], edge_lmin.blocks,
        lambda lo, hi: list(map(corr.__getitem__, b_enter[lo:hi])),
    )
    is_moved = moved.__getitem__
    spont_ptr = [bisect_left(spont, start) for start in offsets]
    njumps = lands = 0
    max_jump = 0.0
    for rp, a, b, dep_lo, dep_hi in schedule.steps:
        rk_start = offsets[rp]
        jlist = jumps[ranks[rp]]
        k = spont_ptr[rp]
        # No source moved: land just the bound.  Long steps only (measured:
        # 2×500k, one step, 30 → 27 ms; POP, ≈ 2 a step, 75 → 96 ms if all).
        todo = range(dep_lo, dep_hi)
        if dep_hi - dep_lo > 8 and not any(map(is_moved, src[dep_indptr[dep_lo]:dep_indptr[dep_hi]])):
            todo = bound_at[bisect_left(bound_at, dep_lo):bisect_left(bound_at, dep_hi)]
        for di in todo:
            e, estop = dep_indptr[di], dep_indptr[di + 1]
            if not (bound[di] or moved[src[e]] or estop - e > 1 and any(map(is_moved, src[e + 1:estop]))):
                continue
            lands += 1
            p = dep_gids[di]
            if a < p:
                k = stretch(a, p, k)
            remote_floor = _NEG_INF
            while e < estop:
                s = src[e]
                floor = (corr[s] if moved[s] else orig_at[s]) + elmin[e]
                if floor > remote_floor:
                    remote_floor = floor
                e += 1
            if dep_slot[di] >= 0:
                floor = block_floor(dep_slot[di])
                if floor > remote_floor:
                    remote_floor = floor
            jump = land(p, remote_floor)
            if jump:
                jlist.append((p - rk_start, jump))
                njumps += 1
                if jump > max_jump:
                    max_jump = jump
            a = p + 1
        spont_ptr[rp] = stretch(a, b, k) if a < b else k

    corrected, written = settle()
    return corrected, jumps, njumps, max_jump, len(written), lands


def nudged_caps(recv: np.ndarray, lmin) -> np.ndarray:
    """``recv - l_min``, nudged down until ``cap + l_min <= recv`` (elementwise).

    Round-to-nearest can land ``recv - l_min`` above the true bound; an
    event later advanced to that cap would sit one ulp past ``recv -
    l_min`` and break the clock condition under exact comparison.
    """
    recv, lmin = np.broadcast_arrays(recv, lmin)
    vals = recv - lmin
    bad = vals + lmin > recv
    while bad.any():
        vals[bad] = np.nextafter(vals[bad], -np.inf)
        bad = vals + lmin > recv
    return vals


def _last_min(vals: np.ndarray, axis: int) -> np.ndarray:
    """Index of ``np.minimum.at``'s survivor along ``axis``: the last of the
    smallest, or a NaN (``argmin`` finds NaNs first)."""
    return vals.shape[axis] - 1 - np.flip(vals, axis).argmin(axis=axis)


def block_caps(recv: np.ndarray, lmin, prefix: bool) -> np.ndarray:
    """Send caps of the enters of same-shaped blocks, ``(B, n)`` like ``recv``.

    ``recv`` holds the exits' corrected stamps, ``lmin`` one number or
    :func:`block_lmin`'s matrices stacked ``(B, n, n)``.  One
    ``(B, receiver, sender)`` array op: enter ``j``'s cap is the ``min``
    over its receivers' :func:`nudged_caps` in receiver order under
    ``np.minimum.at``'s rule, so it has the bits of the dense scatter
    over the pair edges; ``inf`` where no exit waits.
    """
    receiver, sender = np.indices((recv.shape[1],) * 2)
    unbound = receiver <= sender if prefix else receiver == sender
    vals = nudged_caps(recv[:, :, None], np.swapaxes(lmin, 1, 2) if np.ndim(lmin) else lmin)
    vals = np.where(unbound, np.inf, vals)  # [block, receiver, sender]
    return np.take_along_axis(vals, _last_min(vals, 1)[:, None, :], axis=1)[:, 0, :]


def send_caps_kernel(
    schedule: CompiledSchedule, corrected_flat: np.ndarray, edge_lmin: EdgeLmin
) -> np.ndarray:
    """Per-event upper bound ``min(partner receive - l_min)`` (flat).

    One scatter-min over the edge table and one :func:`block_caps` per
    block shape replace the scalar reference's per-edge dict loop;
    ``min`` is exact, so the caps are bit-identical.
    """
    caps = np.full(schedule.n_events, np.inf, dtype=np.float64)
    np.minimum.at(
        caps, schedule.e_src, nudged_caps(corrected_flat[schedule.e_dst], edge_lmin.rows)
    )
    indptr = schedule.b_indptr
    sizes = np.diff(indptr)
    for n, prefix in set(zip(sizes.tolist(), schedule.b_prefix.tolist())):
        los = indptr[:-1][(sizes == n) & (schedule.b_prefix == prefix)]
        slots = los[:, None] + np.arange(n)
        lmin = edge_lmin.blocks
        if isinstance(lmin, list):
            lmin = np.stack([lmin[lo] for lo in los.tolist()])
        enters = schedule.b_enter[slots]
        caps[enters] = np.minimum(
            caps[enters], block_caps(corrected_flat[schedule.b_exit[slots]], lmin, prefix)
        )
    return caps


def lamport_kernel(schedule: CompiledSchedule) -> dict[int, np.ndarray]:
    """Lamport times for every event, bit-identical to the scalar pass.

    Int64 max-plus arithmetic is exact, so the per-rank closed form
    ``LC[i] = i + max(1, max_{p ≤ i}(B_p - p))`` (bases ``B_p`` at
    dependency-bearing events, combined by ``np.maximum.accumulate``)
    reproduces the event-by-event recurrence exactly; the Python loop
    runs only over dependency-bearing events, and a block's bases come
    from :func:`block_floors` over its enters' Lamport times.
    """
    hot = schedule.hot
    offsets = hot["offsets"]
    rank_deps = hot["rank_deps"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    dep_slot = hot["dep_slot"]
    excess = [1] * (len(dep_gids) + 1)

    def rank_times(gids: np.ndarray) -> tuple[list[int], list[int]]:
        """Per source gid: its local index, and the ``excess`` slot of the
        last dependent of its rank at or before it (or the spare last
        slot, never written, 1, when its rank has none that early)."""
        pos = schedule._rank_pos_of(gids)
        last = np.searchsorted(schedule.dep_gids, gids, side="right") - 1
        last = np.where(last >= schedule.rank_deps[pos], last, -1)
        return (gids - schedule.offsets[pos]).tolist(), last.tolist()

    src_local, last = rank_times(schedule.dep_src)
    b_local, b_last = rank_times(schedule.b_enter)
    block_floor = block_floors(
        hot["b_lo"], hot["b_need"], 1,
        lambda lo, hi: [t + excess[k] for t, k in zip(b_local[lo:hi], b_last[lo:hi])],
    )

    for rp, _, _, dep_lo, dep_hi in schedule.steps:
        cur = excess[dep_lo - 1] if dep_lo > rank_deps[rp] else 1
        for di in range(dep_lo, dep_hi):
            pl = dep_gids[di] - offsets[rp]
            value = pl + cur
            for e in range(dep_indptr[di], dep_indptr[di + 1]):
                dep_value = src_local[e] + excess[last[e]] + 1
                if dep_value > value:
                    value = dep_value
            if dep_slot[di] >= 0:
                value = max(value, int(block_floor(dep_slot[di])))
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
    the Python loop touches only dependency-bearing events, and a
    block's enters are reduced once per distinct source range (once per
    N-to-N block: its own enter's vector is below the exit's already).
    """
    nr = len(schedule.ranks)
    hot = schedule.hot
    offsets = hot["offsets"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    src = hot["src"]
    dep_slot = hot["dep_slot"]
    b_lo = hot["b_lo"]
    b_need = hot["b_need"]
    vectors = np.zeros((schedule.n_events, nr), dtype=np.int64)  # by gid
    zero = np.zeros(nr, dtype=np.int64)
    reduced: dict[tuple[int, int], np.ndarray] = {}  # source range -> max of its enters' vectors

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
            s = dep_slot[di]
            if s >= 0:
                lo, need = b_lo[s], b_need[s]
                top = reduced.get((lo, need))
                if top is None:
                    top = reduced[lo, need] = vectors[schedule.b_enter[lo:need]].max(axis=0)
                np.maximum(vec, top, out=vec)
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
    events never block.  A block is examined once per round: its first
    two members whose enter the last round had not produced decide every
    exit (an N-to-N exit waits if one is not its own member, a prefix
    exit if one lies below it).
    """
    hot = schedule.hot
    offsets = hot["offsets"]
    rank_deps = hot["rank_deps"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    src = hot["src"]
    src_pos = hot["src_pos"]
    dep_slot = hot["dep_slot"]
    b_lo = hot["b_lo"]
    b_need = hot["b_need"]
    b_enter = hot["b_enter"]
    b_pos = hot["b_pos"]
    b_hi = np.repeat(schedule.b_indptr[1:], np.diff(schedule.b_indptr)).tolist()
    nr = len(schedule.ranks)

    produced = offsets[:nr]  # per rank: every gid below has been produced
    ptr = rank_deps[:nr]
    rounds = 0
    done = 0
    max_queue = 0
    while done < schedule.n_events:
        rounds += 1
        snapshot = list(produced)
        late: dict[int, list[int]] = {}  # block (first slot) -> its first two late slots
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
                s = dep_slot[k]
                if s >= 0:
                    lo, hi, need = b_lo[s], b_hi[s], b_need[s]
                    gap = late.get(lo)
                    if gap is None:
                        gap = [t for t in range(lo, hi) if b_enter[t] >= snapshot[b_pos[t]]][:2]
                        gap = late[lo] = gap + [hi] * (2 - len(gap))
                    if gap[0] < need and (gap[0] != s or gap[1] < need):
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
