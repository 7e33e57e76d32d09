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
  per edge in the order given: the messages, or an explicit constraint
  set (:meth:`~CompiledSchedule.from_dependencies`);
* **the blocks** — every collective instance of two or more members
  (:func:`repro.sync.collectives_map.collective_constraints`) as its
  members' enter and exit gids, ``b_enter``/``b_exit`` (rank ids in
  ``b_rank``), block ``b`` owning member slots
  ``b_indptr[b]:b_indptr[b + 1]``.  Slot ``s``'s exit depends on the
  enters of slots ``[b_lo[s], b_need[s])``, the flavor's rule.  An
  instance of ``n`` members costs ``n`` slots, not the ``n·(n-1)``
  edges of an N-to-N pair expansion;
* **a compact forward CSR** — ``dep_gids`` lists the dependency-bearing
  events (receives, collective exits, explicit constraints)
  ascending by gid, ``dep_indptr`` delimits their edge-table sources in
  ``dep_src`` (gids; ``dep_edge_ids`` names the edge-table row behind
  each slot, sources in the order given), ``dep_slot`` names a block
  exit's member slot (``-1`` elsewhere), and rank ``i``'s dependents
  are the contiguous range ``rank_deps[i]:rank_deps[i+1]``.  Nothing is
  indexed by event: a million dependency-free events cost nothing here;
* **an execution plan** — ``steps`` is a sequence of per-rank spans
  ``(rank position, start gid, stop gid, first dependent, stop
  dependent)`` whose sequential execution respects every dependency:
  the visits of :func:`walk`, made on first use.

:func:`walk` is the package's one forward driver: it walks per-rank
*windows* of dependents (:class:`Window`), every source named by
``(rank, log index)`` — in memory a rank's whole log, its slice of the
compact CSR, a log index carried as its gid; in the streamed CLC
(:mod:`repro.sync.streaming`) one resident shard at a time.  Walked
bare it gives the plan ``steps`` (Lamport, vector, BSP rounds,
``topo_gids``); the forward pass gives it one landing loop,
:func:`lander`, which lands each visit's ready run as the walk makes it
— in memory (:func:`forward_pass`) and streamed (``ShardSweeps._forward``)
alike, a source read from the overlay either way.  The pass is dataflow,
so *any* valid order yields the same bits; this one is not
``replay_schedule``'s.  A cycle raises
:class:`~repro.errors.SynchronizationError` wherever the walk runs: at
once for :meth:`CompiledSchedule.from_dependencies`, which checks its
dict, on first use for a trace's own relation.

The kernels (:func:`forward_pass`, :func:`send_caps_kernel`,
:func:`lamport_kernel`, :func:`vector_kernel`, :func:`bsp_rounds`) are
**bit-for-bit equivalent** to the scalar reference implementations that
remain in :mod:`repro.sync.clc`, :mod:`repro.sync.lamport`, and
:mod:`repro.sync.vector` as ``*_reference`` functions:

* integer kernels (Lamport, vector) use closed forms that are exact in
  int64 arithmetic;
* a block's floors are reductions over its members
  (:func:`block_floors`): one top-2 scan gives every exit whose range
  holds its own slot the largest ``LC'(enter_j) + l_min`` over the
  *other* members (one members × members array op when ``l_min``
  differs per pair), any other exit one column op over its range.
  Each addition is the pair edge's own, and the tie rule is the dense
  loop's ``if floor > remote_floor``: among equal floors (``-0.0`` and
  ``+0.0`` included) the first sender in member order binds, and a NaN
  floor never binds.  Send caps take the mirrored ``min`` with
  ``np.minimum.at``'s rule (the last receiver among equal caps wins, a
  NaN propagates);
* the float CLC recurrence ``LC'[i] = max(LC[i], LC'[i-1] + γ·δ[i])``
  lives in :func:`forward_recurrence` and is landed by :func:`lander`,
  both shared with the streaming CLC,
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
caches one (:meth:`repro.tracing.trace.Trace.compiled_schedule`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    "Window",
    "walk",
    "first_waiting",
    "block_lmin",
    "block_floors",
    "forward_recurrence",
    "bound_dependents",
    "lander",
    "forward_pass",
    "sized_block_caps",
    "send_caps_kernel",
    "lamport_kernel",
    "vector_kernel",
    "bsp_rounds",
]

_NEG_INF = float("-inf")

#: A forward visit checks this many dependents (streamed: source rows)
#: one at a time before :func:`first_waiting`'s windows.  Measured on
#: the streamed sweep (same-process A/B, 20 rounds, 2-vCPU VM): every one
#: of a 16-rank POP trace's ≈ 13.2k waiting visits stops within 8 rows,
#: where an array comparison costs more than it checks; without the head
#: that sweep took ≈ 14 % longer (0.267 → 0.311 s, 15 of 20 rounds).
HEAD = 8


def first_waiting(wait: np.ndarray, rank: np.ndarray, cursor: np.ndarray, lo: int, hi: int) -> int:
    """The first ``i`` in ``[lo, hi)`` with ``wait[i] >= cursor[rank[i]]``, or ``hi``.

    Row ``i`` is ready once rank ``rank[i]``'s cursor has passed
    ``wait[i]`` (``-1``: always).  One array comparison per window, 64
    rows first, each window four times the last.  :func:`walk` calls it
    past a visit's :data:`HEAD` dependents.
    """
    width = 64
    while lo < hi:
        top = min(lo + width, hi)
        waiting = wait[lo:top] >= cursor[rank[lo:top]]
        if waiting.any():
            return lo + int(waiting.argmax())
        lo, width = top, width * 4
    return hi


class Window(NamedTuple):
    """One rank's dependents up to cursor value ``stop``, as :func:`walk` reads them.

    Dependents ``first:last`` of ``dep`` (cursor values, ascending);
    dependent ``d``'s sources are rows ``indptr[d]:indptr[d + 1]``, each
    named by its rank's position ``src_pos`` and the cursor value ``wait``
    that rank's cursor must pass (``-1``, or any value below the
    dependent's, for a source earlier in its own log).  ``slot[d]`` is its
    block slot or ``-1``, ``exits`` the dependents with one;
    ``wait_arr``/``pos_arr`` are ``wait``/``src_pos`` as arrays for
    :func:`first_waiting`, whose cursor snapshot may lag the visit's own
    rank: there an own earlier source must be ``-1``.
    """

    stop: int
    first: int
    last: int
    dep: Sequence[int]
    indptr: Sequence[int]
    wait: Sequence[int]
    src_pos: Sequence[int]
    slot: Sequence[int]
    exits: Sequence[int]
    wait_arr: np.ndarray
    pos_arr: np.ndarray


def walk(
    cursors: Sequence[int],
    ends: Sequence[int],
    open_window: Callable[[int], Optional[Window]],
    blocks: tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]],
    land: Optional[Callable[[int, int, int, int, int], None]] = None,
) -> tuple[list[tuple[int, int, int, int, int]], list[int], int]:
    """The forward driver: a happened-before-consistent walk over every rank's windows.

    Rank ``rp``'s cursor walks from ``cursors[rp]`` to ``ends[rp]`` (log
    indices, or in memory gids: its offset plus the log index), and
    ``open_window(rp)`` gives its next :class:`Window` (``None`` at the
    end); ``blocks`` is ``(b_lo, b_need, b_enter, b_pos)``, per block
    slot the range of slots whose enters its exit reads, and its enter
    named by cursor value and rank position.  A visit moves a cursor
    over dependency-free events and over each dependent whose sources all
    lie behind their rank's cursor, and ends at the first source that
    does not: the rank sleeps in that source rank's heap, keyed by the
    awaited cursor value, and is woken once the cursor there has passed it.
    Every edge is checked once, nothing is polled.  Past :data:`HEAD`
    dependents a visit checks the rest of its run up to the next block
    exit by :func:`first_waiting`, and the dependent a window stops at
    one at a time, so walk and checks are those of a walk without
    windows.  A block keeps the count of its leading slots known to have
    entered (exits share it, so every slot is accepted once); an exit
    that finds its range short parks on the block, which sleeps on its
    first missing enter, so a block costs ``O(n log n)`` however its exits
    arrive.  A rank at its window's end is queued again for its next.

    ``land``, if given, gets each visit that moved a cursor before any
    other rank runs, so every source a later visit reads is final.
    Returns ``(steps, cursors, checks)``: those visits as ``(rank
    position, start, stop, first dependent, stop dependent)`` (cursor
    values; dependents index the window's ``dep``), the final cursors,
    and the edge and block member checks made.  A rank left short of its
    end (a cycle) raises :class:`~repro.errors.SynchronizationError`.
    """
    nr = len(ends)
    b_lo, b_need, b_enter, b_pos = blocks
    done = list(cursors)  # per rank: every event below has been walked
    win: list = [None] * nr
    dep = [0] * nr  # per rank: its next dependent
    edge = [0] * nr  # per rank: the next source to check
    entered = list(b_lo)  # per block (its first slot): the slots known to have entered
    parked: dict[int, list] = {}  # watched block -> [heap of (need, rank), largest need]
    # Keyed by the awaited cursor value: a rank, or ``~first slot`` for a block.
    asleep: list[list[tuple[int, int]]] = [[] for _ in range(nr)]
    ready = deque(range(nr))
    wake, push, pop = ready.append, heappush, heappop
    steps = []
    checks = 0

    def advance(lo: int, need: int) -> int:
        """Block ``lo``'s first missing slot below ``need`` (or ``need``), counted on."""
        nonlocal checks
        v = was = entered[lo]
        while v < need and b_enter[v] < done[b_pos[v]]:
            v += 1
        entered[lo] = v
        checks += v - was + (v < need)
        return v

    while ready:
        rp = ready.popleft()
        w = win[rp]
        if w is None:
            w = win[rp] = open_window(rp)
            if w is None:
                continue
            dep[rp], edge[rp] = w.first, w.indptr[w.first]
        stop_at, _, d_stop, deps, indptr, wait, src_pos, dep_slot, exits = w[:9]
        start, first, resumed = done[rp], dep[rp], edge[rp]
        d, e = first, resumed
        head, cursor = first + HEAD, None
        while d < d_stop:
            if d >= head:  # windows up to the next block exit; ``e`` is ``d``'s first edge
                if cursor is None:  # other ranks' cursors stand still during a visit
                    cursor = np.array(done)
                k = bisect_left(exits, d)
                bound = min(exits[k], d_stop) if k < len(exits) else d_stop
                hi = indptr[bound]
                e = first_waiting(w.wait_arr, w.pos_arr, cursor, e, hi)
                d = bisect_right(indptr, e, d, bound) - 1 if e < hi else bound
                head = d + 1
                if d == d_stop:
                    continue
            done[rp] = deps[d]  # all before the dependent runs; a same-rank source may be there
            stop = indptr[d + 1]
            while e < stop and wait[e] < done[src_pos[e]]:
                e += 1
            if e < stop:
                push(asleep[src_pos[e]], (wait[e], rp))
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
            done[rp] = stop_at
            win[rp] = None
            wake(rp)  # for its next window
        checks += e - resumed
        dep[rp], edge[rp] = d, e
        if done[rp] > start:
            steps.append((rp, start, done[rp], first, d))
            if land is not None:
                land(rp, start, done[rp], first, d)
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
    if done != list(ends):
        walked = sum(done) - sum(cursors)
        raise SynchronizationError(
            f"replay schedule incomplete ({walked}/{sum(ends) - sum(cursors)} events); "
            "the trace's happened-before graph has a cycle or dangling dependency"
        )
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
    ``b_need[s]``, where the walk guarantees they are final.  An exit
    whose range ends at or below its own slot takes one column op over
    it.  A block whose exits' ranges hold their own slots (N-to-N, an
    N-to-1 root) is reduced once, the first time one asks: by one
    members × members array op, or with one ``l_min`` by a top-2 scan
    (the exit of the largest sender gets the runner-up).  The scan is kept because it
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
        if need <= s:  # a range below its own slot
            column = lmin[s][: need - lo, s - lo] if per_pair else lmin
            sums = np.array(enters(lo, need), dtype=np.float64) + column
            out[s] = float(_first_max(sums[:, None])[0])
        elif per_pair:  # every exit of the block at once
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
    standard relation, POMP regions included) or :meth:`from_dependencies`
    (any explicit constraint dict, compiled as edges only).
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
        "b_lo",
        "b_need",
        "b_rank",
        "b_enter",
        "b_exit",
        "dep_gids",
        "dep_indptr",
        "dep_edge_ids",
        "dep_src",
        "dep_slot",
        "rank_deps",
        "hot",
        "_windows",
        "_steps",
        "_topo",
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: "Trace") -> "CompiledSchedule":
        """Compile the standard message/collective happened-before relation.

        Messages become edges, collective instances blocks
        (:func:`collective_constraints`).
        """
        table = trace.collectives()
        found = collective_constraints(table)
        columns = (table.ranks, table.enter_idx, table.exit_idx)
        blocks = (found, *(column[found.members] for column in columns))
        return cls(trace, dependency_edges(trace, include_collectives=False), blocks)

    @classmethod
    def from_dependencies(
        cls, trace: "Trace", deps: dict[EventRef, list[EventRef]]
    ) -> "CompiledSchedule":
        """Compile an explicit constraint set, as edges only.

        The dense second spelling of :meth:`from_trace`'s relation when fed
        ``build_dependencies(trace)`` (every collective pair an edge), which
        the tests and the ``custom_dependency_identity`` oracle compare the
        blocks against.

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
        schedule = cls(trace, (targets[:, 0], targets[:, 1], sources[:, 0], sources[:, 1]))
        schedule.steps  # a cycle raises here
        return schedule

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
            blocks = (CollectiveBlocks(none, np.zeros(1, dtype=np.int64), none, none),
                      none, none, none)
        found, self.b_rank, enter_idx, exit_idx = blocks
        self.b_indptr, self.b_lo, self.b_need = found.indptr, found.lo, found.need
        self.n_blocks = self.b_indptr.size - 1
        b_pos = np.searchsorted(rank_ids, self.b_rank)
        self.b_enter = offsets[b_pos] + enter_idx
        self.b_exit = offsets[b_pos] + exit_idx
        bound = np.flatnonzero(self.b_need > self.b_lo)  # the exits that wait for somebody

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

        # ---- the driver's windows: one a rank, its whole log, by gid -----
        src_pos = src_pos[by_dst]
        own_before = (src_rank == dst_rank)[by_dst] & (self.dep_src < dst_sorted)
        #: Python-list mirrors of the arrays the driver and the kernels
        #: read scalar-wise.
        self.hot = hot = {
            "offsets": offsets.tolist(),
            "rank_deps": self.rank_deps.tolist(),
            "dep_gids": self.dep_gids.tolist(),
            "dep_indptr": self.dep_indptr.tolist(),
            "src": self.dep_src.tolist(),
            "src_pos": src_pos.tolist(),
            "dep_slot": self.dep_slot.tolist(),
            "b_lo": self.b_lo.tolist(),
            "b_need": self.b_need.tolist(),
            "b_enter": self.b_enter.tolist(),
            "b_pos": b_pos.tolist(),
        }
        shared = (
            hot["dep_gids"], hot["dep_indptr"], hot["src"], hot["src_pos"], hot["dep_slot"],
            np.flatnonzero(self.dep_slot >= 0).tolist(), np.where(own_before, -1, self.dep_src),
            src_pos,
        )
        self._windows = [
            Window(hot["offsets"][rp + 1], hot["rank_deps"][rp], hot["rank_deps"][rp + 1], *shared)
            if n else None
            for rp, n in enumerate(self.lengths.tolist())
        ]
        self._steps = None
        self._topo = None

    def walk(self, land=None) -> tuple[list, list[int], int]:
        """:func:`walk` over this schedule's windows, one a rank (its whole
        log), cursors and sources named by gid."""
        fresh = list(self._windows)

        def open_window(rp: int) -> Optional[Window]:
            window, fresh[rp] = fresh[rp], None
            return window

        hot = self.hot
        blocks = (hot["b_lo"], hot["b_need"], hot["b_enter"], hot["b_pos"])
        return walk(hot["offsets"][:-1], hot["offsets"][1:], open_window, blocks, land)

    @property
    def steps(self) -> list[tuple[int, int, int, int, int]]:
        """An execution plan: per-rank spans ``(rank position, start gid, stop
        gid, first dependent, stop dependent)`` whose sequential execution
        respects every dependency — the visits of :meth:`walk`, made once,
        on first use."""
        if self._steps is None:
            self._steps = self.walk()[0]
        return self._steps

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

    The one landing loop (:func:`lander`, in memory and streamed) lands
    only what :func:`bound_dependents` accepts — a block exit or a
    dependent with an own-rank source or a binding input floor (largest
    ``orig[source] + l_min`` above ``orig[p]``) — or a dependent with a
    moved source; any other is a plain event of a ``stretch``, exactly:
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
def bound_dependents(
    slot: np.ndarray, indptr: np.ndarray, floors: np.ndarray, own: np.ndarray, stamps: np.ndarray
) -> np.ndarray:
    """Per dependent, whether it lands whatever moved (:func:`forward_recurrence`).

    A block exit (``slot >= 0``), a dependent with an own-rank source
    (``own``, per source row) and one whose input floor binds: the largest
    ``floors`` row (its source's input stamp plus ``l_min``; ``fmax``, so a
    NaN never binds) above its own input stamp ``stamps``.  Dependent
    ``d``'s rows are ``indptr[d]:indptr[d + 1]``.
    """
    bound = slot >= 0
    starts = indptr[:-1]
    has = np.flatnonzero(indptr[1:] > starts)
    if has.size:
        at = starts[has]
        bound[has] |= (np.fmax.reduceat(floors, at) > stamps[has]) | np.logical_or.reduceat(own, at)
    return bound


def lander(
    lanes: list, block_floor: Callable[[int], float]
) -> tuple[Callable[[int, int, int, int, int], None], Callable[[], tuple[int, int, float]]]:
    """The forward pass's one landing loop: ``land_run`` for :func:`walk`.

    ``land_run(rp, start, stop, first, last)`` lands a visit over rank
    position ``rp``'s ``lanes[rp]``: of dependents ``first:last`` it skips
    those that cannot bind (neither bound nor behind a moved source,
    :func:`forward_recurrence`), stretches up to each other one, lands it
    on its largest source and block floor (``block_floor(slot)``) and
    counts the jump; then it stretches to ``stop``.  ``totals()`` gives
    ``(lands, jumps, largest jump)``.  A lane is a plain tuple (unpacked
    every visit, which a tuple subclass slows) ``(corr, moved, shift,
    orig, spont, stretch, land, dep, indptr, src, elmin, slot, bound,
    bound_at, origin, jumps)``: a :func:`forward_recurrence` overlay
    (``orig`` a memoryview) holding cursor value ``c`` at ``c + shift``
    and every source, read as ``corr[s] if moved[s] else orig[s]``; per
    dependent ``d`` its position ``dep[d]``, source rows ``indptr[d]:
    indptr[d + 1]`` (positions ``src``, ``l_min`` in ``elmin``), block slot
    ``slot[d]`` or ``-1`` and :func:`bound_dependents`'s ``bound[d]``
    (``bound_at`` lists the bound); a jump at ``p`` goes to ``jumps`` as
    ``(p - origin, size)``.
    """
    njumps = lands = 0
    max_jump = 0.0

    def land_run(rp: int, a: int, b: int, first: int, last: int) -> None:
        nonlocal njumps, lands, max_jump
        (corr, moved, shift, orig, spont, stretch, land, dep, indptr, src, elmin, slot, bound,
         bound_at, origin, jumps) = lanes[rp]
        a += shift
        b += shift
        nsp = len(spont)
        k = bisect_left(spont, a) if nsp else 0
        # No source moved: land just the bound.  Long runs only (measured:
        # 2×500k, one run, 30 → 27 ms; POP, ≈ 2 a run, 75 → 96 ms if all).
        todo = range(first, last)
        if last - first > 8 and not any(map(moved.__getitem__, src[indptr[first]:indptr[last]])):
            todo = bound_at[bisect_left(bound_at, first):bisect_left(bound_at, last)]
        for di in todo:
            e, estop = indptr[di], indptr[di + 1]
            if not (bound[di] or moved[src[e]]
                    or estop - e > 1 and any(map(moved.__getitem__, src[e + 1:estop]))):
                continue
            lands += 1
            p = dep[di]
            # A stretch moves nothing unless the event before it moved or a
            # spontaneous position lies inside it: skip the call then.
            if a < p and (moved[a - 1] or k < nsp and spont[k] < p):
                k = stretch(a, p, k)
            remote_floor = _NEG_INF
            while e < estop:
                s = src[e]
                floor = (corr[s] if moved[s] else orig[s]) + elmin[e]
                if floor > remote_floor:
                    remote_floor = floor
                e += 1
            if slot[di] >= 0:
                floor = block_floor(slot[di])
                if floor > remote_floor:
                    remote_floor = floor
            jump = land(p, remote_floor)
            if jump:
                jumps.append((p - origin, jump))
                njumps += 1
                if jump > max_jump:
                    max_jump = jump
            a = p + 1
        if a < b and (moved[a - 1] or k < nsp and spont[k] < b):
            stretch(a, b, k)

    return land_run, lambda: (lands, njumps, max_jump)


def forward_pass(
    schedule: CompiledSchedule,
    orig_flat: np.ndarray,
    edge_lmin: EdgeLmin,
    gamma: float | None,
) -> tuple[np.ndarray, dict[int, list[tuple[int, float]]], int, float, int, int]:
    """Forward pass of the CLC (``gamma`` set) or naive shift (``None``) in memory.

    Returns ``(corrected_flat, jumps, njumps, max_jump, writes, lands)``
    with ``jumps`` mapping each rank to its ``(local index, jump size)``
    list — bit-identical to the scalar reference loop — ``writes`` the
    number of events the pass moved and ``lands`` the number of
    dependents it landed: those that can bind (:func:`forward_recurrence`,
    :func:`bound_dependents`).  The schedule's :meth:`~CompiledSchedule.walk`
    drives :func:`lander` over one overlay of every rank's log.
    """
    jumps: dict[int, list[tuple[int, float]]] = {rank: [] for rank in schedule.ranks}
    hot = schedule.hot
    eids = schedule.dep_edge_ids
    elmin = edge_lmin.rows[eids]
    bound = bound_dependents(
        schedule.dep_slot, schedule.dep_indptr, orig_flat[schedule.dep_src] + elmin,
        schedule.edge_src_rank[eids] == schedule.edge_dst_rank[eids], orig_flat[schedule.dep_gids],
    )
    corr, moved, spont, stretch, land, settle = forward_recurrence(
        orig_flat, gamma, schedule.offsets[:-1][schedule.lengths > 0], schedule.b_enter
    )
    window = (
        corr, moved, 0, memoryview(orig_flat), spont, stretch, land, hot["dep_gids"],
        hot["dep_indptr"], hot["src"], memoryview(elmin), hot["dep_slot"], bound.tolist(),
        np.flatnonzero(bound).tolist(),
    )
    block_floor = block_floors(
        hot["b_lo"], hot["b_need"], edge_lmin.blocks,
        lambda lo, hi: list(map(corr.__getitem__, hot["b_enter"][lo:hi])),
    )
    land_run, totals = lander(
        [(*window, offset, jumps[rank]) for offset, rank in zip(hot["offsets"], schedule.ranks)],
        block_floor,
    )
    schedule.walk(land_run)
    corrected, written = settle()
    lands, njumps, max_jump = totals()
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


def block_caps(recv: np.ndarray, lmin, need: np.ndarray) -> np.ndarray:
    """Send caps of the enters of same-sized blocks, ``(B, n)`` like ``recv``.

    ``recv`` holds the exits' corrected stamps, ``need`` their range ends
    counted from the block's first slot (where every range starts),
    ``lmin`` one number or :func:`block_lmin`'s matrices stacked
    ``(B, n, n)``.  One ``(B, receiver, sender)`` array op: enter ``j``'s
    cap is the ``min`` over the receivers whose range holds it (its own
    exit aside) of their :func:`nudged_caps`, in receiver order under
    ``np.minimum.at``'s rule, so it has the bits of the dense scatter
    over the pair edges; ``inf`` where no exit waits.
    """
    sender = np.arange(recv.shape[1])
    reads = (sender < need[:, :, None]) & (sender != sender[:, None])
    vals = nudged_caps(recv[:, :, None], np.swapaxes(lmin, 1, 2) if np.ndim(lmin) else lmin)
    vals = np.where(reads, vals, np.inf)  # [block, receiver, sender]
    return np.take_along_axis(vals, _last_min(vals, 1)[:, None, :], axis=1)[:, 0, :]


def sized_block_caps(
    firsts: np.ndarray, sizes: np.ndarray, b_need: np.ndarray, recv: np.ndarray, lmin
) -> tuple[np.ndarray, np.ndarray]:
    """The send caps of the enters of the blocks starting at slots ``firsts``.

    One :func:`block_caps` call per block size: ``sizes`` are the blocks'
    member counts, ``b_need`` and ``recv`` (the exits' corrected stamps)
    are indexed by slot and ``lmin`` is :func:`block_lmin`'s.  Returns
    ``(slots, caps)``, flat, size by size and the blocks in the order given.
    """
    slots_out, caps_out = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for n in np.unique(sizes).tolist():
        los = firsts[sizes == n]
        slots = los[:, None] + np.arange(n)
        lm = np.stack([lmin[lo] for lo in los.tolist()]) if isinstance(lmin, list) else lmin
        slots_out.append(slots.ravel())
        caps_out.append(block_caps(recv[slots], lm, b_need[slots] - los[:, None]).ravel())
    return np.concatenate(slots_out), np.concatenate(caps_out)


def send_caps_kernel(
    schedule: CompiledSchedule, corrected_flat: np.ndarray, edge_lmin: EdgeLmin
) -> np.ndarray:
    """Per-event upper bound ``min(partner receive - l_min)`` (flat).

    One scatter-min over the edge table and :func:`sized_block_caps`
    replace the scalar reference's per-edge dict loop; the blocks' caps
    are scattered in its order, as an enter of a per-receiver block sits
    in several.  ``min`` is exact, so the caps are bit-identical.
    """
    caps = np.full(schedule.n_events, np.inf, dtype=np.float64)
    np.minimum.at(
        caps, schedule.e_src, nudged_caps(corrected_flat[schedule.e_dst], edge_lmin.rows)
    )
    indptr = schedule.b_indptr
    slots, got = sized_block_caps(
        indptr[:-1], np.diff(indptr), schedule.b_need, corrected_flat[schedule.b_exit],
        edge_lmin.blocks,
    )
    np.minimum.at(caps, schedule.b_enter[slots], got)
    return caps


def _rank_times(schedule: CompiledSchedule, gids: np.ndarray) -> tuple[list[int], list[int]]:
    """Per gid: its local index, and the dependent slot of the last
    dependent of its rank at or before it (``-1``, a per-dependent list's
    spare last slot, when its rank has none that early)."""
    pos = schedule._rank_pos_of(gids)
    last = np.searchsorted(schedule.dep_gids, gids, side="right") - 1
    last = np.where(last >= schedule.rank_deps[pos], last, -1)
    return (gids - schedule.offsets[pos]).tolist(), last.tolist()


def _by_event(schedule: CompiledSchedule, per_dep: list[int]) -> list[np.ndarray]:
    """Per rank, every event's ``per_dep`` value at the last dependent at or
    before it, 1 before its first (``per_dep`` never falls along a rank)."""
    offsets, rank_deps = schedule.hot["offsets"], schedule.hot["rank_deps"]
    out = []
    for rp in range(len(schedule.ranks)):
        m_arr = np.ones(offsets[rp + 1] - offsets[rp], dtype=np.int64)
        lo, hi = rank_deps[rp], rank_deps[rp + 1]
        m_arr[schedule.dep_gids[lo:hi] - offsets[rp]] = per_dep[lo:hi]
        out.append(np.maximum.accumulate(m_arr))
    return out


def lamport_kernel(schedule: CompiledSchedule) -> dict[int, np.ndarray]:
    """Lamport times for every event, bit-identical to the scalar pass.

    Int64 max-plus arithmetic is exact, so the per-rank closed form
    ``LC[i] = i + max(1, max_{p ≤ i}(B_p - p))`` (bases ``B_p`` at
    dependency-bearing events, combined by ``np.maximum.accumulate``)
    reproduces the event-by-event recurrence exactly; the Python loop
    runs only over dependency-bearing events, in the plan's order, and a
    block's bases come from :func:`block_floors` over its enters'
    Lamport times.
    """
    hot = schedule.hot
    offsets = hot["offsets"]
    rank_deps = hot["rank_deps"]
    dep_gids = hot["dep_gids"]
    dep_indptr = hot["dep_indptr"]
    dep_slot = hot["dep_slot"]
    excess = [1] * (len(dep_gids) + 1)
    src_local, last = _rank_times(schedule, schedule.dep_src)
    b_local, b_last = _rank_times(schedule, schedule.b_enter)
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

    return {
        rank: np.arange(m.size, dtype=np.int64) + m
        for rank, m in zip(schedule.ranks, _by_event(schedule, excess))
    }


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

    In the parallel replay each rank advances per round until it blocks
    on a value produced in the same round; an event is produced in the
    round its rank passes the last dependent at or before it (the first
    round if none).  So the round a dependent passes is a max-plus
    recurrence along the plan: its rank's previous dependent's round,
    and one more than the round of every remote source and of every
    enter its block range names but its own (:func:`block_floors` with
    ``l_min = 1``).  ``rounds`` is the last round, ``max_queue`` the most
    events one round produced — the event-by-event reference loop's
    numbers exactly, as dependency-free events never block.
    """
    if not schedule.n_events:
        return 0, 0
    hot = schedule.hot
    rank_deps = hot["rank_deps"]
    dep_indptr = hot["dep_indptr"]
    src_pos = hot["src_pos"]
    dep_slot = hot["dep_slot"]
    passed = [1] * (len(hot["dep_gids"]) + 1)  # per dependent: its round
    _, last = _rank_times(schedule, schedule.dep_src)
    _, b_last = _rank_times(schedule, schedule.b_enter)
    block_floor = block_floors(
        hot["b_lo"], hot["b_need"], 1, lambda lo, hi: [passed[k] for k in b_last[lo:hi]]
    )

    for rp, _, _, dep_lo, dep_hi in schedule.steps:
        cur = passed[dep_lo - 1] if dep_lo > rank_deps[rp] else 1
        for di in range(dep_lo, dep_hi):
            for e in range(dep_indptr[di], dep_indptr[di + 1]):
                # A same-rank source only has to precede the dependent.
                if src_pos[e] != rp and passed[last[e]] >= cur:
                    cur = passed[last[e]] + 1
            if dep_slot[di] >= 0:
                cur = max(cur, int(block_floor(dep_slot[di])))
            passed[di] = cur
    produced = np.bincount(np.concatenate(_by_event(schedule, passed)))
    return produced.size - 1, int(produced.max())
