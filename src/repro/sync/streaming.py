"""Bounded-memory streaming correction and violation scans over sharded traces.

The in-memory kernels of :mod:`repro.sync.clc` and
:mod:`repro.sync.violations` require the whole trace (and its
:class:`~repro.sync.schedule.CompiledSchedule`) resident in RAM.  The
sweeps here reproduce them **bit-identically** over a
:class:`~repro.tracing.store.ChunkedTrace` while keeping the peak
resident set at O(one shard per rank + carried boundary state).

A streamed correction is the paper's stage sequence — Eq. 1 scan, Eq. 3
interpolation, scan, CLC, scan — run as the three sweeps of one
:class:`ShardSweeps` (what :func:`repro.core.correct.correct_trace`
drives for a sharded source), each reading every input shard once:

* the **pre-scan** pairs collective enters and exits
  (:func:`repro.tracing.trace.pair_collectives`, fed one shard's rows at
  a time) and matches point-to-point messages with the one key rule and
  join of :meth:`Trace.messages <repro.tracing.trace.Trace.messages>`
  (:class:`~repro.tracing.trace.MatchKeys`,
  :func:`~repro.tracing.trace.join_keys`), fed one shard at a time.
  Ends that found no partner yet wait in pending arrays carried from
  shard to shard, so the state is O(in-flight messages).  Ahead of a
  CLC the join also writes one *source row* per matched receive —
  ``(receive log index, send rank, send log index, send stamp at the
  CLC's input stage)`` — into the spill bucket of the receive's shard;
  a receive no send matched gets no row and is a plain event to the
  forward sweep.  Interpolation is a per-rank elementwise map, so the
  verdict *after* it comes from the same read: every shard's resident
  timestamps are run through :meth:`ClockCorrection.apply_rank
  <repro.sync.interpolation.ClockCorrection.apply_rank>` and both
  stampings of a matched pair are checked.  No interpolated store is
  ever written — each later sweep re-evaluates the map on the shard it
  holds (or on the sends it reads), which yields the same bits as
  applying it to the whole log.
* the **forward** sweep is the in-memory kernel's forward pass in the
  same shape: the arithmetic is
  :func:`repro.sync.schedule.forward_recurrence` (follow rule, glide
  tail, spontaneous positions, jump test — written there only), run one
  resident shard at a time with the carried predecessor in the slot
  before it.  Every source is named by ``(rank, log index)``, and every
  rank keeps a *cursor*, the log index below which its forward stamps
  are final — the order :func:`repro.sync.schedule.cursor_walk` finds.
  A visit (ranks are visited round-robin) finds with windowed array
  comparisons over the resident shard's source rows the receives whose
  send lies behind its rank's cursor, runs up to the first that does
  not, and lands only the receives that can bind: those whose floor on
  the input stamps binds, and those whose send moved — a send is
  *published* (held until its receive lands) only if the forward pass
  moved it.  Every other receive is a plain event (see
  :meth:`ShardSweeps._forward` for why that is exact).  Every
  collective instance is blocks here as in the compiled schedule: an
  exit waits on the cursors of the members its range names through
  :func:`repro.sync.schedule.block_entered`, takes its floor from
  :func:`repro.sync.schedule.block_floors` over the enter stamps
  recorded as the cursors passed them, and a block's enters get their
  send caps from :func:`repro.sync.schedule.block_caps` once its last
  exit has landed.  A shard's send caps are one
  :func:`repro.sync.schedule.nudged_caps` op at flush over its settled
  receive stamps, spilled to the senders' per-shard bucket files.
* the backward amortization is a single reverse pass over each flagged
  rank's forward temp files — :func:`repro.sync.clc.amortize_segment`
  per shard, with three scalar carries (the next shard's first advance,
  timestamp, and re-clamped output) — that neither loads nor rewrites a
  shard no amortization window reaches; **finalize** then writes every
  output shard once and accumulates the in-memory path's
  :class:`repro.sync.clc.ClcStats` shard by shard.

The public functions are the one-stage cases of the same sweeps:
:func:`streaming_scan_trace` (a pre-scan of the stamps as stored),
:func:`streaming_clc_correct` (pre-scan without verdicts,
forward, backward, finalize, no interpolation) and
:func:`streaming_apply_correction` (the interpolation alone, written
out).  Nothing about collectives is decided here: who constrains whom
comes from :func:`repro.sync.collectives_map.collective_constraints` —
this module only names its blocks' enters by ``(rank, log index)`` for
the cursors to release.

Boundary-state requirement: match ids must be unique, as
simulator-written traces guarantee.  A dependency cycle (corrupt
trace) stalls every rank and raises
:class:`~repro.errors.SynchronizationError`, mirroring the in-memory
replay.  The ``streamed_matches_inmemory`` oracle in
:mod:`repro.verify.oracles` enforces the bit-identity contract.
"""

from __future__ import annotations

import tempfile
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.clc import (
    ClcResult,
    ClcStats,
    ControlledLogicalClock,
    amortize_segment,
    ramp_cuts,
)
from repro.sync.collectives_map import collective_constraints, logical_messages
from repro.sync.schedule import (
    HEAD,
    block_caps,
    block_entered,
    block_floors,
    block_lmin,
    first_waiting,
    forward_recurrence,
    nudged_caps,
)
from repro.sync.violations import (
    LminSpec,
    ViolationReport,
    resolve_lmin,
    scan_messages,
)
from repro.telemetry import ensure_telemetry
from repro.tracing.events import EventType
from repro.tracing.store import ChunkedTrace, ShardedTraceReader, ShardedTraceWriter
from repro.tracing.trace import (
    CollectiveTable, MatchKeys, collective_rows, join_keys, pair_collectives,
)

__all__ = [
    "streaming_clc_correct",
    "streaming_scan_trace",
    "streaming_apply_correction",
]

_SEND = int(EventType.SEND)

#: Caps spill records: rank-local event index + cap value.
_CAPS_DTYPE = np.dtype([("i", "<i8"), ("v", "<f8")])
#: Source spill records, one per matched receive: its log index, its
#: send's rank and log index, and the send's stamp at the CLC's input stage.
_SOURCE_DTYPE = np.dtype([("i", "<i8"), ("r", "<i8"), ("j", "<i8"), ("v", "<f8")])
#: Records one spill buffers in memory, over all its buckets, before it
#: writes every bucket out (at 32 bytes a record, 2 MiB).
_SPILL_BUDGET = 1 << 16
#: A send's ``(rank, log index)`` as one int64: ``rank << _RANK_SHIFT | idx``.
_RANK_SHIFT = 40


def _source_is_chunked(source) -> ChunkedTrace:
    if isinstance(source, ChunkedTrace):
        return source
    if isinstance(source, ShardedTraceReader):
        return ChunkedTrace(source)
    return ChunkedTrace(ShardedTraceReader(source))


class _Resident:
    """Shard reads and peak resident events, counted for every sweep."""

    __slots__ = ("tele", "cur")

    def __init__(self, tele) -> None:
        self.tele = tele
        self.cur = 0

    def read(self, events: int) -> None:
        """One shard-sized read that makes ``events`` more events resident."""
        self.cur += events
        if self.tele.enabled:
            self.tele.count("sync.stream.shards_read")
            self.tele.gauge_max("sync.clc.peak_resident_events", self.cur)

    def release(self, events: int) -> None:
        self.cur -= events


# ----------------------------------------------------------------------
# Spill buckets
# ----------------------------------------------------------------------
class _Spill:
    """Per-(rank, shard) bucket files of ``dtype`` records.

    A record's first field is a rank-local event index; it goes to the
    bucket of the shard holding that event.  Records are buffered until
    the spill holds more than ``_SPILL_BUDGET`` of them, whatever their
    buckets, and then every bucket is appended to its file, so the
    memory a spill holds is bounded by a constant, not by the number of
    messages.  Each bucket is read once, after which its buffered
    records are dropped.
    """

    def __init__(
        self, tmpdir: Path, name: str, dtype: np.dtype, shard_starts: dict[int, np.ndarray]
    ) -> None:
        self.tmpdir = tmpdir
        self.name = name
        self.dtype = dtype
        self.buffers: dict[tuple[int, int], list[np.ndarray]] = {}
        self.buffered = 0
        # Every shard's first event as one sorted int64, ``rank position
        # << _RANK_SHIFT | log index``, so one search buckets any records.
        ranks = list(shard_starts)
        self.pos = np.zeros(max(ranks, default=0) + 1, dtype=np.int64)
        self.pos[ranks] = np.arange(len(ranks))
        self.firsts = np.concatenate(
            [(p << _RANK_SHIFT) + s for p, s in enumerate(shard_starts.values())]
            or [np.empty(0, dtype=np.int64)]
        )
        self.buckets = [(r, o) for r, s in shard_starts.items() for o in range(s.size)]

    def _path(self, rank: int, ordinal: int) -> Path:
        return self.tmpdir / f"{self.name}_r{rank}_s{ordinal}.bin"

    def add(self, ranks: np.ndarray, *columns: np.ndarray) -> None:
        """One record per entry of ``columns`` (in ``dtype``'s field order) for rank ``ranks[k]``."""
        records = np.empty(ranks.size, dtype=self.dtype)
        for field, column in zip(self.dtype.names, columns):
            records[field] = column
        at = (self.pos[ranks] << _RANK_SHIFT) + records[self.dtype.names[0]]
        bucket = np.searchsorted(self.firsts, at, side="right") - 1
        order = np.argsort(bucket, kind="stable")
        bucket = bucket[order]
        cuts = np.flatnonzero(bucket[1:] != bucket[:-1]) + 1
        for b, part in zip(bucket[np.r_[0, cuts][: bucket.size]].tolist(),
                           np.split(records[order], cuts)):
            self.buffers.setdefault(self.buckets[b], []).append(part)
        self.buffered += records.size
        if self.buffered > _SPILL_BUDGET:
            for key, buf in self.buffers.items():
                with self._path(*key).open("ab") as fh:
                    fh.write(np.concatenate(buf).tobytes())
            self.buffers.clear()
            self.buffered = 0

    def load(self, rank: int, ordinal: int) -> np.ndarray:
        path = self._path(rank, ordinal)
        spilled = path.read_bytes() if path.exists() else b""
        buf = self.buffers.pop((rank, ordinal), [])
        self.buffered -= sum(map(len, buf))
        return np.concatenate([np.frombuffer(spilled, dtype=self.dtype), *buf])


# ----------------------------------------------------------------------
# Message matching
# ----------------------------------------------------------------------
def _rows(side: tuple, sel) -> tuple:
    return tuple(col[..., sel] for col in side)


class _MessageJoin:
    """The pre-scan's message matcher: ``join_keys`` over carried pending ends.

    A *side* is ``(key, rank, ordinal, log index, stamps)`` with one entry
    per transfer event — ``ordinal`` the receive's position among its
    rank's receives (unused for sends) and ``stamps`` a ``(stages, n)``
    array of the event's timestamp under each verdict stage (if any); a
    send side carries a sixth column, the send's stamp at the CLC's
    input stage.  Ends that found no partner yet stay pending, so the
    state is O(in-flight messages); at the end the pending receives are
    unmatched.  With ``sources`` every matched pair is written there as
    its receive's source row.
    """

    def __init__(self, stages: int, lmin: LminSpec, sources: Optional[_Spill] = None) -> None:
        ints, stamps = np.empty(0, dtype=np.int64), np.empty((stages, 0))
        self.sends = (ints, ints, ints, ints, stamps, np.empty(0))
        self.recvs = (ints, ints, ints, ints, stamps)
        self.lmin = lmin
        self.sources = sources
        self.violators = [[] for _ in range(stages)]  # per stage: (dst rank, ordinal) arrays
        self.worst = [0.0] * stages

    def feed(self, sends: tuple, recvs: tuple) -> None:
        """Join one shard's transfer events in and check every new pair (Eq. 1)."""
        sends = tuple(np.concatenate(cols, axis=-1) for cols in zip(self.sends, sends))
        recvs = tuple(np.concatenate(cols, axis=-1) for cols in zip(self.recvs, recvs))
        sent, found, unsent = join_keys(sends[0], recvs[0])
        self.sends, self.recvs = _rows(sends, unsent), _rows(recvs, ~found)
        if not sent.size:
            return
        (_, src, _, src_idx, sent_ts, clc_in), (_, dst, ordinal, dst_idx, received) = (
            _rows(sends, sent), _rows(recvs, found)
        )
        if self.sources is not None:
            self.sources.add(dst, dst_idx, src, src_idx, clc_in)
        if not self.worst:
            return
        floors = resolve_lmin(self.lmin, src, dst)
        for stage, slack in enumerate(received - (sent_ts + floors)):
            bad = slack < 0
            if bad.any():
                self.violators[stage].append((dst[bad], ordinal[bad]))
                self.worst[stage] = max(self.worst[stage], float(-slack[bad].min()))

    def reports(self, ranks: list[int], recv_seen: dict[int, int]) -> list[ViolationReport]:
        """Per stage, the report :func:`scan_messages` gives on the matched table.

        The table lists matched receives by rank, then log order, so a
        violator's row is its place among all receives minus the
        unmatched ones before it.
        """
        rank_ids = np.array(ranks, dtype=np.int64)
        before = np.cumsum([0] + [recv_seen[r] for r in ranks])

        def place(rank, ordinal):
            return before[np.searchsorted(rank_ids, rank)] + ordinal

        unmatched = np.sort(place(self.recvs[1], self.recvs[2]))
        out = []
        for pairs, worst in zip(self.violators, self.worst):
            where = np.empty(0, dtype=np.int64)
            if pairs:
                where = np.sort(place(*(np.concatenate(c) for c in zip(*pairs))))
                where -= np.searchsorted(unmatched, where)
            out.append(ViolationReport(
                "p2p", int(before[-1]) - unmatched.size, where.size, where, worst
            ))
        return out


# ----------------------------------------------------------------------
# Collective dependencies
# ----------------------------------------------------------------------
class _CollectiveDeps:
    """The collective blocks, named by ``(rank, log index)`` for the cursors.

    :func:`repro.sync.collectives_map.collective_constraints` lays every
    instance out as blocks, as for the compiled schedule:

    * ``enters[rank]`` — the sorted log indices of ``rank``'s enters some
      exit reads; the forward sweep records each one's stamp in
      ``values`` as the rank's cursor passes it;
    * ``exits[rank]`` — ``{exit idx: slot}`` for every exit that reads
      an enter, ``exit_at[rank]`` their sorted indices.

    A block keeps what :class:`~repro.sync.schedule.CompiledSchedule`
    keeps: the count of its leading slots whose enter lies behind its
    rank's cursor (:func:`repro.sync.schedule.block_entered`, one lookup
    per check, never ``n - 1``), floors from
    :func:`repro.sync.schedule.block_floors`, and — once its last exit
    lands — its enters' send caps from
    :func:`repro.sync.schedule.block_caps`.  Then it drops the enter
    stamps its exits read, each once no other block still reads it
    (per-receiver blocks share their senders).
    """

    def __init__(self, table: CollectiveTable, lmin: LminSpec, cursor: np.ndarray) -> None:
        blocks = collective_constraints(table)
        members = blocks.members
        self.ranks = ranks = table.ranks[members].tolist()
        self.enter_idx = enter_idx = table.enter_idx[members].tolist()
        self.indptr = blocks.indptr
        self.lo, self.need = blocks.lo.tolist(), blocks.need.tolist()
        self.lmin = block_lmin(lmin, blocks.indptr, table.ranks[members])
        self.values: dict[tuple[int, int], float] = {}
        values = self.values
        self.floor = block_floors(
            self.lo, self.need, self.lmin,
            lambda lo, hi: [values[k] for k in zip(ranks[lo:hi], enter_idx[lo:hi])],
        )
        _, self.extend = block_entered(self.lo, lambda v: enter_idx[v] < cursor[ranks[v]])
        # Per block (its first slot): the end of the slots its exits read.
        starts, sizes = blocks.indptr[:-1], np.diff(blocks.indptr)
        reach = np.maximum.reduceat(blocks.need, starts)
        self.reach = dict(zip(starts.tolist(), reach.tolist()))
        read = np.arange(members.size) < np.repeat(reach, sizes)
        r_read, e_read = table.ranks[members][read], table.enter_idx[members][read]
        #: Per read enter ``(rank, idx)``: the blocks still to read it.
        self.readers = Counter(zip(r_read.tolist(), e_read.tolist()))
        self.pending: dict[int, int] = {}  # block (first slot) -> exits still to land
        self.recv = [0.0] * len(members)  # per slot: its exit's forward stamp
        exits: dict[int, dict[int, int]] = {}
        for slot, (rank, exit_idx, lo, need) in enumerate(
            zip(ranks, table.exit_idx[members].tolist(), self.lo, self.need)
        ):
            if need > lo:
                exits.setdefault(rank, {})[exit_idx] = slot
                self.pending[lo] = self.pending.get(lo, 0) + 1
        self.exits = exits
        self.enters = {r: np.unique(e_read[r_read == r]) for r in np.unique(r_read).tolist()}
        self.exit_at = {r: np.array(sorted(e), dtype=np.int64) for r, e in exits.items()}

    def ready(self, slot: int) -> bool:
        """Whether every enter exit ``slot`` reads lies behind its rank's cursor."""
        need = self.need[slot]
        return self.extend(self.lo[slot], need) >= need

    def landed(self, slot: int, value: float) -> Optional[tuple[list, list, list]]:
        """Record the exit's forward stamp; when it was its block's last,
        ``(ranks, enter indices, caps)`` of the block's enters (``inf``
        where no exit waits), and the stamps no block reads any more are dropped."""
        lo = self.lo[slot]
        self.recv[slot] = value
        self.pending[lo] -= 1
        if self.pending[lo]:
            return None
        del self.pending[lo]
        hi = int(self.indptr[np.searchsorted(self.indptr, lo) + 1])
        lmin = self.lmin[lo][None] if isinstance(self.lmin, list) else self.lmin
        need = np.array([self.need[lo:hi]]) - lo
        caps = block_caps(np.array([self.recv[lo:hi]]), lmin, need)[0]
        readers = self.readers
        for key in zip(self.ranks[lo:self.reach[lo]], self.enter_idx[lo:self.reach[lo]]):
            readers[key] -= 1
            if not readers[key]:
                del readers[key], self.values[key]
        return self.ranks[lo:hi], self.enter_idx[lo:hi], caps.tolist()


# ----------------------------------------------------------------------
# Streaming forward pass
# ----------------------------------------------------------------------
class _Sources(NamedTuple):
    """A resident shard's source rows, ascending by receive.

    ``q`` is the receive's list index (shard event ``q - 1``), ``rank``
    and ``idx`` name its send, ``wait`` is the log index the send's
    rank's cursor must pass (``-1`` for an own send earlier in the log,
    which the cursor passes on the way).  The lists hold what a landing
    reads: ``key`` the send's ``(rank, idx)`` key, ``stamp`` its input
    stamp, and ``bound`` the rows that land whatever moved — an own
    send, or an input-stage floor ``stamp + l_min`` above the receive's
    input stamp.
    """

    q: np.ndarray
    rank: np.ndarray
    idx: np.ndarray
    lmin: np.ndarray
    wait: np.ndarray
    q_list: list
    key: list
    stamp: list
    lmin_list: list
    bound: list


class _RankForward:
    """One rank's forward pass, advanced shard by shard.

    The arithmetic is :func:`repro.sync.schedule.forward_recurrence`,
    run over one shard at a time with a one-slot prefix holding the
    previous shard's last original value, on which its corrected value
    lands, so the recurrence reads ``corr[q - 1]`` uniformly across
    shard boundaries (splitting a stretch at a shard or visit boundary
    changes no bit).  What is kept here is what streaming needs: which
    shard is resident, where the cursor stands in it, the shard's source
    rows, sends, constraining enters and constrained exits — list
    indices, taken from the shard's columns once — the completed blocks
    whose caps it spills, and the carries.
    """

    __slots__ = (
        "rank", "recs", "si", "lo", "n_s", "corr", "stretch", "land", "settle",
        "sp_ptr", "cur", "passed", "rows", "row_ptr", "send_q", "send_ts", "send_ptr",
        "enter_q", "enter_ptr", "exit_q", "exit_slot", "exit_ptr", "block_caps",
        "prev_orig", "prev_corr", "writes", "finished", "jumps", "fwd_paths", "fwd_span",
    )

    def __init__(self, rank, recs) -> None:
        self.rank = rank
        self.recs = recs
        self.si = -1
        self.corr = None
        self.finished = not recs
        self.prev_orig = 0.0
        self.prev_corr = 0.0
        self.writes = 0  # events this rank's forward pass moved
        self.jumps: list[tuple[int, float, float]] = []  # (local idx, jump, value)
        self.fwd_paths: list[Path] = []
        self.fwd_span: list[tuple[float, float]] = []  # per shard: (first, max) forward time

    def load_next(self, cols, gamma, rows: np.ndarray, lmin: LminSpec, coll: _CollectiveDeps):
        """Make the next shard (its columns ``cols``, stamps as the CLC takes
        them) resident, with ``rows``, its bucket of source rows."""
        self.si += 1
        rec = self.recs[self.si]
        ts, et = cols[0], cols[1]
        rank, lo, n = self.rank, rec.start, rec.events
        self.lo, self.n_s = lo, n
        # List index ``q`` is the shard's event ``q - 1``.
        rows = rows[np.argsort(rows["i"], kind="stable")]
        q = rows["i"] - (lo - 1)
        src, idx, stamp = rows["r"], rows["j"], rows["v"]
        lm = resolve_lmin(lmin, src, np.full(src.size, rank))
        own = src == rank
        self.rows = _Sources(
            q, src, idx, lm, np.where(own & (idx < rows["i"]), -1, idx),
            q.tolist(), (src << _RANK_SHIFT | idx).tolist(), stamp.tolist(), lm.tolist(),
            np.flatnonzero(own | (stamp + lm > ts[q - 1])).tolist(),
        )
        self.row_ptr = 0
        sends = np.flatnonzero(et == _SEND)
        self.send_q, self.send_ts, self.send_ptr = (sends + 1).tolist(), ts[sends].tolist(), 0

        def here(at: np.ndarray) -> np.ndarray:
            return at[np.searchsorted(at, lo):np.searchsorted(at, lo + n)] - (lo - 1)

        enters = here(coll.enters.get(rank, np.empty(0, dtype=np.int64)))
        exits = here(coll.exit_at.get(rank, np.empty(0, dtype=np.int64)))
        self.enter_q, self.enter_ptr = enters.tolist(), 0
        self.exit_q, self.exit_ptr = exits.tolist(), 0
        self.exit_slot = [coll.exits[rank][lo + p - 1] for p in self.exit_q]
        self.block_caps = ([], [], [])  # ranks, enter indices, caps of blocks completed here
        # The log's very first event has no predecessor for the follow
        # rule to read.  What is read back: the carried slot, the last
        # slot (the next carry), and every send, receive with a source,
        # constraining enter and constrained exit.
        self.corr, _, _, self.stretch, self.land, self.settle = forward_recurrence(
            np.append(self.prev_orig, ts), gamma,
            heads=[1] if lo == 0 and n else [],
            reads=np.concatenate([[0, n], sends + 1, q, enters, exits]),
        )
        self.land(0, self.prev_corr)
        self.prev_orig = float(ts[-1])
        self.sp_ptr = 0
        self.cur = self.passed = 1

    def moved_sends(self, k0: int, k1: int) -> list[tuple[int, float]]:
        """``(key, forward stamp)`` of each of the shard's sends ``k0..k1-1`` the pass moved."""
        corr, base = self.corr, (self.rank << _RANK_SHIFT) + self.lo - 1
        return [
            (base + q, corr[q])
            for q, t in zip(self.send_q[k0:k1], self.send_ts[k0:k1]) if corr[q] > t
        ]

    def first_waiting(self, cursor: np.ndarray) -> int:
        """The first source row at or after ``row_ptr`` whose send does not
        lie behind its rank's cursor, or the row count.

        The next :data:`~repro.sync.schedule.HEAD` rows are checked one at
        a time, the rest by :func:`repro.sync.schedule.first_waiting`'s
        windows, the rule the compiled walk follows too.  On the
        benchmark's 2×500k store its 16 visits run to the end of the rows
        and the head changes nothing measurable."""
        rows, n = self.rows, self.rows.q.size
        head = min(self.row_ptr + HEAD, n)
        for r in range(self.row_ptr, head):
            if rows.wait[r] >= cursor[rows.rank[r]]:
                return r
        return first_waiting(rows.wait, rows.rank, cursor, head, n)

    def flush_shard(self, tmpdir: Path, spill: _Spill) -> None:
        """Save the shard's forward times, spill its send caps, drop it."""
        path = tmpdir / f"fwd_r{self.rank}_s{self.si}.npy"
        fwd, written = self.settle()
        fwd = fwd[1:]
        self.writes += int(np.count_nonzero(written))  # moved positions, the carry's 0 aside
        np.save(path, fwd)
        self.fwd_paths.append(path)
        self.fwd_span.append((float(fwd[0]), float(fwd.max())))
        self.prev_corr = self.corr[self.n_s]
        self.corr = self.stretch = self.land = self.settle = None
        # Every receive's cap on its send, in log order, then the blocks
        # completed here.
        rows, (b_ranks, b_idx, b_caps) = self.rows, self.block_caps
        ranks = np.concatenate([rows.rank, np.array(b_ranks, dtype=np.int64)])
        idx = np.concatenate([rows.idx, np.array(b_idx, dtype=np.int64)])
        vals = np.concatenate([nudged_caps(fwd[rows.q - 1], rows.lmin), b_caps])
        if ranks.size:
            spill.add(ranks, idx, vals)
        self.rows = self.block_caps = None
        if self.si + 1 >= len(self.recs):
            self.finished = True


# ----------------------------------------------------------------------
# Streaming backward amortization
# ----------------------------------------------------------------------
def _backward_pass(st: _RankForward, window: float, caps: _Spill, resident, tele) -> None:
    """Single reverse pass over one rank's forward temp files.

    One :func:`repro.sync.clc.amortize_segment` call per shard, the
    ``(advance, time, output)`` of each shard's first event carried to
    its left neighbour — bit-identical to amortizing the whole log as
    one segment.  A shard whose largest forward time lies at or below
    every later jump's ramp cut is reached by no window: it stays on
    disk untouched and hands on the carry of an event that did not move.
    """
    ks = np.array([k for k, _, _ in st.jumps], dtype=np.int64)
    js = np.array([j for _, j, _ in st.jumps], dtype=np.float64)
    vs = np.array([v for _, _, v in st.jumps], dtype=np.float64)
    cuts = ramp_cuts(js, vs, window)
    carry = None
    for si in range(len(st.recs) - 1, -1, -1):
        rec = st.recs[si]
        lo, n_s = rec.start, rec.events
        first, top = st.fwd_span[si]
        later = ks > lo
        if not later.any() or top <= cuts[later].min():
            carry = (0.0, first, first)
            continue
        times = np.load(st.fwd_paths[si])
        resident.read(n_s)
        caps_shard = np.full(n_s, np.inf, dtype=np.float64)
        records = caps.load(st.rank, si)
        if records.size:
            np.minimum.at(caps_shard, records["i"] - lo, records["v"])
        out, carry = amortize_segment(
            times, (ks - lo, js, vs), window, caps_shard, carry, tele
        )
        if out is not times:
            np.save(st.fwd_paths[si], out)
        resident.release(n_s)


# ----------------------------------------------------------------------
# The sweeps of one streamed correction
# ----------------------------------------------------------------------
class ShardSweeps:
    """The sweeps of one correction over one sharded source.

    ``correction`` (a :class:`~repro.sync.interpolation.ClockCorrection`,
    or ``None`` for the stamps as stored) is evaluated on every shard as
    it becomes resident; ``lmin`` is the clock-condition floor of the
    verdicts and the CLC's message-latency bound.
    """

    def __init__(
        self,
        source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
        correction=None,
        lmin: LminSpec = 0.0,
        telemetry=None,
    ) -> None:
        self.chunked = _source_is_chunked(source)
        self.reader = self.chunked.reader
        self.correction = correction
        self.lmin = lmin
        self.tele = ensure_telemetry(telemetry)
        self.resident = _Resident(self.tele)
        self.by_id = not any(  # the rule of ``Trace.messages``: no send without an id
            rec.neg_send_ids for r in self.chunked.ranks for rec in self.reader.rank_shards(r)
        )
        self.starts = {
            r: np.array([rec.start for rec in self.reader.rank_shards(r)], dtype=np.int64)
            for r in self.chunked.ranks
        }
        self.collectives: Optional[CollectiveTable] = None
        #: The source rows of every matched receive (set by ``prescan(sources=True)``).
        self.sources: Optional[_Spill] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

    # -- shard access ------------------------------------------------------
    def _load(self, rec) -> tuple[np.ndarray, ...]:
        """One shard's ``(ts, et, a, b, c, d)``, the stamps as stored, now resident."""
        cols = self.reader.load_shard(rec)
        self.resident.read(rec.events)
        return cols

    def _corrected(self, rank: int, raw: np.ndarray) -> np.ndarray:
        """Timestamps after the interpolation (an elementwise map)."""
        return raw if self.correction is None else self.correction.apply_rank(rank, raw)

    def _stamps(self, rank: int, raw: np.ndarray) -> list[np.ndarray]:
        """A resident shard's timestamps under each verdict stage: stored, then corrected."""
        return [raw] if self.correction is None else [raw, self._corrected(rank, raw)]

    def _ordinal_order(self):
        """Every ``(rank, shard record)``, first shards first (all ranks abreast)."""
        per_rank = {r: self.reader.rank_shards(r) for r in self.chunked.ranks}
        for si in range(max(map(len, per_rank.values()), default=0)):
            for rank, recs in per_rank.items():
                if si < len(recs):
                    yield rank, recs[si]

    # -- sweep 1 -----------------------------------------------------------
    def prescan(
        self, verdicts: bool = True, sources: bool = False
    ) -> list[dict[str, ViolationReport]]:
        """Pair the collectives, join the messages, with ``verdicts`` scan every stage (Eq. 1).

        Returns one ``{"p2p": ..., "collective": ...}`` per stage — the
        stamps as stored and, with a correction, the interpolated ones —
        each equal to :func:`repro.sync.violations.scan_trace` on the
        materialized trace of that stage (counts, violation indices in
        message-table order, worst magnitude); none without ``verdicts``.
        Either way the read leaves the collective table; with
        ``sources`` it also spills the source row of every matched
        receive for the forward sweep of :meth:`clc`.
        """
        ranks = self.chunked.ranks
        stages = (1 if self.correction is None else 2) if verdicts else 0
        rows = [{r: [] for r in ranks} for _ in range(max(stages, 1))]
        if sources:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-stream-")
            self.sources = _Spill(Path(self._tmp.name), "src", _SOURCE_DTYPE, self.starts)
        keys = MatchKeys(self.by_id)
        join = _MessageJoin(stages, self.lmin, self.sources if sources else None)
        recv_seen = dict.fromkeys(ranks, 0)
        for rank, rec in self._ordinal_order():
            raw, et, a, b, _, d = self._load(rec)
            (sends, send_keys), (recvs, recv_keys) = keys.ends(rank, et, a, b, d)
            coll = collective_rows(rec.start, raw, et, a, b, d)
            # The verdicts read the transfer and collective stamps only, so
            # the stages are evaluated there: per stage, [sends, recvs, collectives].
            at = np.concatenate([sends, recvs, coll[1] - rec.start])
            stamps = [
                np.split(ts, [sends.size, sends.size + recvs.size])
                for ts in (self._stamps(rank, raw[at]) if verdicts else [])
            ]
            for stage, (*_, ts) in enumerate(stamps or [[coll[2]]]):
                rows[stage][rank].append(coll[:2] + (ts,) + coll[3:])
            sides = [
                (key, np.full(pos.size, rank, dtype=np.int64), np.arange(pos.size) + recv_seen[rank],
                 pos + rec.start, np.array([ts[k] for ts in stamps]).reshape(len(stamps), pos.size))
                for k, (pos, key) in enumerate(((sends, send_keys), (recvs, recv_keys)))
            ]
            recv_seen[rank] += recvs.size
            join.feed(sides[0] + (self._corrected(rank, raw[sends]),), sides[1])
            self.resident.release(rec.events)
        tables = [pair_collectives(r) for r in rows]
        self.collectives = tables[0]
        if not verdicts:
            return []
        out = [{"p2p": p2p} for p2p in join.reports(ranks, recv_seen)]
        for report, table in zip(out, tables):
            report["collective"] = replace(
                scan_messages(logical_messages(table), self.lmin), kind="collective"
            )
        return out

    # -- interpolation alone -------------------------------------------------
    def apply(self, out_dir: Union[str, Path]) -> ChunkedTrace:
        """Write the interpolated trace as a sharded store of its own."""
        reader = self.reader
        meta = dict(self.chunked.meta)
        meta["correction"] = repr(self.correction)
        writer = ShardedTraceWriter(
            out_dir, shard_events=reader.shard_events, run_id=reader.run_id or "interp"
        )
        with self.tele.span("sync.stream.interpolate"), writer:
            for rank in self.chunked.ranks:
                writer.register_rank(rank)
                for rec in reader.rank_shards(rank):
                    raw, *rest = self._load(rec)
                    writer.append_batch(rank, self._corrected(rank, raw), *rest)
                    self.resident.release(rec.events)
            writer.finish(meta=meta)
        self._count_written(writer)
        return ChunkedTrace(ShardedTraceReader(Path(out_dir)))

    def _count_written(self, writer: ShardedTraceWriter) -> None:
        if self.tele.enabled:
            self.tele.count("sync.stream.shards_written", writer._seq)

    # -- sweeps 2 and 3 --------------------------------------------------------
    def _interpolated(self, rec) -> tuple[np.ndarray, ...]:
        """A shard made resident, its stamps as the CLC takes them (interpolated)."""
        raw, *rest = self._load(rec)
        return (self._corrected(rec.rank, raw), *rest)

    def clc(
        self,
        out_dir: Union[str, Path],
        gamma: float = 0.99,
        amortization_window: Optional[float] = None,
        shard_events: Optional[int] = None,
    ) -> ClcResult:
        """Forward sweep, backward amortization, and the output written once.

        The source rows and every temp file live for this one call: the
        temp directory is removed on the way out, raised or not."""
        chunked, reader, tele, resident = self.chunked, self.reader, self.tele, self.resident
        try:
            # Parameter validation shared with the in-memory corrector.
            ControlledLogicalClock(gamma=gamma, amortization_window=amortization_window)
            if self.sources is None:
                with tele.span("sync.stream.prescan"):
                    self.prescan(verdicts=False, sources=True)
            events = chunked.total_events()
            tmpdir = Path(self._tmp.name)
            caps = _Spill(tmpdir, "caps", _CAPS_DTYPE, self.starts)
            with tele.span("sync.stream.forward", events=events):
                states, njumps, max_jump, lands, visits = self._forward(gamma, tmpdir, caps)
            if tele.enabled:
                tele.count("sync.clc.events", events)
                tele.count("sync.clc.jumps", njumps)
                tele.count("sync.clc.forward_writes", sum(st.writes for st in states.values()))
                tele.count("sync.stream.lands", lands)
                tele.count("sync.stream.visits", visits)

            window = amortization_window
            if window is None:
                window = ControlledLogicalClock._auto_window(max_jump)
            if window > 0:
                with tele.span("sync.stream.amortize", window=window):
                    for rank in chunked.ranks:
                        if states[rank].jumps:
                            _backward_pass(states[rank], window, caps, resident, tele)

            # Finalize: statistics + sharded output.
            stats = ClcStats()
            out_meta = dict(chunked.meta)
            if self.correction is not None:
                out_meta["correction"] = repr(self.correction)
            out_meta["clc"] = {"gamma": gamma, "window": window, "jumps": njumps}
            writer = ShardedTraceWriter(
                out_dir,
                shard_events=shard_events or reader.shard_events,
                run_id=reader.run_id or ("clc" if self.correction is None else "interp"),
            )
            with tele.span("sync.stream.finalize"), writer:
                for rank in chunked.ranks:
                    writer.register_rank(rank)
                    for si, rec in enumerate(reader.rank_shards(rank)):
                        orig, *rest = self._interpolated(rec)
                        corr = np.load(states[rank].fwd_paths[si])
                        resident.read(0)  # the same events' corrected stamps
                        stats.add(orig, corr, continues=si > 0)
                        writer.append_batch(rank, corr, *rest)
                        resident.release(rec.events)
                writer.finish(meta=out_meta)
            self._count_written(writer)
        finally:
            if self._tmp is not None:
                self._tmp.cleanup()
            self.sources = self._tmp = None

        corrected = ChunkedTrace(ShardedTraceReader(Path(out_dir)))
        return stats.result(corrected, events, njumps, max_jump)

    def _forward(self, gamma: float, tmpdir: Path, caps: _Spill):
        """Round-robin streaming forward pass over every rank's shards.

        Returns per-rank forward state (temp file paths, jump lists), the
        global jump count and maximum jump, the receives and exits
        landed, and the visits that moved a cursor.

        A receive is landed — :func:`~repro.sync.schedule.forward_recurrence`'s
        ``land`` run on it with its send's forward stamp plus ``l_min`` —
        only if its send moved (it was published), its send is on its
        own rank (read after the cursor passed it), or its floor on the
        input stamps binds (``send + l_min > recv``, one
        :func:`~repro.sync.violations.resolve_lmin` op per shard); every
        block exit that reads an enter is landed.  Every other receive is
        a plain event of a ``stretch``: the rule the in-memory
        :func:`~repro.sync.schedule.clc_forward` follows too, exact by
        the argument in ``forward_recurrence``'s docstring.
        """
        ranks = self.chunked.ranks
        cursor = np.zeros(max(ranks, default=-1) + 1, dtype=np.int64)
        # Moved sends, by (rank, idx) key -> forward stamp, until their receive lands.
        published: dict[int, float] = {}
        coll = _CollectiveDeps(self.collectives, self.lmin, cursor)
        values = coll.values
        states = {r: _RankForward(r, self.reader.rank_shards(r)) for r in ranks}
        njumps = lands = visits = 0
        max_jump = 0.0

        def pass_to(st: _RankForward, cur: int) -> None:
            """Move ``st``'s cursor to list index ``cur``: publish the moved
            sends and record the constraining enters it passes."""
            if cur == st.passed:
                return
            st.passed = cur
            k0 = st.send_ptr
            k1 = st.send_ptr = bisect_left(st.send_q, cur, k0)
            if k1 > k0:
                published.update(st.moved_sends(k0, k1))
            e0 = st.enter_ptr
            e1 = st.enter_ptr = bisect_left(st.enter_q, cur, e0)
            rank, corr, before = st.rank, st.corr, st.lo - 1
            for q in st.enter_q[e0:e1]:
                values[rank, before + q] = corr[q]
            cursor[rank] = before + cur

        def advance(st: _RankForward) -> bool:
            """Run ``st`` to its shard's end or its first source not yet behind a cursor."""
            nonlocal njumps, max_jump, lands, visits
            progress = False
            if st.corr is None:
                if st.finished:
                    return False
                st.load_next(
                    self._interpolated(st.recs[st.si + 1]), gamma,
                    self.sources.load(st.rank, st.si + 1), self.lmin, coll,
                )
                progress = True
            rows, corr, stretch, land = st.rows, st.corr, st.stretch, st.land
            was = st.lo + st.passed
            r = st.row_ptr
            nb = st.first_waiting(cursor)
            stop = rows.q_list[nb] if nb < len(rows.q_list) else st.n_s + 1
            # The rows this visit lands, in log order: the bound ones and
            # those whose send was published.
            at = rows.bound[bisect_left(rows.bound, r):bisect_left(rows.bound, nb)]
            if published:
                keys = rows.key
                moved = [i for i in range(r, nb) if keys[i] in published]
                if moved:
                    at = sorted({*at, *moved})
            qs = [rows.q_list[i] for i in at]
            qs.append(stop)
            exit_q, ep = st.exit_q, st.exit_ptr
            cur, sp_ptr, li = st.cur, st.sp_ptr, 0
            while True:
                q = qs[li]
                exit_here = ep < len(exit_q) and exit_q[ep] < q
                if exit_here:
                    q = exit_q[ep]
                elif q == stop:
                    break
                if cur < q:
                    sp_ptr = stretch(cur, q, sp_ptr)
                    cur = q
                    progress = True
                # The own cursor reaches the event first: an own send, or an
                # N-to-N exit's own enter, is read behind it.
                pass_to(st, cur)
                slot = -1
                if exit_here:
                    slot = st.exit_slot[ep]
                    if not coll.ready(slot):
                        break
                    floor = coll.floor(slot)
                    ep += 1
                else:
                    i = at[li]
                    floor = published.pop(rows.key[i], rows.stamp[i]) + rows.lmin_list[i]
                    li += 1
                jump = land(q, floor)
                value = corr[q]
                lands += 1
                if slot >= 0 and (done := coll.landed(slot, value)) is not None:
                    for column, new in zip(st.block_caps, done):
                        column.extend(new)
                if jump:
                    st.jumps.append((st.lo + q - 1, jump, value))
                    njumps += 1
                    if jump > max_jump:
                        max_jump = jump
                cur = q + 1
                progress = True
            if not exit_here and cur < stop:
                sp_ptr = stretch(cur, stop, sp_ptr)
                cur = stop
                progress = True
            st.cur, st.sp_ptr, st.exit_ptr = cur, sp_ptr, ep
            st.row_ptr = bisect_left(rows.q_list, cur, r)
            pass_to(st, cur)
            if st.lo + st.passed > was:
                visits += 1
            if cur > st.n_s:
                st.flush_shard(tmpdir, caps)
                self.resident.release(st.n_s)
            return progress

        unfinished = [r for r in ranks if not states[r].finished]
        while unfinished:
            any_progress = False
            for rank in unfinished:
                if advance(states[rank]):
                    any_progress = True
            unfinished = [r for r in unfinished if not states[r].finished]
            if unfinished and not any_progress:
                raise SynchronizationError(
                    "streaming CLC stalled: every rank is blocked on a source "
                    "its rank's cursor has not passed (a dependency cycle, or "
                    "match ids that are not unique)"
                )
        return states, njumps, max_jump, lands, visits


# ----------------------------------------------------------------------
# The one-stage cases
# ----------------------------------------------------------------------
def streaming_clc_correct(
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    out_dir: Union[str, Path],
    gamma: float = 0.99,
    amortization_window: Optional[float] = None,
    lmin: LminSpec = 0.0,
    telemetry=None,
    shard_events: Optional[int] = None,
) -> ClcResult:
    """Apply the CLC to a sharded trace, writing a sharded corrected trace.

    Bit-identical to
    :meth:`ControlledLogicalClock.correct <repro.sync.clc.ControlledLogicalClock.correct>`
    on the materialized trace (same ``gamma`` / window / lmin), with the
    peak resident set bounded by one shard per rank plus carried
    boundary state.  The returned :class:`~repro.sync.clc.ClcResult`
    carries a :class:`~repro.tracing.store.ChunkedTrace` over
    ``out_dir``.
    """
    sweeps = ShardSweeps(source, None, lmin, telemetry)
    return sweeps.clc(out_dir, gamma, amortization_window, shard_events)


def streaming_scan_trace(
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    lmin: LminSpec = 0.0,
    telemetry=None,
) -> dict[str, ViolationReport]:
    """Eq. 1 scan over a sharded trace, one shard resident at a time.

    Matches :func:`repro.sync.violations.scan_trace` on the
    materialized trace exactly (counts, violation indices in message-
    table order, worst magnitude); unmatched transfer ends are dropped
    as with ``strict=False`` matching.
    """
    sweeps = ShardSweeps(source, None, lmin, telemetry)
    with sweeps.tele.span("sync.stream.scan", events=sweeps.chunked.total_events()):
        return sweeps.prescan()[0]


def streaming_apply_correction(
    correction,
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    out_dir: Union[str, Path],
    telemetry=None,
) -> ChunkedTrace:
    """Apply a :class:`~repro.sync.interpolation.ClockCorrection` per shard.

    The per-rank offset model is evaluated on one shard's timestamps at
    a time — identical to ``correction.apply(trace)`` because the model
    is elementwise.  Returns a :class:`ChunkedTrace` over ``out_dir``.
    """
    return ShardSweeps(source, correction, telemetry=telemetry).apply(out_dir)
