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
* the **forward** sweep is the in-memory forward pass — the same
  driver, :func:`repro.sync.schedule.walk`, and landing loop,
  :func:`repro.sync.schedule.lander` — over windows that are resident
  shards, each one :func:`repro.sync.schedule.forward_recurrence`
  overlay with its outside sources and carried predecessor in slots
  before it (see :meth:`ShardSweeps._forward`).  When the walk reaches
  a window's end the shard is flushed — forward times saved, its
  receives' send caps (one :func:`repro.sync.schedule.nudged_caps` op)
  spilled to the senders' per-shard bucket files — and the next one is
  loaded; the blocks' caps follow the sweep
  (:func:`repro.sync.schedule.sized_block_caps`).
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
out).  Who constrains whom comes from
:func:`repro.sync.collectives_map.collective_constraints`; this module
only names its blocks' enters by ``(rank, log index)``.

Boundary-state requirement: match ids must be unique, as
simulator-written traces guarantee.  A dependency cycle (corrupt trace)
leaves the walk short and raises
:class:`~repro.errors.SynchronizationError`, as in memory.  The
``streamed_matches_inmemory`` oracle in :mod:`repro.verify.oracles`
enforces the bit-identity contract.
"""

from __future__ import annotations

import tempfile
from bisect import bisect_left
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.sync.clc import (
    ClcResult,
    ClcStats,
    ControlledLogicalClock,
    amortize_segment,
    ramp_cuts,
)
from repro.sync.collectives_map import collective_constraints, logical_messages
from repro.sync.schedule import (
    Window,
    block_floors,
    block_lmin,
    bound_dependents,
    forward_recurrence,
    lander,
    nudged_caps,
    sized_block_caps,
    walk,
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
# Streaming forward pass
# ----------------------------------------------------------------------
class _Blocks:
    """The collective blocks, named by ``(rank, log index)`` for the driver.

    :func:`repro.sync.collectives_map.collective_constraints` lays every
    instance out as blocks, as for the compiled schedule: ``walk`` is the
    driver's ``(b_lo, b_need, enter log index, enter rank position)``.
    ``enters`` names the enters some exit reads and ``exits`` the exits
    that read one (:meth:`_keyed`).  An enter's forward stamp is read
    from its rank's resident window until that shard is flushed, then
    from ``stamps`` (by slot); an exit's is kept in ``recv`` as its
    shard is flushed, and the enters' send caps are taken once every exit
    has been (:meth:`caps`).
    """

    def __init__(self, table: CollectiveTable, lmin: LminSpec, pos: np.ndarray, lanes: list) -> None:
        blocks = collective_constraints(table)
        members = blocks.members
        self.indptr, self.need = blocks.indptr, blocks.need
        self.rank = ranks = table.ranks[members]
        self.enter_idx = table.enter_idx[members]
        self.lmin = block_lmin(lmin, blocks.indptr, ranks)
        self.walk = b_lo, b_need, b_enter, b_pos = (
            blocks.lo.tolist(), blocks.need.tolist(), self.enter_idx.tolist(), pos[ranks].tolist()
        )
        self.stamps = np.zeros(members.size)  # per slot: its enter's forward stamp, once flushed
        self.kept = np.zeros(members.size, dtype=bool)
        self.recv = np.zeros(members.size)  # per slot: its exit's forward stamp

        def enter_stamps(lo: int, hi: int) -> list:
            out = self.stamps[lo:hi].tolist()
            for k in np.flatnonzero(~self.kept[lo:hi]).tolist():  # still resident
                corr, _, shift = lanes[b_pos[lo + k]][:3]
                out[k] = corr[b_enter[lo + k] + shift]
            return out

        self.floor = block_floors(b_lo, b_need, self.lmin, enter_stamps)
        # Per slot: the end of the slots its block's exits read.
        starts, sizes = blocks.indptr[:-1], np.diff(blocks.indptr)
        reach = np.repeat(np.maximum.reduceat(blocks.need, starts), sizes)
        read = np.arange(members.size) < reach
        waits = blocks.need > blocks.lo
        self.enters = self._keyed(pos[ranks[read]], self.enter_idx[read], np.flatnonzero(read))
        self.exits = self._keyed(pos[ranks[waits]], table.exit_idx[members][waits],
                                 np.flatnonzero(waits))

    @staticmethod
    def _keyed(rank_pos: np.ndarray, idx: np.ndarray, slots: np.ndarray):
        """``(keys, slots)``: events keyed ``rank_pos << _RANK_SHIFT | idx``, sorted."""
        keys = rank_pos << _RANK_SHIFT | idx
        order = np.argsort(keys, kind="stable")
        return keys[order], slots[order]

    def caps(self, spill: _Spill) -> None:
        """Spill every block's enters' send caps, in the in-memory kernel's
        order (:func:`repro.sync.schedule.sized_block_caps`)."""
        indptr = self.indptr
        slots, caps = sized_block_caps(indptr[:-1], np.diff(indptr), self.need, self.recv, self.lmin)
        spill.add(self.rank[slots], self.enter_idx[slots], caps)


class _Channel:
    """Moved sends' forward stamps, carried to the windows of their receives.

    A send is keyed ``rank << _RANK_SHIFT | log index``.  An opened window
    reads every source outside its shard from an overlay slot of its own
    (:meth:`open`); :meth:`publish` writes a moved send's stamp into that
    slot if the window is resident (``lanes[rank position]``), else holds
    it until the window opens.  An unmoved send's slot keeps its input
    stamp.
    """

    def __init__(self, lanes: list) -> None:
        self.lanes = lanes
        self.sent: dict[int, float] = {}  # key -> stamp, its receive's window not open yet
        self.waiting: dict[int, int] = {}  # key -> rank position << 32 | slot

    def publish(self, key: int, value: float) -> None:
        at = self.waiting.pop(key, -1)
        if at < 0:
            self.sent[key] = value
        else:
            corr, moved, _ = self.lanes[at >> 32][:3]
            corr[at & 0xFFFFFFFF] = value
            moved[at & 0xFFFFFFFF] = 1

    def open(self, rp: int, keys: list[int]) -> None:
        """Rank position ``rp``'s window opened; its overlay slot ``i`` reads send ``keys[i]``."""
        self.waiting.update(zip(keys, range(rp << 32, (rp << 32) + len(keys))))
        for key in self.sent.keys() & keys:
            self.publish(key, self.sent.pop(key))

    def close(self, keys: list[int]) -> None:
        """The window reading ``keys`` is flushed: what did not move stays unpublished."""
        list(map(self.waiting.pop, keys, repeat(None)))


class _RankForward:
    """One rank's forward pass, one resident shard at a time: the driver's window.

    :meth:`load` lays a shard out for :func:`repro.sync.schedule.lander`
    as one :func:`repro.sync.schedule.forward_recurrence` overlay: a slot
    per source outside the shard (its send's input stamp until the
    channel brings a moved one), a slot for the previous shard's last
    event (its corrected stamp landed on its original one, so splitting
    a stretch at the shard boundary changes no bit), then the shard.
    Kept besides: the sends to publish, the constraining enters and exits
    to record at the flush, and the carries.
    """

    __slots__ = (
        "rank", "recs", "si", "lo", "n_s", "settle", "lane", "keys", "sends",
        "enters", "exits", "rows", "prev_orig", "prev_corr", "writes", "jump_at",
        "jump_size", "jump_stamps", "fwd_paths", "fwd_span",
    )

    def __init__(self, rank, recs) -> None:
        self.rank = rank
        self.recs = recs
        self.si = -1
        self.prev_orig = 0.0
        self.prev_corr = 0.0
        self.writes = 0  # events this rank's forward pass moved
        self.jump_at: list[int] = []  # each jump's local index
        self.jump_size: list[float] = []
        self.jump_stamps: list[float] = []  # each jump's forward stamp
        self.fwd_paths: list[Path] = []
        self.fwd_span: list[tuple[float, float]] = []  # per shard: (first, max) forward time

    def load(self, cols, gamma, rows: np.ndarray, lmin: LminSpec, blocks: _Blocks,
             pos: np.ndarray) -> Window:
        """Make the next shard (its columns ``cols``, stamps as the CLC takes
        them) resident with ``rows``, its bucket of source rows; its window."""
        self.si += 1
        rank, rec = self.rank, self.recs[self.si]
        ts, et = cols[0], cols[1]
        lo, n = self.lo, self.n_s = rec.start, rec.events
        rows = rows[np.argsort(rows["i"], kind="stable")]
        src, idx, stamp = rows["r"], rows["j"], rows["v"]
        lm = resolve_lmin(lmin, src, np.full(src.size, rank))
        own = src == rank
        # A source in this shard is read where it is; any other gets a prefix slot.
        far = np.flatnonzero(~(own & (idx >= lo) & (idx < lo + n)))
        m = far.size
        shift = m + 1 - lo
        at = idx + shift
        at[far] = np.arange(m)
        self.keys = (src[far] << _RANK_SHIFT | idx[far]).tolist()

        def here(events: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
            """The log indices and slots of this shard's ``events`` (``_Blocks._keyed``)."""
            keys, slots = events
            cut = slice(*np.searchsorted(keys, (pos[rank] << _RANK_SHIFT) + np.array([lo, lo + n])))
            return keys[cut] & ((1 << _RANK_SHIFT) - 1), slots[cut]

        exit_idx, exit_slot = here(blocks.exits)
        self.exits = (exit_idx - lo, exit_slot)
        # The dependents, in log order: the receives (one row each), then
        # the exits (none), merged.
        dep = np.concatenate([rows["i"], exit_idx])
        order = np.argsort(dep, kind="stable")
        is_row = order < src.size
        slot = np.concatenate([np.full(src.size, -1), exit_slot])[order]
        indptr = np.concatenate([[0], np.cumsum(is_row)])
        dep = dep[order]
        self.rows = (rows["i"] - lo, src, idx, lm)  # what the send caps read at flush
        bound = bound_dependents(slot, indptr, stamp + lm, own, ts[dep - lo])
        self.sends = (np.flatnonzero(et == _SEND) + lo).tolist()
        enter_idx, enter_slot = here(blocks.enters)
        self.enters = (enter_idx - lo, enter_slot)
        # The prefix and the carried slot are heads, and so is the log's
        # very first event.  Read back as they are: the constraining enters.
        orig = np.concatenate([stamp[far], [self.prev_orig], ts])
        corr, moved, spont, stretch, land, self.settle = forward_recurrence(
            orig, gamma, heads=np.arange(m + 2 if lo == 0 and n else m + 1), reads=enter_idx + shift
        )
        land(m, self.prev_corr)
        self.prev_orig = float(ts[-1])
        exits, slot, indptr = np.flatnonzero(slot >= 0).tolist(), slot.tolist(), indptr.tolist()
        self.lane = (
            corr, moved, shift, memoryview(orig), spont, stretch, land, (dep + shift).tolist(),
            indptr, at.tolist(), lm.tolist(), slot, bound.tolist(), np.flatnonzero(bound).tolist(),
            shift, self.jump_at, self.jump_size,
        )
        wait = np.where(own & (idx < rows["i"]), -1, idx)
        return Window(
            lo + n, 0, dep.size, dep.tolist(), indptr, wait.tolist(), pos[src].tolist(), slot,
            exits, wait, pos[src],
        )

    def flush_shard(self, tmpdir: Path, spill: _Spill, blocks: _Blocks, channel: _Channel) -> None:
        """Save the shard's forward times, spill its receives' send caps, drop it."""
        path = tmpdir / f"fwd_r{self.rank}_s{self.si}.npy"
        fwd, written = self.settle()
        top = self.lane[2] + self.lo  # the shard's first event: prefix and carry aside
        fwd = fwd[top:]
        self.writes += int(np.count_nonzero(written >= top))
        np.save(path, fwd)
        self.fwd_paths.append(path)
        self.fwd_span.append((float(fwd[0]), float(fwd.max())))
        self.prev_corr = float(fwd[-1])
        channel.close(self.keys)
        at, slots = self.enters
        blocks.stamps[slots], blocks.kept[slots] = fwd[at], True
        at, slots = self.exits
        blocks.recv[slots] = fwd[at]
        stamped = len(self.jump_stamps)
        self.jump_stamps += fwd[np.array(self.jump_at[stamped:], dtype=np.int64) - self.lo].tolist()
        at, src, idx, lm = self.rows
        spill.add(src, idx, nudged_caps(fwd[at], lm))
        self.lane = self.settle = self.rows = self.keys = self.sends = None


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
    ks = np.array(st.jump_at, dtype=np.int64)
    js = np.array(st.jump_size, dtype=np.float64)
    vs = np.array(st.jump_stamps, dtype=np.float64)
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
        _, carry = amortize_segment(times, (ks - lo, js, vs), window, caps_shard, carry, tele)
        np.save(st.fwd_paths[si], times)
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
    ) -> ClcResult:
        """Forward sweep, backward amortization, and the output written once,
        sharded like the input.

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
                        if states[rank].jump_at:
                            _backward_pass(states[rank], window, caps, resident, tele)

            # Finalize: statistics + sharded output.
            stats = ClcStats()
            out_meta = dict(chunked.meta)
            if self.correction is not None:
                out_meta["correction"] = repr(self.correction)
            out_meta["clc"] = {"gamma": gamma, "window": window, "jumps": njumps}
            writer = ShardedTraceWriter(
                out_dir,
                shard_events=reader.shard_events,
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
        """The forward sweep: :func:`repro.sync.schedule.walk` over every rank's shards.

        Returns per-rank forward state (temp file paths, jump lists), the
        global jump count and maximum jump, the receives and exits
        landed, and the visits that moved a cursor.

        A rank's window is its resident shard, landed by the in-memory
        pass's loop, :func:`repro.sync.schedule.lander`; the walk opens
        the next once the last is flushed.  What the loop reads from
        outside a shard is there before a visit reads it: a moved send is
        published as its rank's cursor passes it (:class:`_Channel`), an
        enter read from its resident shard or as kept at its flush.
        """
        ranks = self.chunked.ranks
        pos = np.zeros(max(ranks, default=-1) + 1, dtype=np.int64)
        pos[ranks] = np.arange(len(ranks))
        # Per rank position, its resident shard's lane: (corr, moved, shift, ...).
        lanes: list[Optional[tuple]] = [None] * len(ranks)
        blocks = _Blocks(self.collectives, self.lmin, pos, lanes)
        channel = _Channel(lanes)
        states = [_RankForward(r, self.reader.rank_shards(r)) for r in ranks]
        land_visit, totals = lander(lanes, blocks.floor)

        def open_window(rp: int) -> Optional[Window]:
            st = states[rp]
            if st.si + 1 == len(st.recs):
                return None
            window = st.load(
                self._interpolated(st.recs[st.si + 1]), gamma,
                self.sources.load(st.rank, st.si + 1), self.lmin, blocks, pos,
            )
            lanes[rp] = st.lane
            channel.open(rp, st.keys)
            return window

        def land(rp: int, start: int, stop: int, first: int, last: int) -> None:
            land_visit(rp, start, stop, first, last)
            st = states[rp]
            corr, moved, shift = st.lane[:3]
            if moved.find(1, start + shift, stop + shift) >= 0:  # publish the moved sends passed
                sends, key = st.sends, st.rank << _RANK_SHIFT
                for i in sends[bisect_left(sends, start):bisect_left(sends, stop)]:
                    if moved[i + shift]:
                        channel.publish(key | i, corr[i + shift])
            if stop == st.lo + st.n_s:
                st.flush_shard(tmpdir, caps, blocks, channel)
                lanes[rp] = None
                self.resident.release(st.n_s)

        lengths = [sum(rec.events for rec in st.recs) for st in states]
        steps, _, _ = walk([0] * len(states), lengths, open_window, blocks.walk, land)
        blocks.caps(caps)
        lands, njumps, max_jump = totals()
        return {st.rank: st for st in states}, njumps, max_jump, lands, len(steps)


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
    return sweeps.clc(out_dir, gamma, amortization_window)


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
