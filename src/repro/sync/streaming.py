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
  shard to shard, so the state is O(in-flight messages); the receives
  still pending at the end are the unmatched ones, which the forward
  sweep lets through without waiting (the pre-scan of a correction
  without verdicts runs the join all the same).
  Interpolation is a per-rank elementwise map, so the verdict *after* it
  comes from the same read: every shard's resident timestamps are run
  through :meth:`ClockCorrection.apply_rank
  <repro.sync.interpolation.ClockCorrection.apply_rank>` and both
  stampings of a matched pair are checked.  No interpolated store is
  ever written — each later sweep re-evaluates the map on the shard it
  holds, which yields the same bits as applying it to the whole log.
* the **forward** sweep is the in-memory kernel's forward pass in the
  same shape: the arithmetic is
  :func:`repro.sync.schedule.forward_recurrence` (follow rule, glide
  tail, spontaneous positions, jump test — written there only), run one
  resident shard at a time with the carried predecessor in the slot
  before it.  The shard's stamps stay a numpy array; only the slots read
  back (the carry, the last slot, transfer and collective positions)
  and the events the pass moves become Python floats, and the forward
  temp is the shard with the moved events scattered in.  The order is
  found the way
  :func:`repro.sync.schedule.cursor_walk` finds it: a rank advances
  until it reaches a receive whose matching send, or a collective exit
  whose member enters, have not been published yet (ranks are visited
  round-robin; a blocked rank costs a visit one lookup, not a shard).
  What this module adds is what streaming needs — shard residency,
  publish/block by match key (sources are not known by ``(rank, idx)``
  before their shard was read), carries.  An N-to-N or prefix
  collective is one block here as in the compiled schedule: its exits
  wait on a per-block count of published enters
  (:func:`repro.sync.schedule.block_entered`) and take their floors
  from :func:`repro.sync.schedule.block_floors`, and its enters' send
  caps come from :func:`repro.sync.schedule.block_caps` once its last
  exit has landed.  A shard's transfer positions,
  keys and partner ranks leave numpy once, as lists; sends are published
  a cursor move at a time and the send caps of a shard's receives are
  nudged and spilled to per-shard bucket files in one batch.
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
this module only keys its pairs and blocks for its publish/block state
machine.

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
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

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
    block_caps,
    block_entered,
    block_floors,
    block_lmin,
    forward_recurrence,
    nudged_caps,
)
from repro.sync.violations import (
    LminSpec,
    ViolationReport,
    pair_lmin,
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

_CENT = int(EventType.COLL_ENTER)
_CEXIT = int(EventType.COLL_EXIT)

#: Caps spill records: rank-local event index + cap value.
_CAPS_DTYPE = np.dtype([("i", "<i8"), ("v", "<f8")])
#: In-memory cap records buffered per bucket before hitting disk.
_CAPS_BUFFER = 4096


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
# Message matching
# ----------------------------------------------------------------------
def _rows(side: tuple, sel) -> tuple:
    return tuple(col[..., sel] for col in side)


class _MessageJoin:
    """The pre-scan's message matcher: ``join_keys`` over carried pending ends.

    A *side* is ``(key, rank, ordinal, log index, stamps)`` with one entry
    per transfer event — ``ordinal`` the receive's position among its
    rank's receives (unused for sends) and ``stamps`` a ``(stages, n)``
    array of the event's timestamp under each verdict stage (if any).
    Ends that found no partner yet stay pending, so the state is
    O(in-flight messages); at the end the pending receives are unmatched.
    """

    def __init__(self, stages: int, lmin: LminSpec) -> None:
        ints = np.empty(0, dtype=np.int64)
        self.sends = self.recvs = (ints, ints, ints, ints, np.empty((stages, 0)))
        self.lmin = lmin
        self.violators = [[] for _ in range(stages)]  # per stage: (dst rank, ordinal) arrays
        self.worst = [0.0] * stages

    def feed(self, sends: tuple, recvs: tuple) -> None:
        """Join one shard's transfer events in and check every new pair (Eq. 1)."""
        sends = tuple(np.concatenate(cols, axis=-1) for cols in zip(self.sends, sends))
        recvs = tuple(np.concatenate(cols, axis=-1) for cols in zip(self.recvs, recvs))
        sent, found, unsent = join_keys(sends[0], recvs[0])
        self.sends, self.recvs = _rows(sends, unsent), _rows(recvs, ~found)
        if not self.worst or not sent.size:
            return
        (_, src, *_, sent_ts), (_, dst, ordinal, _, received) = (
            _rows(sends, sent), _rows(recvs, found)
        )
        floors = resolve_lmin(self.lmin, src, dst)
        for stage, slack in enumerate(received - (sent_ts + floors)):
            bad = slack < 0
            if bad.any():
                self.violators[stage].append((dst[bad], ordinal[bad]))
                self.worst[stage] = max(self.worst[stage], float(-slack[bad].min()))

    def unmatched(self, ranks: list[int]) -> dict[int, np.ndarray]:
        """Per rank, the log indices of the receives no send matched."""
        _, rank, _, idx, _ = self.recvs
        return {r: idx[rank == r] for r in ranks}

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
    """The collective constraints, keyed the way the streaming forward pass reads them.

    :func:`repro.sync.collectives_map.collective_constraints` splits them
    into rooted pairs and blocks, as for the compiled schedule.  A
    constraining enter is published under ``(instance, rank)``:

    * ``publish[rank]`` — ``{local enter idx: key}`` for enters some
      other rank's exit depends on;
    * ``exits[rank]`` — ``{local exit idx: [key, ...]}`` for a rooted
      exit (its senders, in :func:`repro.sync.order.dependency_edges`
      order) or ``{local exit idx: slot}`` for a block exit;
    * ``consumers[key]`` — number of rooted exits reading that
      publication (for cleanup).

    A block keeps what :class:`~repro.sync.schedule.CompiledSchedule`
    keeps: the count of its leading slots whose enter is published
    (:func:`repro.sync.schedule.block_entered`, one lookup per check,
    never ``n - 1``), floors from
    :func:`repro.sync.schedule.block_floors`, and — once its last exit
    lands — its enters' send caps from
    :func:`repro.sync.schedule.block_caps`, after which its publications
    are dropped.
    """

    def __init__(self, table: CollectiveTable, lmin: LminSpec, published: dict) -> None:
        self.publish: dict[int, dict[int, tuple[int, int]]] = {}
        self.exits: dict[int, dict] = {}
        self.consumers: dict[tuple[int, int], int] = {}
        (receivers, senders), blocks = collective_constraints(table)
        instance = np.repeat(table.instance, np.diff(table.starts))
        for inst, dst, exit_idx, src, enter_idx in zip(
            instance[receivers].tolist(),
            table.ranks[receivers].tolist(), table.exit_idx[receivers].tolist(),
            table.ranks[senders].tolist(), table.enter_idx[senders].tolist(),
        ):
            key = (inst, src)
            self.exits.setdefault(dst, {}).setdefault(exit_idx, []).append(key)
            self.publish.setdefault(src, {})[enter_idx] = key
            self.consumers[key] = self.consumers.get(key, 0) + 1

        members = blocks.members
        self.ranks = table.ranks[members].tolist()
        self.enter_idx = table.enter_idx[members].tolist()
        self.keys = keys = list(zip(instance[members].tolist(), self.ranks))
        lo, need = blocks.sources()
        self.lo, self.need = lo.tolist(), need.tolist()
        self.indptr, self.prefix = blocks.indptr, blocks.prefix
        self.lmin = block_lmin(lmin, blocks.indptr, table.ranks[members])
        self.published = published
        self.floor = block_floors(
            self.lo, self.need, self.lmin,
            lambda lo, hi: [published[key][0] for key in keys[lo:hi]],
        )
        _, self.extend = block_entered(self.lo, lambda v: keys[v] in published)
        self.pending: dict[int, int] = {}  # block (first slot) -> exits still to land
        self.recv = [0.0] * len(members)  # per slot: its exit's forward stamp
        for slot, (rank, enter_idx, exit_idx, key) in enumerate(
            zip(self.ranks, self.enter_idx, table.exit_idx[members].tolist(), self.keys)
        ):
            self.publish.setdefault(rank, {})[enter_idx] = key
            if self.need[slot] > self.lo[slot]:  # a prefix block's first exit waits for nobody
                self.exits.setdefault(rank, {})[exit_idx] = slot
                self.pending[self.lo[slot]] = self.pending.get(self.lo[slot], 0) + 1

    def ready(self, slot: int) -> bool:
        """Whether every enter block slot ``slot``'s exit depends on is published."""
        need = self.need[slot]
        return self.extend(self.lo[slot], need) >= need

    def landed(self, slot: int, value: float) -> Optional[tuple[list, list, list]]:
        """Record the exit's forward stamp; when it was its block's last,
        ``(ranks, enter indices, caps)`` of the block's enters (``inf``
        where no exit waits) and its publications are dropped."""
        lo = self.lo[slot]
        self.recv[slot] = value
        self.pending[lo] -= 1
        if self.pending[lo]:
            return None
        del self.pending[lo]
        b = int(np.searchsorted(self.indptr, lo))
        hi = int(self.indptr[b + 1])
        lmin = self.lmin[lo][None] if isinstance(self.lmin, list) else self.lmin
        caps = block_caps(np.array([self.recv[lo:hi]]), lmin, bool(self.prefix[b]))[0]
        for key in self.keys[lo:hi]:
            del self.published[key]
        return self.ranks[lo:hi], self.enter_idx[lo:hi], caps.tolist()


# ----------------------------------------------------------------------
# Caps spill
# ----------------------------------------------------------------------
class _CapsSpill:
    """Per-(rank, shard) bucket files of ``(event index, cap)`` records."""

    def __init__(self, tmpdir: Path, shard_starts: dict[int, np.ndarray]) -> None:
        self.tmpdir = tmpdir
        self.starts = shard_starts
        self.buffers: dict[tuple[int, int], list[np.ndarray]] = {}

    def _path(self, rank: int, ordinal: int) -> Path:
        return self.tmpdir / f"caps_r{rank}_s{ordinal}.bin"

    def add(self, ranks: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
        """Record ``vals[k]`` as a cap on event ``idx[k]`` of rank ``ranks[k]``."""
        records = np.empty(idx.size, dtype=_CAPS_DTYPE)
        records["i"], records["v"] = idx, vals
        for rank in np.unique(ranks).tolist():
            mine = records[ranks == rank]
            ordinal = np.searchsorted(self.starts[rank], mine["i"], side="right") - 1
            for o in np.unique(ordinal).tolist():
                key = (rank, o)
                buf = self.buffers.setdefault(key, [])
                buf.append(mine[ordinal == o])
                if sum(map(len, buf)) >= _CAPS_BUFFER:
                    with self._path(*key).open("ab") as fh:
                        fh.write(np.concatenate(buf).tobytes())
                    buf.clear()

    def load(self, rank: int, ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        path = self._path(rank, ordinal)
        spilled = path.read_bytes() if path.exists() else b""
        arr = np.concatenate(
            [np.frombuffer(spilled, dtype=_CAPS_DTYPE), *self.buffers.get((rank, ordinal), [])]
        )
        return arr["i"].astype(np.int64, copy=False), arr["v"].astype(np.float64, copy=False)


# ----------------------------------------------------------------------
# Streaming forward pass
# ----------------------------------------------------------------------
class _RankForward:
    """One rank's forward pass, advanced shard by shard.

    The arithmetic is :func:`repro.sync.schedule.forward_recurrence`,
    run over one shard at a time with a one-slot prefix holding the
    previous shard's last original value, on which its corrected value
    lands, so the recurrence reads ``corr[q - 1]`` uniformly across
    shard boundaries (splitting a stretch at a shard or publication
    boundary changes no bit).  What
    is kept here is what streaming needs: which shard is resident, where
    the cursor stands in it, the events to stop at or publish — python
    lists, taken from the shard's columns once — the send caps its
    receives imply, and the carries.
    """

    __slots__ = (
        "rank", "recs", "si", "lo", "n_s", "corr", "stretch", "land", "settle", "sp_ptr",
        "stops", "stop_ptr", "pubs", "pub_ptr", "cur", "caps",
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

    def load_next(self, cols, gamma, keys: MatchKeys, unmatched, my_pub, my_exits) -> None:
        """Make the next shard (its columns ``cols``, stamps as float64) resident."""
        self.si += 1
        rec = self.recs[self.si]
        ts, et, a, b, _, d = cols
        lo = self.lo = rec.start
        self.n_s = rec.events
        (sends, send_keys), (recvs, recv_keys) = keys.ends(self.rank, et, a, b, d)
        enters = [i for i in np.flatnonzero(et == _CENT).tolist() if lo + i in my_pub]
        exits = [i for i in np.flatnonzero(et == _CEXIT).tolist() if lo + i in my_exits]
        # List index ``i + 1`` is the shard's event ``i``; the log's very
        # first event has no predecessor for the follow rule to read.
        # What is read back: the carried slot, the last slot (the next
        # carry), and every event published or stopped at.
        self.corr, _, self.stretch, self.land, self.settle = forward_recurrence(
            np.append(self.prev_orig, ts), gamma,
            heads=[1] if lo == 0 and rec.events else [],
            reads=np.concatenate([
                [0, rec.events], sends + 1, recvs + 1, np.array(enters + exits, dtype=np.int64) + 1,
            ]),
        )
        self.land(0, self.prev_corr)
        self.prev_orig = float(ts[-1])
        self.sp_ptr = 0
        # Where to stop: (list index, match key, 0) of every receive (key -1
        # if the join left it unmatched: the log indices ``unmatched``),
        # (list index, None, log index) of every constrained collective
        # exit, and the shard's end behind them all.
        if unmatched.size:
            recv_keys[np.isin(recvs + lo, unmatched)] = -1
        self.stops = sorted(
            list(zip((recvs + 1).tolist(), recv_keys.tolist(), [0] * recvs.size))
            + [(i + 1, None, lo + i) for i in exits]
        )
        self.stops.append((rec.events + 1, 0, 0))
        # What to publish: (list index, key) of every send and every
        # constraining enter (list indices differ, so keys never compare).
        self.pubs = sorted(
            list(zip((sends + 1).tolist(), send_keys.tolist()))
            + [(i + 1, my_pub[lo + i]) for i in enters]
        )
        self.stop_ptr = 0
        self.pub_ptr = 0
        self.cur = 1
        # Per consumed edge: source rank, source idx, l_min, value; then
        # per block enter whose block completed here: rank, idx, cap.
        self.caps = ([], [], [], [], [], [], [])

    def flush_shard(self, tmpdir: Path, spill: _CapsSpill) -> None:
        """Save the shard's forward times, spill its send caps, drop it."""
        path = tmpdir / f"fwd_r{self.rank}_s{self.si}.npy"
        fwd, written = self.settle()
        fwd = fwd[1:]
        self.writes += int(np.count_nonzero(written))  # moved positions, the carry's 0 aside
        np.save(path, fwd)
        self.fwd_paths.append(path)
        self.fwd_span.append((float(fwd[0]), float(fwd.max())))
        self.prev_corr = self.corr[self.n_s]
        self.corr = self.stretch = self.land = self.settle = self.stops = self.pubs = None
        ranks, idx, lmins, values, block_ranks, block_idx, block_caps = self.caps
        if ranks or block_ranks:
            vals = nudged_caps(*(np.array(c, dtype=np.float64) for c in (values, lmins)))
            spill.add(
                np.array(ranks + block_ranks, dtype=np.int64),
                np.array(idx + block_idx, dtype=np.int64),
                np.concatenate([vals, block_caps]),
            )
        self.caps = None
        if self.si + 1 >= len(self.recs):
            self.finished = True


# ----------------------------------------------------------------------
# Streaming backward amortization
# ----------------------------------------------------------------------
def _backward_pass(st: _RankForward, window: float, caps: _CapsSpill, resident, tele) -> None:
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
        idx, vals = caps.load(st.rank, si)
        if idx.size:
            np.minimum.at(caps_shard, idx - lo, vals)
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
        include_collectives: bool = True,
        telemetry=None,
    ) -> None:
        self.chunked = _source_is_chunked(source)
        self.reader = self.chunked.reader
        self.correction = correction
        self.lmin = lmin
        self.include_collectives = include_collectives
        self.tele = ensure_telemetry(telemetry)
        self.resident = _Resident(self.tele)
        self.by_id = not any(  # the rule of ``Trace.messages``: no send without an id
            rec.neg_send_ids for r in self.chunked.ranks for rec in self.reader.rank_shards(r)
        )
        self.collectives: Optional[CollectiveTable] = None
        #: Per rank, the log indices of the receives no send matched (set by ``prescan``).
        self.unmatched: Optional[dict[int, np.ndarray]] = None

    # -- shard access ------------------------------------------------------
    def _load(self, rec) -> tuple[np.ndarray, ...]:
        """One shard's ``(ts, et, a, b, c, d)``, the stamps as stored, now resident."""
        cols = self.reader.load_shard(rec)
        self.resident.read(rec.events)
        return cols

    def _corrected(self, rank: int, raw: np.ndarray) -> np.ndarray:
        """A resident shard's timestamps after the interpolation (an elementwise map)."""
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
    def prescan(self, verdicts: bool = True) -> list[dict[str, ViolationReport]]:
        """Pair the collectives, join the messages, with ``verdicts`` scan every stage (Eq. 1).

        Returns one ``{"p2p": ..., "collective": ...}`` per stage — the
        stamps as stored and, with a correction, the interpolated ones —
        each equal to :func:`repro.sync.violations.scan_trace` on the
        materialized trace of that stage (counts, violation indices in
        message-table order, worst magnitude); none without ``verdicts``.
        Either way the read leaves what the forward pass needs: the
        collective table and the receives the join left unmatched.
        """
        ranks = self.chunked.ranks
        stages = (1 if self.correction is None else 2) if verdicts else 0
        rows = [{r: [] for r in ranks} for _ in range(max(stages, 1))]
        keys = MatchKeys(self.by_id)
        join = _MessageJoin(stages, self.lmin)
        recv_seen = dict.fromkeys(ranks, 0)
        for rank, rec in self._ordinal_order():
            raw, et, a, b, _, d = self._load(rec)
            stamps = self._stamps(rank, raw) if verdicts else []
            if self.include_collectives:
                for stage, ts in enumerate(stamps or [raw]):
                    rows[stage][rank].append(collective_rows(rec.start, ts, et, a, b, d))
            sides = [
                (key, np.full(pos.size, rank, dtype=np.int64), np.arange(pos.size) + recv_seen[rank],
                 pos + rec.start, np.array([ts[pos] for ts in stamps]).reshape(len(stamps), pos.size))
                for pos, key in keys.ends(rank, et, a, b, d)
            ]
            recv_seen[rank] += sides[1][0].size
            join.feed(*sides)
            self.resident.release(rec.events)
        self.unmatched = join.unmatched(ranks)
        tables = [pair_collectives(r) for r in rows] if self.include_collectives else []
        if tables:
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
        """Forward sweep, backward amortization, and the output written once."""
        # Parameter validation shared with the in-memory corrector.
        ControlledLogicalClock(gamma=gamma, amortization_window=amortization_window)
        chunked, reader, tele, resident = self.chunked, self.reader, self.tele, self.resident
        if self.unmatched is None:
            with tele.span("sync.stream.prescan"):
                self.prescan(verdicts=False)
        events = chunked.total_events()
        with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
            tmpdir = Path(tmp)
            caps = _CapsSpill(tmpdir, {
                r: np.array([rec.start for rec in reader.rank_shards(r)], dtype=np.int64)
                for r in chunked.ranks
            })
            with tele.span("sync.stream.forward", events=events):
                states, njumps, max_jump = self._forward(gamma, tmpdir, caps)
            if tele.enabled:
                tele.count("sync.clc.events", events)
                tele.count("sync.clc.jumps", njumps)
                tele.count("sync.clc.forward_writes", sum(st.writes for st in states.values()))

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

        corrected = ChunkedTrace(ShardedTraceReader(Path(out_dir)))
        return stats.result(corrected, events, njumps, max_jump)

    def _forward(self, gamma: float, tmpdir: Path, caps: _CapsSpill):
        """Round-robin streaming forward pass over every rank's shards.

        Returns per-rank forward state (temp file paths, jump lists) plus
        the global jump count and maximum jump.
        """
        ranks = self.chunked.ranks
        # Match key (a send) or ``(instance, rank)`` (a constraining
        # enter) -> (corrected time, rank, log index), from the moment
        # the cursor passed the event until its last reader landed.
        published: dict = {}
        table = self.collectives
        if table is None:
            table = pair_collectives({})
        coll = _CollectiveDeps(table, self.lmin, published)
        publish, exit_deps, consumers = coll.publish, coll.exits, coll.consumers
        states = {r: _RankForward(r, self.reader.rank_shards(r)) for r in ranks}
        keys, unmatched = MatchKeys(self.by_id), self.unmatched
        lmin_fn = pair_lmin(self.lmin)
        njumps = 0
        max_jump = 0.0

        def publish_upto(st: _RankForward, cur: int) -> None:
            """Publish the sends / constraining enters before list index ``cur``."""
            k = st.pub_ptr
            stop = st.pub_ptr = bisect_left(st.pubs, (cur,), k)
            corr, rank, before = st.corr, st.rank, st.lo - 1
            published.update(
                (key, (corr[q], rank, before + q)) for q, key in st.pubs[k:stop]
            )

        def advance(st: _RankForward) -> bool:
            """Run ``st`` to its shard's end or its first unpublished dependency."""
            nonlocal njumps, max_jump
            progress = False
            if st.corr is None:
                if st.finished:
                    return False
                st.load_next(
                    self._interpolated(st.recs[st.si + 1]), gamma, keys, unmatched[st.rank],
                    publish.get(st.rank, {}), exit_deps.get(st.rank, {}),
                )
                progress = True
            rank, stops, corr, stretch, land = st.rank, st.stops, st.corr, st.stretch, st.land
            pubs, my_exits = st.pubs, exit_deps.get(rank, {})
            cap_rank, cap_idx, cap_lmin, cap_value, *block_caps = st.caps
            cur, sp_ptr, stop_ptr = st.cur, st.sp_ptr, st.stop_ptr
            while True:
                q, key, at = stops[stop_ptr]  # the last one stands behind the shard's end
                # Stretch up to the stop and publish the sends/enters this
                # passes over BEFORE resolving the stop's own dependency —
                # a peer may be blocked waiting for exactly those values.
                if cur < q:
                    sp_ptr = stretch(cur, q, sp_ptr)
                    cur = q
                    progress = True
                if st.pub_ptr < len(pubs) and pubs[st.pub_ptr][0] < cur:
                    publish_upto(st, cur)
                if q > st.n_s:
                    st.flush_shard(tmpdir, caps)
                    self.resident.release(st.n_s)
                    return True
                # Gather this event's dependency edges (or block).
                slot = -1
                if key is None:  # a collective exit, log index ``at``
                    needed = my_exits[at]
                    if isinstance(needed, int):  # a block's
                        if not coll.ready(needed):
                            break
                        slot, edges = needed, ()
                    else:
                        edges = [published.get(k) for k in needed]
                        if None in edges:
                            break
                        for k in needed:
                            consumers[k] -= 1
                            if consumers[k] == 0:
                                del published[k]
                else:  # a receive: its send's key, or -1 if the join left it unmatched
                    edge = published.pop(key, None)
                    if edge is not None:
                        edges = (edge,)
                    elif key < 0:
                        edges = ()  # nothing to wait for
                    else:
                        break
                # The dependency-event update, under the largest remote floor.
                remote_floor = -np.inf
                for s_corr, s_rank, s_idx in edges:
                    lm = lmin_fn(s_rank, rank)
                    cap_rank.append(s_rank)
                    cap_idx.append(s_idx)
                    cap_lmin.append(lm)
                    if s_corr + lm > remote_floor:
                        remote_floor = s_corr + lm
                if slot >= 0:
                    remote_floor = coll.floor(slot)
                jump = land(q, remote_floor)
                value = corr[q]
                cap_value.extend([value] * len(edges))
                if slot >= 0 and (done := coll.landed(slot, value)) is not None:
                    for column, values in zip(block_caps, done):
                        column.extend(values)
                if jump:
                    st.jumps.append((st.lo + q - 1, jump, value))
                    njumps += 1
                    if jump > max_jump:
                        max_jump = jump
                cur = q + 1
                stop_ptr += 1
                progress = True
            st.cur, st.sp_ptr, st.stop_ptr = cur, sp_ptr, stop_ptr
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
                    "streaming CLC stalled: every rank is blocked on an unpublished "
                    "dependency (a dependency cycle, or match ids that are not unique)"
                )
        return states, njumps, max_jump


# ----------------------------------------------------------------------
# The one-stage cases
# ----------------------------------------------------------------------
def streaming_clc_correct(
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    out_dir: Union[str, Path],
    gamma: float = 0.99,
    amortization_window: Optional[float] = None,
    include_collectives: bool = True,
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
    sweeps = ShardSweeps(source, None, lmin, include_collectives, telemetry)
    return sweeps.clc(out_dir, gamma, amortization_window, shard_events)


def streaming_scan_trace(
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    lmin: LminSpec = 0.0,
    include_collectives: bool = True,
    telemetry=None,
) -> dict[str, ViolationReport]:
    """Eq. 1 scan over a sharded trace, one shard resident at a time.

    Matches :func:`repro.sync.violations.scan_trace` on the
    materialized trace exactly (counts, violation indices in message-
    table order, worst magnitude); unmatched transfer ends are dropped
    as with ``strict=False`` matching.
    """
    sweeps = ShardSweeps(source, None, lmin, include_collectives, telemetry)
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
