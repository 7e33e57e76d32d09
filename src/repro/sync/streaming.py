"""Bounded-memory streaming CLC and violation scans over sharded traces.

The in-memory kernels of :mod:`repro.sync.clc` and
:mod:`repro.sync.violations` require the whole trace (and its
:class:`~repro.sync.schedule.CompiledSchedule`) resident in RAM.  The
functions here reproduce them **bit-identically** over a
:class:`~repro.tracing.store.ChunkedTrace` while keeping the peak
resident set at O(one shard per rank + carried boundary state):

* :func:`streaming_clc_correct` — the controlled logical clock.  The
  forward pass is the in-memory kernel's, in the same shape: the
  arithmetic is :func:`repro.sync.schedule.forward_recurrence` (follow
  rule, glide tail, spontaneous positions, jump test — written there
  only), run one resident shard at a time with the carried predecessor
  in the slot before it, and the order is found the way
  :func:`repro.sync.schedule.cursor_walk` finds it: a rank advances
  until it reaches a receive whose matching send, or a collective exit
  whose member enters, have not been published yet (ranks are visited
  round-robin here; a blocked rank costs a visit one lookup, not a
  shard).  What this module
  adds is what streaming needs — shard residency, publish/block by
  match id or FIFO channel (sources are not known by ``(rank, idx)``
  before their shard was read), caps spill, carries.  Send caps spill
  to per-shard bucket files; the
  backward amortization is a single reverse pass over each flagged
  rank's shards — :func:`repro.sync.clc.amortize_segment` per shard,
  with three scalar carries (the next shard's first advance,
  timestamp, and re-clamped output) — that neither loads nor rewrites
  a shard no amortization window reaches.  Statistics accumulate
  shard by shard in the in-memory path's :class:`repro.sync.clc.ClcStats`,
  and the corrected trace is written back out as a sharded store.
* :func:`streaming_scan_trace` — Eq. 1 violation scan.  Point-to-point
  matching streams with the same id/FIFO semantics as
  :meth:`Trace.messages(strict=False) <repro.tracing.trace.Trace.messages>`
  (unmatched ends dropped); collective instances accumulate and are
  expanded through the in-memory logical-message mapping.

Nothing about collectives is decided here: enters and exits are paired
by :func:`repro.tracing.trace.pair_collectives` (fed one shard's
collective rows at a time) and who constrains whom comes from
:func:`repro.sync.collectives_map.collective_pairs` — this module only
re-keys those pairs for its publish/block state machine.
* :func:`streaming_apply_correction` — per-shard offset interpolation.

Boundary-state requirements: every receive's matching send must come
from the rank named in its source field, and match ids must be unique.
Simulator-written traces guarantee both.  A dependency cycle (corrupt
trace) stalls every rank and raises
:class:`~repro.errors.SynchronizationError`, mirroring the in-memory
replay.  The ``streamed_matches_inmemory`` oracle in
:mod:`repro.verify.oracles` enforces the bit-identity contract.
"""

from __future__ import annotations

import tempfile
from bisect import bisect_left, bisect_right
from collections import deque
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
from repro.sync.collectives_map import collective_pairs, logical_messages
from repro.sync.schedule import forward_recurrence
from repro.sync.violations import LminSpec, ViolationReport, pair_lmin, scan_messages
from repro.telemetry import ensure_telemetry
from repro.tracing.events import EventType
from repro.tracing.store import ChunkedTrace, ShardedTraceReader, ShardedTraceWriter
from repro.tracing.trace import CollectiveTable, collective_rows, pair_collectives

__all__ = [
    "streaming_clc_correct",
    "streaming_scan_trace",
    "streaming_apply_correction",
]

_SEND = int(EventType.SEND)
_RECV = int(EventType.RECV)
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


def _id_mode(reader: ShardedTraceReader) -> bool:
    """Ground-truth match ids available?  (Same rule as ``Trace``.)"""
    return not any(rec.neg_send_ids for rank in reader.ranks for rec in reader.rank_shards(rank))


class _Resident:
    """Peak-resident-events accounting shared by all streaming passes."""

    __slots__ = ("tele", "cur")

    def __init__(self, tele) -> None:
        self.tele = tele
        self.cur = 0

    def load(self, events: int) -> None:
        self.cur += events
        if self.tele.enabled:
            self.tele.count("sync.stream.shards_read")
            self.tele.gauge_max("sync.clc.peak_resident_events", self.cur)

    def release(self, events: int) -> None:
        self.cur -= events


# ----------------------------------------------------------------------
# Collective pre-scan
# ----------------------------------------------------------------------
def _accumulate_collectives(chunked: ChunkedTrace, resident: _Resident) -> CollectiveTable:
    """One streaming pass pairing every rank's collective enters and exits."""
    rows: dict[int, list] = {}
    for rank in chunked.ranks:
        rows[rank] = []
        for rec, (ts, et, a, b, _, d) in chunked.iter_shards(rank):
            resident.load(rec.events)
            rows[rank].append(collective_rows(rec.start, ts, et, a, b, d))
            resident.release(rec.events)
    return pair_collectives(rows)


def _collective_deps(table: CollectiveTable):
    """The collective pairs, keyed the way the streaming forward pass reads them.

    Returns ``(publish, exit_deps, consumers)``:

    * ``publish[rank]`` — ``{local enter idx: instance}`` for enters some
      other rank's exit depends on;
    * ``exit_deps[rank]`` — ``{local exit idx: [(member rank, instance),
      ...]}`` in :func:`repro.sync.order.dependency_edges` order;
    * ``consumers[(instance, rank)]`` — number of exits reading that
      publication (for cleanup).
    """
    publish: dict[int, dict[int, int]] = {}
    exit_deps: dict[int, dict[int, list[tuple[int, int]]]] = {}
    consumers: dict[tuple[int, int], int] = {}
    receivers, senders = collective_pairs(table)
    instance = np.repeat(table.instance, np.diff(table.starts))[receivers]
    for inst, dst, exit_idx, src, enter_idx in zip(
        instance.tolist(),
        table.ranks[receivers].tolist(), table.exit_idx[receivers].tolist(),
        table.ranks[senders].tolist(), table.enter_idx[senders].tolist(),
    ):
        exit_deps.setdefault(dst, {}).setdefault(exit_idx, []).append((src, inst))
        publish.setdefault(src, {})[enter_idx] = inst
        consumers[(inst, src)] = consumers.get((inst, src), 0) + 1
    return publish, exit_deps, consumers


# ----------------------------------------------------------------------
# Caps spill
# ----------------------------------------------------------------------
class _CapsSpill:
    """Per-(rank, shard) bucket files of ``(event index, cap)`` records."""

    def __init__(self, tmpdir: Path, shard_starts: dict[int, list[int]]) -> None:
        self.tmpdir = tmpdir
        self.starts = shard_starts
        self.buffers: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def _path(self, rank: int, ordinal: int) -> Path:
        return self.tmpdir / f"caps_r{rank}_s{ordinal}.bin"

    def add(self, rank: int, idx: int, val: float) -> None:
        ordinal = bisect_right(self.starts[rank], idx) - 1
        key = (rank, ordinal)
        buf = self.buffers.setdefault(key, [])
        buf.append((idx, val))
        if len(buf) >= _CAPS_BUFFER:
            self._flush(key)

    def _flush(self, key: tuple[int, int]) -> None:
        buf = self.buffers[key]
        with self._path(*key).open("ab") as fh:
            fh.write(np.array(buf, dtype=_CAPS_DTYPE).tobytes())
        buf.clear()

    def load(self, rank: int, ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        path = self._path(rank, ordinal)
        spilled = path.read_bytes() if path.exists() else b""
        arr = np.concatenate([
            np.frombuffer(spilled, dtype=_CAPS_DTYPE),
            np.array(self.buffers.get((rank, ordinal), []), dtype=_CAPS_DTYPE),
        ])
        return arr["i"].astype(np.int64, copy=False), arr["v"].astype(np.float64, copy=False)


# ----------------------------------------------------------------------
# Streaming forward pass
# ----------------------------------------------------------------------
class _RankForward:
    """One rank's forward pass, advanced shard by shard.

    The arithmetic is :func:`repro.sync.schedule.forward_recurrence`,
    run over one shard at a time with a one-slot prefix holding the
    previous shard's last original/corrected value, so the recurrence
    reads ``corr[q - 1]`` uniformly across shard boundaries (splitting
    a stretch at a shard or publication boundary changes no bit).  What
    is kept here is what streaming needs: which shard is resident, where
    the cursor stands in it, the events to stop at or publish, and the
    carries.
    """

    __slots__ = (
        "rank", "recs", "reader", "gamma", "si", "cols",
        "lo", "n_s", "corr", "stretch", "land", "sp_ptr",
        "stops", "stop_ptr", "pubs", "pub_ptr", "cur",
        "prev_orig", "prev_corr", "finished", "jumps", "resident",
        "fwd_paths", "fwd_span", "tmpdir",
    )

    def __init__(self, rank, recs, reader, gamma, tmpdir, resident) -> None:
        self.rank = rank
        self.recs = recs
        self.reader = reader
        self.gamma = gamma
        self.tmpdir = tmpdir
        self.resident = resident
        self.si = -1
        self.cols = None
        self.finished = not recs
        self.prev_orig = 0.0
        self.prev_corr = 0.0
        self.jumps: list[tuple[int, float, float]] = []  # (local idx, jump, value)
        self.fwd_paths: list[Path] = []
        self.fwd_span: list[tuple[float, float]] = []  # per shard: (first, max) forward time

    # -- shard management ------------------------------------------------
    def load_next(self, publish, exit_deps) -> None:
        self.si += 1
        rec = self.recs[self.si]
        cols = self.cols = self.reader.load_shard(rec)
        self.resident.load(rec.events)
        self.lo = rec.start
        self.n_s = rec.events
        # List index ``i + 1`` is the shard's event ``i``; the log's very
        # first event has no predecessor for the follow rule to read.
        self.corr, _, self.stretch, self.land = forward_recurrence(
            np.append(self.prev_orig, np.asarray(cols[0], dtype=np.float64)),
            self.gamma,
            heads=[1] if self.lo == 0 and rec.events else [],
        )
        self.corr[0] = self.prev_corr
        self.sp_ptr = 0
        et = cols[1]
        my_pub = publish.get(self.rank, {})
        my_exits = exit_deps.get(self.rank, {})
        stops = []  # (list index, code): 0 = recv, 1 = constrained coll exit
        pubs = []   # list indices of sends and constraining enters
        for i in np.nonzero(et == _RECV)[0]:
            stops.append((int(i) + 1, 0))
        for i in np.nonzero(et == _CEXIT)[0]:
            if self.lo + int(i) in my_exits:
                stops.append((int(i) + 1, 1))
        for i in np.nonzero(et == _SEND)[0]:
            pubs.append(int(i) + 1)
        for i in np.nonzero(et == _CENT)[0]:
            if self.lo + int(i) in my_pub:
                pubs.append(int(i) + 1)
        stops.sort()
        pubs.sort()
        self.stops = stops
        self.stop_ptr = 0
        self.pubs = pubs
        self.pub_ptr = 0
        self.cur = 1

    def stretch_to(self, stop: int) -> None:
        """Run the dependency-free events up to list index ``stop``."""
        self.sp_ptr = self.stretch(self.cur, stop, self.sp_ptr)
        self.cur = stop

    def flush_shard(self) -> None:
        path = self.tmpdir / f"fwd_r{self.rank}_s{self.si}.npy"
        fwd = np.asarray(self.corr[1:], dtype=np.float64)
        np.save(path, fwd)
        self.fwd_paths.append(path)
        self.fwd_span.append((float(fwd[0]), float(fwd.max())))
        self.prev_orig = float(self.cols[0][-1])
        self.prev_corr = self.corr[self.n_s]
        self.resident.release(self.n_s)
        self.cols = None
        self.corr = self.stretch = self.land = None
        if self.si + 1 >= len(self.recs):
            self.finished = True


def _forward_pass(
    chunked, reader, gamma, lmin_fn, id_mode, publish, exit_deps,
    consumers, caps, tmpdir, resident,
):
    """Round-robin streaming forward pass over every rank's shards.

    Returns per-rank forward state (temp file paths, jump lists) plus
    the global jump count and maximum jump.
    """
    ranks = chunked.ranks
    states = {r: _RankForward(r, reader.rank_shards(r), reader, gamma, tmpdir, resident)
              for r in ranks}
    pending_sends: dict[int, tuple[float, int, int]] = {}  # mid -> (corr, rank, idx)
    fifo_sends: dict[tuple[int, int, int], deque] = {}     # (src, dst, tag) -> deque
    coll_pubs: dict[tuple[int, int], tuple[float, int]] = {}  # (inst, rank) -> (corr, idx)
    njumps = 0
    max_jump = 0.0

    def publish_upto(st: _RankForward) -> None:
        """Publish sends / constraining enters the cursor moved past."""
        pubs = st.pubs
        k = st.pub_ptr
        npub = len(pubs)
        cols = st.cols
        my_pub = publish.get(st.rank, {})
        while k < npub and pubs[k] < st.cur:
            q = pubs[k]
            k += 1
            i = q - 1
            value = st.corr[q]
            gidx = st.lo + i
            if int(cols[1][i]) == _SEND:
                if id_mode:
                    pending_sends[int(cols[5][i])] = (value, st.rank, gidx)
                else:
                    key = (st.rank, int(cols[2][i]), int(cols[3][i]))
                    fifo_sends.setdefault(key, deque()).append((value, st.rank, gidx))
            else:
                coll_pubs[(my_pub[gidx], st.rank)] = (value, gidx)
        st.pub_ptr = k

    def resolve_recv(st: _RankForward, i: int):
        """The receive's edge ``(corr, rank, idx)``, ``None`` for no dep, or 'block'."""
        cols = st.cols
        if id_mode:
            mid = int(cols[5][i])
            if mid < 0:
                return None
            edge = pending_sends.pop(mid, None)
            if edge is not None:
                return edge
            src = int(cols[2][i])
            if src not in states or states[src].finished:
                return None
            return "block"
        key = (int(cols[2][i]), st.rank, int(cols[3][i]))
        q = fifo_sends.get(key)
        if q:
            return q.popleft()
        src = key[0]
        if src not in states or states[src].finished:
            return None
        return "block"

    def advance(st: _RankForward) -> bool:
        nonlocal njumps, max_jump
        progress = False
        if st.cols is None:
            if st.finished:
                return False
            st.load_next(publish, exit_deps)
            progress = True
        my_exits = exit_deps.get(st.rank, {})
        while True:
            if st.cur > st.n_s:
                publish_upto(st)
                st.flush_shard()
                return True
            while st.stop_ptr < len(st.stops) and st.stops[st.stop_ptr][0] < st.cur:
                st.stop_ptr += 1
            if st.stop_ptr >= len(st.stops):
                st.stretch_to(st.n_s + 1)
                publish_upto(st)
                progress = True
                continue
            q, code = st.stops[st.stop_ptr]
            i = q - 1
            gidx = st.lo + i
            # Stretch up to the stop and publish the sends/enters this
            # passes over BEFORE resolving the stop's own dependency —
            # a peer may be blocked waiting for exactly those values.
            if st.cur < q:
                st.stretch_to(q)
                publish_upto(st)
                progress = True
            # Gather this event's dependency edges (or block).
            if code == 0:
                edge = resolve_recv(st, i)
                if edge == "block":
                    publish_upto(st)
                    return progress
                edges = [] if edge is None else [edge]
            else:
                needed = my_exits[gidx]
                edges = []
                blocked = False
                for m_rank, inst in needed:
                    pub = coll_pubs.get((inst, m_rank))
                    if pub is None:
                        blocked = True
                        break
                    edges.append((pub[0], m_rank, pub[1]))
                if blocked:
                    publish_upto(st)
                    return progress
                for m_rank, inst in needed:
                    key = (inst, m_rank)
                    consumers[key] -= 1
                    if consumers[key] == 0:
                        del coll_pubs[key]
            # The dependency-event update, under the largest remote floor.
            remote_floor = -np.inf
            lms = []
            for s_corr, s_rank, s_idx in edges:
                lm = lmin_fn(s_rank, st.rank)
                lms.append(lm)
                floor = s_corr + lm
                if floor > remote_floor:
                    remote_floor = floor
            jump = st.land(q, remote_floor)
            value = st.corr[q]
            if jump:
                st.jumps.append((gidx, jump, value))
                njumps += 1
                if jump > max_jump:
                    max_jump = jump
            st.cur = q + 1
            st.stop_ptr += 1
            # Send caps for every consumed edge (reference nudge loop).
            for (s_corr, s_rank, s_idx), lm in zip(edges, lms):
                cap = value - lm
                while cap + lm > value:
                    cap = float(np.nextafter(cap, -np.inf))
                caps.add(s_rank, s_idx, cap)
            publish_upto(st)
            progress = True

    unfinished = set(r for r in ranks if not states[r].finished)
    while unfinished:
        any_progress = False
        for rank in ranks:
            st = states[rank]
            if st.finished and st.cols is None:
                unfinished.discard(rank)
                continue
            if advance(st):
                any_progress = True
            if st.finished and st.cols is None:
                unfinished.discard(rank)
        if unfinished and not any_progress:
            raise SynchronizationError(
                "streaming CLC stalled: every rank is blocked on an unpublished "
                "dependency (dependency cycle, or a receive whose matching send "
                "is recorded under a different source rank)"
            )
    return states, njumps, max_jump


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
        resident.load(n_s)
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
# Entry point: streaming CLC
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
    # Parameter validation shared with the in-memory corrector.
    ControlledLogicalClock(gamma=gamma, amortization_window=amortization_window)
    chunked = _source_is_chunked(source)
    reader = chunked.reader
    tele = ensure_telemetry(telemetry)
    resident = _Resident(tele)
    lmin_fn = pair_lmin(lmin)
    id_mode = _id_mode(reader)
    out_dir = Path(out_dir)

    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        tmpdir = Path(tmp)
        with tele.span("sync.stream.prescan"):
            if include_collectives:
                publish, exit_deps, consumers = _collective_deps(
                    _accumulate_collectives(chunked, resident)
                )
            else:
                publish, exit_deps, consumers = {}, {}, {}
        shard_starts = {
            r: [rec.start for rec in reader.rank_shards(r)] for r in chunked.ranks
        }
        caps = _CapsSpill(tmpdir, shard_starts)
        with tele.span("sync.stream.forward", events=chunked.total_events()):
            states, njumps, max_jump = _forward_pass(
                chunked, reader, gamma, lmin_fn, id_mode, publish, exit_deps,
                consumers, caps, tmpdir, resident,
            )
        if tele.enabled:
            tele.count("sync.clc.events", chunked.total_events())
            tele.count("sync.clc.jumps", njumps)

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
        out_meta["clc"] = {"gamma": gamma, "window": window, "jumps": njumps}
        writer = ShardedTraceWriter(
            out_dir,
            shard_events=shard_events or reader.shard_events,
            run_id=reader.run_id or "clc",
        )
        with tele.span("sync.stream.finalize"), writer:
            for rank in chunked.ranks:
                writer.register_rank(rank)
                st = states[rank]
                for si, (rec, cols) in enumerate(chunked.iter_shards(rank)):
                    resident.load(rec.events)
                    corr = np.load(st.fwd_paths[si])
                    stats.add(np.asarray(cols[0], dtype=np.float64), corr, continues=si > 0)
                    writer.append_batch(
                        rank, corr, cols[1], cols[2], cols[3], cols[4], cols[5]
                    )
                    resident.release(rec.events)
            writer.finish(meta=out_meta)
        if tele.enabled:
            tele.count("sync.stream.shards_written", writer._seq)

    return stats.result(
        ChunkedTrace(ShardedTraceReader(out_dir)), chunked.total_events(), njumps, max_jump
    )


# ----------------------------------------------------------------------
# Streaming violation scan
# ----------------------------------------------------------------------
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
    chunked = _source_is_chunked(source)
    reader = chunked.reader
    tele = ensure_telemetry(telemetry)
    resident = _Resident(tele)
    lmin_fn = pair_lmin(lmin)
    id_mode = _id_mode(reader)
    ranks = chunked.ranks

    pending_sends: dict[int, tuple[float, int]] = {}   # mid -> (ts, src rank)
    pending_recvs: dict[int, tuple[float, int, int]] = {}  # mid -> (ts, rank, r_ord)
    fifo_sends: dict[tuple[int, int, int], deque] = {}
    fifo_parked: dict[tuple[int, int, int], deque] = {}
    recv_seen: dict[int, int] = {r: 0 for r in ranks}
    unmatched: dict[int, list[int]] = {r: [] for r in ranks}
    violators: list[tuple[int, int]] = []  # (dst rank, recv ordinal in rank)
    worst = 0.0
    coll_rows: dict[int, list] = {r: [] for r in ranks}

    def emit(sts: float, src: int, rts: float, dst: int, r_ord: int) -> None:
        nonlocal worst
        slack = rts - (sts + lmin_fn(src, dst))
        if slack < 0:
            violators.append((dst, r_ord))
            if -slack > worst:
                worst = -slack

    per_rank = {r: reader.rank_shards(r) for r in ranks}
    max_shards = max((len(v) for v in per_rank.values()), default=0)
    with tele.span("sync.stream.scan", events=chunked.total_events()):
        for si in range(max_shards):
            for rank in ranks:
                if si >= len(per_rank[rank]):
                    continue
                rec = per_rank[rank][si]
                ts, et, a, b, _, d = reader.load_shard(rec)
                resident.load(rec.events)
                if include_collectives:
                    coll_rows[rank].append(collective_rows(rec.start, ts, et, a, b, d))
                et_arr = np.asarray(et)
                msg_pos = np.nonzero((et_arr == _SEND) | (et_arr == _RECV))[0]
                r_ord = recv_seen[rank]
                for i in msg_pos:
                    code = int(et_arr[i])
                    if code == _SEND:
                        t_i = float(ts[i])
                        if id_mode:
                            mid = int(d[i])
                            hit = pending_recvs.pop(mid, None)
                            if hit is not None:
                                emit(t_i, rank, hit[0], hit[1], hit[2])
                            else:
                                pending_sends[mid] = (t_i, rank)
                        else:
                            key = (rank, int(a[i]), int(b[i]))
                            parked = fifo_parked.get(key)
                            if parked:
                                rts, ro = parked.popleft()
                                emit(t_i, rank, rts, key[1], ro)
                            else:
                                fifo_sends.setdefault(key, deque()).append(t_i)
                    else:
                        t_i = float(ts[i])
                        if id_mode:
                            mid = int(d[i])
                            if mid < 0:
                                unmatched[rank].append(r_ord)
                            else:
                                hit = pending_sends.pop(mid, None)
                                if hit is not None:
                                    emit(hit[0], hit[1], t_i, rank, r_ord)
                                else:
                                    pending_recvs[mid] = (t_i, rank, r_ord)
                        else:
                            key = (int(a[i]), rank, int(b[i]))
                            q = fifo_sends.get(key)
                            parked = fifo_parked.get(key)
                            if q and not parked:
                                emit(q.popleft(), key[0], t_i, rank, r_ord)
                            else:
                                fifo_parked.setdefault(key, deque()).append((t_i, r_ord))
                        r_ord += 1
                recv_seen[rank] = r_ord
                resident.release(rec.events)

    # Leftover pending receives are unmatched (strict=False semantics).
    for mid, (_, rank, r_ord) in pending_recvs.items():
        unmatched[rank].append(r_ord)
    for key, parked in fifo_parked.items():
        for _, r_ord in parked:
            unmatched[key[1]].append(r_ord)

    matched_per_rank = {
        r: recv_seen[r] - len(unmatched[r]) for r in ranks
    }
    offsets: dict[int, int] = {}
    total = 0
    for r in ranks:
        offsets[r] = total
        total += matched_per_rank[r]
    for r in ranks:
        unmatched[r].sort()
    ordinals = sorted(
        offsets[r] + ro - bisect_left(unmatched[r], ro) for r, ro in violators
    )
    p2p = ViolationReport(
        "p2p", total, len(ordinals), np.asarray(ordinals, dtype=np.int64), worst
    )
    out = {"p2p": p2p}
    if include_collectives:
        logical = logical_messages(pair_collectives(coll_rows))
        out["collective"] = replace(scan_messages(logical, lmin), kind="collective")
    return out


# ----------------------------------------------------------------------
# Streaming offset interpolation
# ----------------------------------------------------------------------
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
    chunked = _source_is_chunked(source)
    reader = chunked.reader
    tele = ensure_telemetry(telemetry)
    resident = _Resident(tele)
    meta = dict(chunked.meta)
    meta["correction"] = repr(correction)
    writer = ShardedTraceWriter(
        out_dir, shard_events=reader.shard_events, run_id=reader.run_id or "interp"
    )
    with tele.span("sync.stream.interpolate"), writer:
        for rank in chunked.ranks:
            writer.register_rank(rank)
            for rec, cols in chunked.iter_shards(rank):
                resident.load(rec.events)
                new_ts = correction.apply_rank(rank, np.asarray(cols[0], dtype=np.float64))
                writer.append_batch(rank, new_ts, cols[1], cols[2], cols[3], cols[4], cols[5])
                resident.release(rec.events)
        writer.finish(meta=meta)
    return ChunkedTrace(ShardedTraceReader(Path(out_dir)))
