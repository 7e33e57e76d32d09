"""The postmortem trace container and record extraction.

A :class:`Trace` bundles the per-rank event logs of one run plus
free-form metadata (machine, timer technology, process locations).  Its
job is to answer the questions the synchronization layer asks:

* :meth:`Trace.messages` — the matched point-to-point messages, i.e.
  (send timestamp, receive timestamp, ranks, indices) for every
  transferred message;
* :meth:`Trace.collectives` — per-instance enter/exit timestamps of
  every collective operation;
* event statistics used by Fig. 7 (fraction of message events).

Matching has one key rule and one join.  :class:`MatchKeys` gives every
transfer event one int64 key that a send shares with its receive: the
simulator's ground-truth ``match_id`` when every send carries one
(every send the simulator appends to a rank's
:class:`~repro.tracing.buffer.TraceBuffer` does), else the event's
position in its FIFO (src, dst, tag) channel — the algorithm real
tools must use for traces without ids (e.g. read from foreign files).
:func:`join_keys` then pairs sends and receives on those keys.
:meth:`Trace.messages` runs it once over every rank's log; the streamed
pre-scan (:mod:`repro.sync.streaming`) runs it shard by shard over the
ends still pending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional

import numpy as np

from repro.errors import MatchingError, TraceError
from repro.tracing.events import CollectiveOp, EventLog, EventType

__all__ = ["Trace", "MessageRecord", "MessageTable", "CollectiveRecord", "CollectiveTable"]


#: FIFO match keys: ``channel number << _SEQ_BITS | position in channel``.
_SEQ_BITS = 40
_TRANSFERS = (int(EventType.SEND), int(EventType.RECV))


class MatchKeys:
    """What a send and its receive share, as one int64 per transfer event.

    With ground-truth match ids (``by_id``: no send carries a negative
    id) the key is the id, and a receive without one (negative) matches
    nothing.  Otherwise matching is FIFO per ``(src, dst, tag)`` channel,
    MPI's non-overtaking rule (a receive's source and tag as recorded,
    wildcards resolved): the k-th send and the k-th receive of a
    channel share the key ``channel number << _SEQ_BITS | k``, channels
    being numbered as they are first seen and their two counts carried
    from call to call.  Feed each rank's events in log order, a whole
    log or one slice at a time.
    """

    def __init__(self, by_id: bool) -> None:
        self.by_id = by_id
        self.channels: dict[tuple[int, int, int], list[int]] = {}  # -> [number, sends, recvs]

    def ends(self, rank: int, etypes, a, b, d) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(positions, keys)`` of the sends, then of the receives, of one
        slice of ``rank``'s log (positions relative to the slice)."""
        out = []
        for recv, code in enumerate(_TRANSFERS):
            pos = np.flatnonzero(etypes == code)
            out.append((pos, d[pos] if self.by_id else self.fifo(rank, bool(recv), a[pos], b[pos])))
        return tuple(out)

    def fifo(self, rank: int, recv: bool, partner: np.ndarray, tag: np.ndarray) -> np.ndarray:
        """FIFO keys of some sends (or receives) of ``rank``, in log order."""
        if not partner.size:
            return partner
        pairs, inverse, counts = np.unique(
            np.stack([partner, tag], axis=1), axis=0, return_inverse=True, return_counts=True
        )
        base = []
        for (other, t), n in zip(pairs.tolist(), counts.tolist()):
            channel = (other, rank, t) if recv else (rank, other, t)
            state = self.channels.setdefault(channel, [len(self.channels), 0, 0])
            base.append((state[0] << _SEQ_BITS) + state[1 + recv])
            state[1 + recv] += n
        order = np.argsort(inverse.ravel(), kind="stable")
        keys = np.empty(partner.size, dtype=np.int64)
        keys[order] = (
            np.repeat(np.array(base, dtype=np.int64) - (np.cumsum(counts) - counts), counts)
            + np.arange(partner.size)
        )
        return keys


def join_keys(send_keys: np.ndarray, recv_keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The sort-join of sends and receives on their :class:`MatchKeys`.

    Returns ``(sent, found, unsent)``: ``found`` marks the receives some
    send shares its key with, ``sent`` holds that send's position for
    each of them (in receive order), and ``unsent`` marks the sends no
    receive claimed.
    """
    if not send_keys.size:
        return send_keys, np.zeros(recv_keys.size, dtype=bool), np.empty(0, dtype=bool)
    order = np.argsort(send_keys, kind="stable")
    keys = send_keys[order]
    pos = np.minimum(np.searchsorted(keys, recv_keys), keys.size - 1)
    found = keys[pos] == recv_keys
    sent = order[pos[found]]
    unsent = np.ones(keys.size, dtype=bool)
    unsent[sent] = False
    return sent, found, unsent


def _gather(timestamps: dict[int, np.ndarray], ranks: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``timestamps[ranks[i]][idx[i]]`` for every ``i``, one gather per distinct rank."""
    out = np.empty(ranks.size, dtype=np.float64)
    order = np.argsort(ranks, kind="stable")
    members, starts = np.unique(ranks[order], return_index=True)
    for rank, sel in zip(members.tolist(), np.split(order, starts[1:])):
        out[sel] = timestamps[rank][idx[sel]]
    return out


@dataclass(frozen=True)
class MessageRecord:
    """Row view of one matched message."""

    src: int
    dst: int
    tag: int
    nbytes: int
    send_ts: float
    recv_ts: float
    send_idx: int  # index into the sender's event log
    recv_idx: int  # index into the receiver's event log


class MessageTable:
    """Columnar set of matched messages (vectorized access)."""

    __slots__ = ("src", "dst", "tag", "nbytes", "send_ts", "recv_ts", "send_idx", "recv_idx")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        tag: np.ndarray,
        nbytes: np.ndarray,
        send_ts: np.ndarray,
        recv_ts: np.ndarray,
        send_idx: np.ndarray,
        recv_idx: np.ndarray,
    ) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.tag = np.asarray(tag, dtype=np.int64)
        self.nbytes = np.asarray(nbytes, dtype=np.int64)
        self.send_ts = np.asarray(send_ts, dtype=np.float64)
        self.recv_ts = np.asarray(recv_ts, dtype=np.float64)
        self.send_idx = np.asarray(send_idx, dtype=np.int64)
        self.recv_idx = np.asarray(recv_idx, dtype=np.int64)

    def with_timestamps(self, timestamps: dict[int, np.ndarray]) -> "MessageTable":
        """The same matches with send/receive times re-read from ``timestamps``.

        Who matched whom does not depend on timestamps, so a trace that
        differs only in its timestamps gets its table from two gathers
        instead of a second matching pass.
        """
        return MessageTable(
            self.src, self.dst, self.tag, self.nbytes,
            _gather(timestamps, self.src, self.send_idx),
            _gather(timestamps, self.dst, self.recv_idx),
            self.send_idx, self.recv_idx,
        )

    def __len__(self) -> int:
        return self.src.size

    def __iter__(self) -> Iterator[MessageRecord]:
        for i in range(len(self)):
            yield self.row(i)

    def row(self, i: int) -> MessageRecord:
        return MessageRecord(
            src=int(self.src[i]),
            dst=int(self.dst[i]),
            tag=int(self.tag[i]),
            nbytes=int(self.nbytes[i]),
            send_ts=float(self.send_ts[i]),
            recv_ts=float(self.recv_ts[i]),
            send_idx=int(self.send_idx[i]),
            recv_idx=int(self.recv_idx[i]),
        )

    @classmethod
    def empty(cls) -> "MessageTable":
        z = np.empty(0, dtype=np.int64)
        f = np.empty(0, dtype=np.float64)
        return cls(z, z, z, z, f, f, z, z)


class _Matched(NamedTuple):
    """One message join: the matched table and, if it left an end
    unmatched, the :class:`MatchingError` message ``strict`` raises."""

    table: MessageTable
    leftover: Optional[str]

    def with_timestamps(self, timestamps: dict[int, np.ndarray]) -> "_Matched":
        return _Matched(self.table.with_timestamps(timestamps), self.leftover)


@dataclass(frozen=True)
class CollectiveRecord:
    """One collective instance: per-rank enter/exit timestamps."""

    instance: int
    op: CollectiveOp
    root: int
    ranks: np.ndarray  # participating ranks, ascending
    enter_ts: np.ndarray  # aligned with ranks
    exit_ts: np.ndarray  # aligned with ranks
    enter_idx: np.ndarray  # log index of each rank's COLL_ENTER
    exit_idx: np.ndarray  # log index of each rank's COLL_EXIT


class CollectiveTable:
    """All collective instances of a trace, as columns.

    Instances are stored ascending by instance id with their members
    ascending by rank: ``instance``/``op``/``root`` hold one value per
    instance, ``ranks``/``enter_ts``/``exit_ts``/``enter_idx``/
    ``exit_idx`` one per member, and instance ``k``'s members occupy
    ``starts[k]:starts[k + 1]`` of the member columns.  Iteration and
    indexing yield :class:`CollectiveRecord` row views.
    """

    __slots__ = (
        "instance", "op", "root", "starts",
        "ranks", "enter_ts", "exit_ts", "enter_idx", "exit_idx",
    )

    def __init__(self, instance, op, root, starts, ranks, enter_ts, exit_ts, enter_idx, exit_idx):
        self.instance = np.asarray(instance, dtype=np.int64)
        self.op = np.asarray(op, dtype=np.int64)
        self.root = np.asarray(root, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ranks = np.asarray(ranks, dtype=np.int64)
        self.enter_ts = np.asarray(enter_ts, dtype=np.float64)
        self.exit_ts = np.asarray(exit_ts, dtype=np.float64)
        self.enter_idx = np.asarray(enter_idx, dtype=np.int64)
        self.exit_idx = np.asarray(exit_idx, dtype=np.int64)

    def with_timestamps(self, timestamps: dict[int, np.ndarray]) -> "CollectiveTable":
        """The same instances with enter/exit times re-read from ``timestamps``.

        Instance, op, root, member ranks and event indices do not depend
        on timestamps, so a trace that differs only in its timestamps
        gets its table from two gathers instead of a second walk over
        every collective event.
        """
        return CollectiveTable(
            self.instance, self.op, self.root, self.starts, self.ranks,
            _gather(timestamps, self.ranks, self.enter_idx),
            _gather(timestamps, self.ranks, self.exit_idx),
            self.enter_idx, self.exit_idx,
        )

    def __len__(self) -> int:
        return self.instance.size

    def __iter__(self) -> Iterator[CollectiveRecord]:
        return (self[k] for k in range(len(self)))

    def __getitem__(self, k: int) -> CollectiveRecord:
        k = range(len(self))[k]  # negative indices, IndexError past the end
        lo, hi = self.starts[k], self.starts[k + 1]
        return CollectiveRecord(
            instance=int(self.instance[k]),
            op=CollectiveOp(int(self.op[k])),
            root=int(self.root[k]),
            ranks=self.ranks[lo:hi],
            enter_ts=self.enter_ts[lo:hi],
            exit_ts=self.exit_ts[lo:hi],
            enter_idx=self.enter_idx[lo:hi],
            exit_idx=self.exit_idx[lo:hi],
        )


_COLL_ENTER, _OMP_FORK = int(EventType.COLL_ENTER), int(EventType.OMP_FORK)
_FORK, _JOIN = int(CollectiveOp.OMP_FORK), int(CollectiveOp.OMP_JOIN)
#: Per event type: whether its collective row is an exit, and the POMP
#: construct it belongs to (0 fork, 1 join, 2 barrier).
_ROW_EXIT = np.zeros(len(EventType), dtype=bool)
_ROW_EXIT[[EventType.COLL_EXIT, EventType.OMP_PAR_ENTER, EventType.OMP_JOIN,
           EventType.OMP_BARRIER_EXIT]] = True
_CONSTRUCT = np.array([-1] * _OMP_FORK + [0, 1, 0, 1, 2, 2])


def collective_rows(start: int, ts, etypes, a, b, d) -> tuple[np.ndarray, ...]:
    """The collective enter/exit events of one log slice, as columns.

    ``start`` is the log index of the slice's first event.  Returns
    ``(is_exit, log index, timestamp, instance, op, root)`` — what
    :func:`pair_collectives` needs of a log, small enough to keep while
    the shards of an out-of-core trace stream by.

    The ``OMP_*`` events of region instance ``d`` are rows of three
    instances: the fork (``OMP_FORK`` enters, ``OMP_PAR_ENTER`` exits),
    the join (``OMP_PAR_EXIT`` enters, ``OMP_JOIN`` exits) and the
    barrier (``OMP_BARRIER_ENTER``/``_EXIT``), keyed ``~(3 * d +
    construct)`` — apart from each other and below every (non-negative)
    MPI instance id.  Their root is left ``-1``: worker events do not
    name the master, :func:`pair_collectives` finds it.
    """
    ts, etypes, a, b, d = map(np.asarray, (ts, etypes, a, b, d))
    sel = np.flatnonzero((etypes >= _COLL_ENTER) & (etypes <= int(EventType.OMP_BARRIER_EXIT)))
    kind, inst, op, root = etypes[sel], d[sel], a[sel], b[sel]
    pomp = np.flatnonzero(kind >= _OMP_FORK)
    if pomp.size:
        construct = _CONSTRUCT[kind[pomp]]
        inst[pomp] = ~(3 * inst[pomp] + construct)
        op[pomp] = _FORK + construct
        root[pomp] = -1
    return _ROW_EXIT[kind], sel + start, ts[sel], inst, op, root


def pair_collectives(rows: dict[int, list[tuple[np.ndarray, ...]]]) -> CollectiveTable:
    """Pair every rank's collective enters and exits into instances.

    ``rows[rank]`` lists the :func:`collective_rows` of that rank's log
    slices in log order (one slice for an in-memory log, one per shard
    of a streamed one).  Per rank, every ``COLL_ENTER`` is seen before
    any exit and a repeated instance id keeps its *last* enter; exits
    then claim their instance's enter in log order.  An instance's op
    and root are those recorded by its lowest member rank.

    A POMP fork or join member with one event — a worker's
    ``OMP_PAR_ENTER`` or ``OMP_PAR_EXIT`` — enters and exits at it; the
    member with two (``OMP_FORK`` then ``OMP_PAR_ENTER``, ``OMP_PAR_EXIT``
    then ``OMP_JOIN``) is the instance's root.  Any other exit without
    an enter, or enter without an exit, is a partial instance and raises
    :class:`TraceError`, as does a fork or join without a root (through
    :mod:`repro.sync.collectives_map`).
    """
    # Per rank: (instance, rank, enter_ts, exit_ts, enter_idx, exit_idx, op, root).
    members = [(np.empty(0, dtype=np.int64),) * 8]
    for rank in sorted(rows):
        if not rows[rank]:
            continue
        is_exit, idx, ts, inst, op, root = (np.concatenate(c) for c in zip(*rows[rank]))
        enters = np.flatnonzero(~is_exit)
        exits = np.flatnonzero(is_exit)
        open_by_instance = dict(zip(inst[enters].tolist(), enters.tolist()))
        claimed = []
        for i in inst[exits].tolist():
            if i in open_by_instance:
                claimed.append(open_by_instance.pop(i))
            elif op[exits[len(claimed)]] == _FORK:  # a worker's OMP_PAR_ENTER
                claimed.append(exits[len(claimed)])
            else:
                raise TraceError(f"rank {rank}: COLL_EXIT for instance {i} without COLL_ENTER")
        if open_by_instance:
            joined = [k for k in open_by_instance.values() if op[k] == _JOIN]  # OMP_PAR_EXIT
            if len(joined) < len(open_by_instance):
                raise TraceError(
                    f"rank {rank}: unclosed collective instances {sorted(open_by_instance)}"
                )
            exits = np.append(exits, joined)
            claimed += joined
        claimed = np.array(claimed, dtype=np.int64)
        members.append((
            inst[exits], np.full(exits.size, rank), ts[claimed], ts[exits],
            idx[claimed], idx[exits], op[exits], root[exits],
        ))
    inst, ranks, enter_ts, exit_ts, enter_idx, exit_idx, op, root = (
        np.concatenate(c) for c in zip(*members)
    )
    # Ranks were visited ascending, so a stable sort on the instance id
    # leaves every instance's members ascending by rank.
    order = np.argsort(inst, kind="stable")
    instance, starts = np.unique(inst[order], return_index=True)
    first = order[starts]
    op = op[first]
    root = root[first]
    rooted = np.flatnonzero((op == _FORK) | (op == _JOIN))
    if rooted.size:  # the one member with two events, or -1
        two = np.where(enter_idx != exit_idx, ranks, -1)[order]
        root[rooted] = np.maximum.reduceat(two, starts)[rooted]
    return CollectiveTable(
        instance, op, root, np.append(starts, inst.size),
        ranks[order], enter_ts[order], exit_ts[order], enter_idx[order], exit_idx[order],
    )


class Trace:
    """Per-rank event logs plus run metadata.

    Parameters
    ----------
    logs:
        Mapping rank -> :class:`EventLog`.  Ranks need not be contiguous
        (OpenMP traces use thread ids).
    meta:
        Free-form metadata; well-known keys used by the toolchain:
        ``machine``, ``timer``, ``locations`` (list of
        ``(node, chip, core)`` per rank), ``duration``.
    """

    def __init__(self, logs: dict[int, EventLog], meta: Optional[dict[str, Any]] = None) -> None:
        if not logs:
            raise TraceError("a trace needs at least one rank")
        self.logs = {rank: log.freeze() for rank, log in logs.items()}
        self.meta: dict[str, Any] = dict(meta or {})
        #: Structure derived from the events, by kind: the message join
        #: and the collective table, see ``_derived``.
        self._tables: dict[str, Any] = {}
        #: The same of a trace with this one's event structure (set by
        #: ``with_timestamps``); only their timestamps are stale.
        self._inherited: dict[str, Any] = {}
        #: The compiled happened-before schedule, made on first use.
        self._schedule: Any = None

    # ------------------------------------------------------------------
    @property
    def ranks(self) -> list[int]:
        return sorted(self.logs.keys())

    @property
    def nranks(self) -> int:
        return len(self.logs)

    def total_events(self) -> int:
        return sum(len(log) for log in self.logs.values())

    def compiled_schedule(self):
        """The trace's compiled happened-before schedule (cached).

        Returns a :class:`repro.sync.schedule.CompiledSchedule` for the
        standard message/collective dependency relation.  Schedules are
        structure-only (timestamps never enter the compilation), so one
        schedule serves every timestamp correction of this trace; CLC,
        naive-shift, Lamport, vector, and replay all share it.
        """
        if self._schedule is None:
            from repro.sync.schedule import CompiledSchedule  # import cycle: sync -> tracing

            self._schedule = CompiledSchedule.from_trace(self)
        return self._schedule

    def _derived(self, kind: str, build, refresh: bool):
        """One rule for the tables derived from the events.

        A table is built once per event structure: asked again it comes
        from the cache, and a trace made by :meth:`with_timestamps` gets
        it from its parent's with a timestamp re-gather (matching and
        pairing never read timestamps).  ``refresh`` rebuilds from the
        events.
        """
        table = None if refresh else self._tables.get(kind)
        if table is None:
            stale = None if refresh else self._inherited.get(kind)
            if stale is None:
                table = build()
            else:
                table = stale.with_timestamps(
                    {rank: log.timestamps for rank, log in self.logs.items()}
                )
            self._tables[kind] = table
        return table

    def event_counts(self) -> dict[EventType, int]:
        """Number of events per type across all ranks."""
        counts: dict[EventType, int] = {}
        for log in self.logs.values():
            types, n = np.unique(log.etypes, return_counts=True)
            for t, k in zip(types, n):
                et = EventType(int(t))
                counts[et] = counts.get(et, 0) + int(k)
        return counts

    def message_event_fraction(self) -> float:
        """Fraction of message-transfer events among all events (Fig. 7)."""
        total = self.total_events()
        if total == 0:
            return 0.0
        counts = self.event_counts()
        msg = counts.get(EventType.SEND, 0) + counts.get(EventType.RECV, 0)
        return msg / total

    # ------------------------------------------------------------------
    # Message extraction
    # ------------------------------------------------------------------
    def messages(self, refresh: bool = False, strict: bool = True) -> MessageTable:
        """Matched point-to-point messages (cached).

        With ``strict=False``, half-matched messages — possible when only
        a window of a longer run was traced, so one end of a transfer
        falls outside the trace — are silently dropped instead of raising
        :class:`MatchingError`.  Both read one cached join; ``strict``
        only checks that it left no end unmatched.
        """
        matched = self._derived("messages", self._match_messages, refresh)
        if strict and matched.leftover:
            raise MatchingError(matched.leftover)
        return matched.table

    def _match_messages(self) -> _Matched:
        """Key every rank's transfer events and join them once (:func:`join_keys`)."""
        keys = MatchKeys(not any(
            np.any(log.d[log.etypes == _TRANSFERS[0]] < 0) for log in self.logs.values()
        ))
        # Per side: rank, log index, key, timestamp; a receive adds its tag and byte count.
        sides: tuple[list, list] = ([], [])
        for rank, log in sorted(self.logs.items()):
            for recv, (pos, key) in enumerate(keys.ends(rank, log.etypes, log.a, log.b, log.d)):
                sides[recv].append((
                    np.full(pos.size, rank, dtype=np.int64), pos, key, log.timestamps[pos],
                    *((log.b[pos], log.c[pos]) if recv else ()),
                ))
        (s_rank, s_idx, s_key, s_ts), (r_rank, r_idx, r_key, r_ts, r_tag, r_nb) = (
            [np.concatenate(col) for col in zip(*side)] for side in sides
        )
        sent, found, unsent = join_keys(s_key, r_key)
        table = MessageTable(
            s_rank[sent], r_rank[found], r_tag[found], r_nb[found],
            s_ts[sent], r_ts[found], s_idx[sent], r_idx[found],
        )
        for what, left, ranks, idx in (("receive(s) have no matching send", ~found, r_rank, r_idx),
                                       ("send(s) have no matching receive", unsent, s_rank, s_idx)):
            if left.any():
                k = int(np.argmax(left))
                first = f"the first at rank {ranks[k]} index {idx[k]}"
                return _Matched(table, f"{left.sum()} {what}, {first}")
        return _Matched(table, None)

    # ------------------------------------------------------------------
    # Collective extraction
    # ------------------------------------------------------------------
    def collectives(self, refresh: bool = False) -> CollectiveTable:
        """Collective instances with per-rank enter/exit times (cached)."""
        return self._derived(
            "collectives",
            lambda: pair_collectives({
                rank: [collective_rows(0, log.timestamps, log.etypes, log.a, log.b, log.d)]
                for rank, log in self.logs.items()
            }),
            refresh,
        )

    # ------------------------------------------------------------------
    def slice(self, t0: float, t1: float) -> "Trace":
        """Sub-trace with only the events whose timestamp lies in ``[t0, t1)``.

        The tool-side analogue of a partial-tracing window applied
        postmortem.  Messages with one endpoint outside the window
        become half-matched — use ``messages(strict=False)`` on the
        result, exactly as with window-traced runs.  Collective
        instances that lose their enter or exit — OpenMP regions
        included — are dropped from ``collectives()`` extraction with an
        error, so slice on region boundaries when collectives matter.
        """
        if t1 <= t0:
            raise TraceError(f"empty slice window [{t0}, {t1})")
        logs = {}
        for rank, log in self.logs.items():
            ts = log.timestamps
            mask = (ts >= t0) & (ts < t1)
            logs[rank] = EventLog.from_arrays(
                ts[mask], log.etypes[mask], log.a[mask], log.b[mask],
                log.c[mask], log.d[mask],
            )
        meta = dict(self.meta)
        meta["slice"] = (t0, t1)
        return Trace(logs, meta=meta)

    def with_timestamps(self, new_ts: dict[int, np.ndarray]) -> "Trace":
        """A corrected copy of this trace with replaced timestamps.

        Ranks absent from ``new_ts`` keep their original timestamps.
        """
        logs = {
            rank: (log.with_timestamps(new_ts[rank]) if rank in new_ts else log)
            for rank, log in self.logs.items()
        }
        out = Trace(logs, meta=dict(self.meta))
        # Timestamp replacement preserves event structure, so the compiled
        # happened-before schedule stays valid for the corrected trace,
        # and its derived tables are this one's but for their timestamps.
        out._schedule = self._schedule
        out._inherited = {**self._inherited, **self._tables}
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(ranks={self.nranks}, events={self.total_events()})"
