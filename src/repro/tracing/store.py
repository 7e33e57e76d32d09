"""Sharded, memory-mappable on-disk trace store.

Out-of-core counterpart of the single-file formats in
:mod:`repro.tracing.writer`: each rank's columnar :class:`EventLog` is
split into fixed-event-count *shards* of raw little-endian column
files, described by an append-only JSONL manifest.  The layout mirrors
the append-only trace-contract idiom of real tracing back-ends — every
shard is individually addressable, partially written runs are
detectable (no footer), and readers map each shard file once and hand
out its columns as views, so loading a shard never copies more than it
touches::

    <dir>/manifest.jsonl           # header, one record per shard, footer
    <dir>/shard_000000_r0.bin      # ts|et|a|b|c|d column bytes

Manifest records (one JSON object per line):

* ``header`` — format name/version, ``run_id``, ``shard_events``, the
  column dtypes;
* ``shard`` — ``seq`` (global write order), ``rank``, ``file``,
  ``events``, the rank-local event span ``[start, stop)``, ``nbytes``,
  a ``sha256`` content digest, and send/recv summary flags used by the
  streaming kernels;
* ``footer`` — ranks, per-rank totals, shard count, and run metadata.
  A manifest without a footer is a partial run.

:class:`ChunkedTrace` is the bounded-memory facade over a stored run:
it satisfies enough of the :class:`~repro.tracing.trace.Trace` surface
(ranks, totals, event counts, metadata) for reporting, and hands whole
shards to the streaming kernels in :mod:`repro.sync.streaming`.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from pathlib import Path
from typing import Any, Iterator, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, TraceFormatError
from repro.tracing.buffer import TraceBuffer
from repro.tracing.events import EventLog, EventType
from repro.tracing.trace import Trace
from repro.tracing.writer import _jsonable_meta

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "DEFAULT_SHARD_EVENTS",
    "ShardRecord",
    "ShardedTraceWriter",
    "ShardedTraceReader",
    "ChunkedTrace",
    "SpillingTraceBuffer",
    "write_sharded_trace",
    "is_sharded_trace_dir",
]

#: Manifest format name; checked by the reader.
STORE_FORMAT = "repro-shard"
#: Bumped on any incompatible layout change.
STORE_VERSION = 1
#: Shard size used when a spill sink is requested without an explicit one.
DEFAULT_SHARD_EVENTS = 65536

#: (manifest name, numpy little-endian dtype) of the six columns, in
#: on-disk order.  Mirrors ``repro.tracing.events._COLUMNS``.
_STORE_COLUMNS = (
    ("ts", "<f8"),
    ("et", "<i1"),
    ("a", "<i8"),
    ("b", "<i8"),
    ("c", "<i8"),
    ("d", "<i8"),
)

#: Bytes per event across all six columns.
_EVENT_NBYTES = sum(np.dtype(dt).itemsize for _, dt in _STORE_COLUMNS)


class ShardRecord:
    """One parsed ``shard`` manifest line (attribute access, no dict walk)."""

    __slots__ = (
        "seq", "rank", "file", "events", "start", "stop",
        "nbytes", "sha256", "sends", "recvs", "neg_send_ids",
    )

    def __init__(self, obj: dict) -> None:
        self.seq = int(obj["seq"])
        self.rank = int(obj["rank"])
        self.file = str(obj["file"])
        self.events = int(obj["events"])
        self.start = int(obj["start"])
        self.stop = int(obj["stop"])
        self.nbytes = int(obj["nbytes"])
        self.sha256 = str(obj["sha256"])
        self.sends = int(obj.get("sends", 0))
        self.recvs = int(obj.get("recvs", 0))
        self.neg_send_ids = bool(obj.get("neg_send_ids", False))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRecord(seq={self.seq}, rank={self.rank}, "
            f"span=[{self.start}, {self.stop}))"
        )


class ShardedTraceWriter:
    """Split per-rank event columns into fixed-size on-disk shards.

    Events are buffered per rank and flushed as a shard whenever
    ``shard_events`` records have accumulated; :meth:`finish` flushes
    the partial tails and appends the manifest footer.  Use as a
    context manager — on a clean exit the footer is written, on an
    exception it is not, leaving a detectable partial run.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard_events: int = DEFAULT_SHARD_EVENTS,
        run_id: str = "run",
    ) -> None:
        if not isinstance(shard_events, int) or shard_events < 1:
            raise ConfigurationError(
                f"shard_events must be a positive int, got {shard_events!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_events = shard_events
        self.run_id = run_id
        self._pending: dict[int, EventLog] = {}
        self._written: dict[int, int] = {}  # rank -> events flushed so far
        self._seq = 0
        self._finished = False
        self._manifest = (self.directory / "manifest.jsonl").open("w", encoding="utf-8")
        self._emit(
            {
                "kind": "header",
                "format": STORE_FORMAT,
                "version": STORE_VERSION,
                "run_id": run_id,
                "shard_events": shard_events,
                "columns": [[name, dt] for name, dt in _STORE_COLUMNS],
            }
        )

    # ------------------------------------------------------------------
    def _emit(self, obj: dict) -> None:
        self._manifest.write(json.dumps(obj) + "\n")
        self._manifest.flush()

    def register_rank(self, rank: int) -> None:
        """Ensure ``rank`` appears in the footer even with zero events."""
        self._check_open()
        self._pending.setdefault(int(rank), EventLog())
        self._written.setdefault(int(rank), 0)

    def _check_open(self) -> None:
        if self._finished:
            raise TraceFormatError("ShardedTraceWriter is already finished")

    def append(
        self, rank: int, timestamp: float, etype: EventType,
        a: int = 0, b: int = 0, c: int = 0, d: int = 0,
    ) -> None:
        """Record one event for ``rank`` (shards flush automatically)."""
        self._check_open()
        log = self._pending.get(rank)
        if log is None:
            self.register_rank(rank)
            log = self._pending[rank]
        log.append(timestamp, etype, a, b, c, d)
        if len(log) >= self.shard_events:
            self._flush_full(rank)

    def append_batch(self, rank: int, timestamps, etypes, a, b, c, d) -> None:
        """Record N events for ``rank`` from parallel column arrays.

        A batch that is exactly one shard, with nothing buffered before
        it, is written as it stands — the case of a kernel that rewrites
        a store shard by shard; no buffer copy, the same bytes.
        """
        self._check_open()
        log = self._pending.get(rank)
        if log is None:
            self.register_rank(rank)
            log = self._pending[rank]
        cols = (
            np.asarray(timestamps, dtype=np.float64),
            np.asarray(etypes, dtype=np.int8),
            np.asarray(a, dtype=np.int64),
            np.asarray(b, dtype=np.int64),
            np.asarray(c, dtype=np.int64),
            np.asarray(d, dtype=np.int64),
        )
        if not len(log) and all(col.size == self.shard_events for col in cols):
            self._write_shard(rank, cols)
            return
        log.extend(*cols)
        if len(log) >= self.shard_events:
            self._flush_full(rank)

    def add_log(self, rank: int, log: EventLog) -> None:
        """Append an entire frozen :class:`EventLog` for ``rank``."""
        self.register_rank(rank)
        if len(log):
            self.append_batch(
                rank, log.timestamps, log.etypes, log.a, log.b, log.c, log.d
            )

    # ------------------------------------------------------------------
    def _flush_full(self, rank: int) -> None:
        """Flush every complete shard buffered for ``rank``."""
        log = self._pending[rank].freeze()
        cols = (log.timestamps, log.etypes, log.a, log.b, log.c, log.d)
        n = len(log)
        pos = 0
        while n - pos >= self.shard_events:
            self._write_shard(rank, [c[pos : pos + self.shard_events] for c in cols])
            pos += self.shard_events
        rest = EventLog()
        if pos < n:
            rest.extend(*(c[pos:] for c in cols))
        self._pending[rank] = rest

    def _write_shard(self, rank: int, cols) -> None:
        ts, et, a, b, c, d = cols
        events = int(ts.size)
        name = f"shard_{self._seq:06d}_r{rank}.bin"
        # Column after column straight from the arrays: hashed and
        # written without assembling the shard's bytes a second time.
        digest = hashlib.sha256()
        nbytes = 0
        with (self.directory / name).open("wb") as fh:
            for col, (_, dt) in zip(cols, _STORE_COLUMNS):
                column = np.ascontiguousarray(col).astype(dt, copy=False)
                digest.update(column)
                fh.write(column)
                nbytes += column.nbytes
        send_mask = et == int(EventType.SEND)
        sends = int(np.count_nonzero(send_mask))
        recvs = int(np.count_nonzero(et == int(EventType.RECV)))
        neg_ids = bool(sends and np.any(d[send_mask] < 0))
        start = self._written[rank]
        self._emit(
            {
                "kind": "shard",
                "seq": self._seq,
                "rank": rank,
                "file": name,
                "events": events,
                "start": start,
                "stop": start + events,
                "nbytes": nbytes,
                "sha256": digest.hexdigest(),
                "sends": sends,
                "recvs": recvs,
                "neg_send_ids": neg_ids,
            }
        )
        self._written[rank] = start + events
        self._seq += 1

    # ------------------------------------------------------------------
    def finish(self, meta: Optional[dict] = None) -> Path:
        """Flush partial tails, write the footer, and close the manifest."""
        if self._finished:
            return self.directory
        for rank in sorted(self._pending):
            log = self._pending[rank].freeze()
            if len(log):
                self._write_shard(
                    rank,
                    (log.timestamps, log.etypes, log.a, log.b, log.c, log.d),
                )
            self._pending[rank] = EventLog()
        self._emit(
            {
                "kind": "footer",
                "ranks": sorted(self._written),
                "events": {str(r): n for r, n in sorted(self._written.items())},
                "shards": self._seq,
                "meta": _jsonable_meta(dict(meta or {})),
            }
        )
        self._manifest.close()
        self._finished = True
        return self.directory

    def close(self) -> None:
        """Close the manifest without a footer (leaves a partial run)."""
        if not self._manifest.closed:
            self._manifest.close()

    def __enter__(self) -> "ShardedTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
        else:
            self.close()


def write_sharded_trace(
    trace: Trace,
    directory: Union[str, Path],
    shard_events: int = DEFAULT_SHARD_EVENTS,
    run_id: str = "run",
) -> Path:
    """Serialize an in-memory :class:`Trace` as a sharded directory."""
    writer = ShardedTraceWriter(directory, shard_events=shard_events, run_id=run_id)
    with writer:
        for rank in trace.ranks:
            writer.add_log(rank, trace.logs[rank])
        writer.finish(meta=trace.meta)
    return writer.directory


def is_sharded_trace_dir(path: Union[str, Path]) -> bool:
    """Does ``path`` look like a sharded trace directory (has a manifest)?"""
    path = Path(path)
    return path.is_dir() and (path / "manifest.jsonl").exists()


class ShardedTraceReader:
    """Open a sharded trace directory and hand out memory-mapped shards.

    Parameters
    ----------
    directory:
        A directory written by :class:`ShardedTraceWriter`.
    allow_partial:
        Accept a manifest without a footer (interrupted run).  The
        readable prefix — every shard whose record and file are intact —
        is exposed; run metadata is empty.
    verify_digests:
        Check every shard's sha256 against the manifest up front
        (otherwise only file sizes are validated, which catches
        truncation but not corruption).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        allow_partial: bool = False,
        verify_digests: bool = False,
    ) -> None:
        self.directory = Path(directory)
        manifest = self.directory / "manifest.jsonl"
        if not manifest.exists():
            raise TraceFormatError(
                f"{self.directory} has no manifest.jsonl (not a sharded trace directory)"
            )
        header = None
        footer = None
        shards: list[ShardRecord] = []
        with manifest.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    if allow_partial:
                        break  # torn tail line of an interrupted run
                    raise TraceFormatError(
                        f"{manifest}:{lineno}: invalid JSON (truncated manifest? "
                        "pass allow_partial=True to read the intact prefix)"
                    ) from exc
                kind = obj.get("kind")
                if kind == "header":
                    if lineno != 1:
                        raise TraceFormatError(f"{manifest}: header is not the first record")
                    header = obj
                elif kind == "shard":
                    shards.append(ShardRecord(obj))
                elif kind == "footer":
                    footer = obj
                else:
                    raise TraceFormatError(
                        f"{manifest}:{lineno}: unknown record kind {kind!r}"
                    )
        if header is None:
            raise TraceFormatError(f"{manifest}: missing header line")
        if header.get("format") != STORE_FORMAT:
            raise TraceFormatError(
                f"{manifest}: format {header.get('format')!r} is not {STORE_FORMAT!r}"
            )
        if header.get("version") != STORE_VERSION:
            raise TraceFormatError(
                f"{manifest}: shard-directory format version {header.get('version')} "
                f"unsupported (expected {STORE_VERSION})"
            )
        if footer is None and not allow_partial:
            raise TraceFormatError(
                f"{manifest}: no footer — the run was interrupted mid-write; "
                "pass allow_partial=True to read the intact prefix"
            )
        self.run_id: str = str(header.get("run_id", ""))
        self.shard_events: int = int(header["shard_events"])
        self.partial: bool = footer is None
        self.meta: dict[str, Any] = dict((footer or {}).get("meta", {}))
        for rec in shards:
            path = self.directory / rec.file
            if not path.exists():
                raise TraceFormatError(f"{self.directory}: missing shard file {rec.file}")
            size = path.stat().st_size
            if size != rec.nbytes:
                raise TraceFormatError(
                    f"{self.directory}/{rec.file}: {size} bytes on disk, "
                    f"manifest says {rec.nbytes} (truncated or corrupt shard)"
                )
        self._by_rank: dict[int, list[ShardRecord]] = {}
        for rec in sorted(shards, key=lambda r: r.seq):
            self._by_rank.setdefault(rec.rank, []).append(rec)
        for recs in self._by_rank.values():
            recs.sort(key=lambda r: r.start)
            pos = 0
            for rec in recs:
                if rec.start != pos:
                    raise TraceFormatError(
                        f"{self.directory}: rank {rec.rank} shard {rec.seq} starts at "
                        f"{rec.start}, expected {pos} (missing shard record)"
                    )
                pos = rec.stop
        if footer is not None:
            self._ranks = [int(r) for r in footer["ranks"]]
            totals = {int(r): int(n) for r, n in footer.get("events", {}).items()}
            for rank in self._ranks:
                have = sum(rec.events for rec in self._by_rank.get(rank, ()))
                if have != totals.get(rank, have):
                    raise TraceFormatError(
                        f"{self.directory}: rank {rank} has {have} events in shards, "
                        f"footer says {totals[rank]}"
                    )
        else:
            self._ranks = sorted(self._by_rank)
        if verify_digests:
            for rank in self._ranks:
                for rec in self._by_rank.get(rank, ()):
                    self.verify_shard(rec)

    # ------------------------------------------------------------------
    @property
    def ranks(self) -> list[int]:
        return list(self._ranks)

    def rank_events(self, rank: int) -> int:
        recs = self._by_rank.get(rank, ())
        return recs[-1].stop if recs else 0

    def total_events(self) -> int:
        return sum(self.rank_events(r) for r in self._ranks)

    def rank_shards(self, rank: int) -> list[ShardRecord]:
        """This rank's shard records in event order."""
        return list(self._by_rank.get(rank, ()))

    def shard_count(self) -> int:
        return sum(len(v) for v in self._by_rank.values())

    def shard_index(self, rank: int, event_index: int) -> int:
        """Ordinal of the shard holding ``event_index`` of ``rank``."""
        starts = [rec.start for rec in self._by_rank.get(rank, ())]
        return bisect_right(starts, event_index) - 1

    # ------------------------------------------------------------------
    def load_shard(self, rec: ShardRecord) -> tuple[np.ndarray, ...]:
        """Memory-mapped, read-only ``(ts, et, a, b, c, d)`` columns of one shard.

        The file is mapped once and the six columns are views into that
        one mapping, which lives as long as any of them does.
        """
        import mmap  # on first use: nothing at start-up needs it

        with (self.directory / rec.file).open("rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        cols = []
        offset = 0
        for _, dt in _STORE_COLUMNS:
            cols.append(np.frombuffer(mapped, dtype=dt, count=rec.events, offset=offset))
            offset += np.dtype(dt).itemsize * rec.events
        return tuple(cols)

    def verify_shard(self, rec: ShardRecord) -> None:
        """Check one shard's content digest against the manifest."""
        digest = hashlib.sha256((self.directory / rec.file).read_bytes()).hexdigest()
        if digest != rec.sha256:
            raise TraceFormatError(
                f"{self.directory}/{rec.file}: content digest mismatch "
                f"({digest[:12]}… != manifest {rec.sha256[:12]}…)"
            )

    def read_log(self, rank: int) -> EventLog:
        """Materialize one rank's full :class:`EventLog` (copies)."""
        recs = self._by_rank.get(rank, ())
        if not recs:
            return EventLog().freeze()
        parts = [self.load_shard(rec) for rec in recs]
        return EventLog.from_arrays(
            *(np.concatenate([p[i] for p in parts]) for i in range(6))
        )

    def read_trace(self) -> Trace:
        """Materialize the whole run as an in-memory :class:`Trace`."""
        logs = {rank: self.read_log(rank) for rank in self._ranks}
        return Trace(logs, meta=dict(self.meta))


class ChunkedTrace:
    """Bounded-memory facade over a :class:`ShardedTraceReader`.

    Satisfies the read-only :class:`~repro.tracing.trace.Trace` surface
    that reporting needs (``ranks``, ``total_events``, ``event_counts``,
    ``message_event_fraction``, ``meta``) without materializing the
    trace; the streaming kernels in :mod:`repro.sync.streaming` consume
    it shard-by-shard via :meth:`iter_shards`.
    """

    def __init__(self, reader: Union[ShardedTraceReader, str, Path]) -> None:
        if not isinstance(reader, ShardedTraceReader):
            reader = ShardedTraceReader(reader)
        self.reader = reader
        self.meta: dict[str, Any] = dict(reader.meta)

    @property
    def ranks(self) -> list[int]:
        return self.reader.ranks

    @property
    def nranks(self) -> int:
        return len(self.reader.ranks)

    def total_events(self) -> int:
        return self.reader.total_events()

    def iter_shards(
        self, rank: int
    ) -> Iterator[tuple[ShardRecord, tuple[np.ndarray, ...]]]:
        """Yield ``(record, (ts, et, a, b, c, d))`` for one rank, in order."""
        for rec in self.reader.rank_shards(rank):
            yield rec, self.reader.load_shard(rec)

    def event_counts(self) -> dict[EventType, int]:
        """Number of events per type across all ranks (one shard resident)."""
        counts: dict[EventType, int] = {}
        for rank in self.ranks:
            for _, cols in self.iter_shards(rank):
                types, n = np.unique(cols[1], return_counts=True)
                for t, k in zip(types, n):
                    et = EventType(int(t))
                    counts[et] = counts.get(et, 0) + int(k)
        return counts

    def message_event_fraction(self) -> float:
        """Fraction of message-transfer events (manifest counters only)."""
        total = self.total_events()
        if total == 0:
            return 0.0
        msg = sum(
            rec.sends + rec.recvs
            for rank in self.ranks
            for rec in self.reader.rank_shards(rank)
        )
        return msg / total

    def materialize(self) -> Trace:
        """The full in-memory :class:`Trace` (for oracles and small runs)."""
        return self.reader.read_trace()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedTrace(ranks={self.nranks}, events={self.total_events()}, "
            f"shards={self.reader.shard_count()})"
        )


class SpillingTraceBuffer(TraceBuffer):
    """A :class:`TraceBuffer` that spills full shards to a sharded writer.

    Timing behaviour (record/flush costs, the ``flushes`` counter) is
    inherited unchanged so simulations are bit-identical with or without
    a spill sink; the only difference is that the in-memory log is
    handed to ``sink`` and replaced whenever it reaches the sink's
    shard size, so generation never holds more than one shard per rank.
    """

    __slots__ = ("sink", "rank", "events_recorded")

    def __init__(
        self,
        sink: ShardedTraceWriter,
        rank: int,
        capacity: int = 0,
        record_cost: float = 3.0e-8,
        flush_cost: float = 5.0e-3,
    ) -> None:
        super().__init__(capacity=capacity, record_cost=record_cost, flush_cost=flush_cost)
        self.sink = sink
        self.rank = rank
        self.events_recorded = 0
        sink.register_rank(rank)

    def _spill(self) -> None:
        log = self.log.freeze()
        self.sink.append_batch(
            self.rank, log.timestamps, log.etypes, log.a, log.b, log.c, log.d
        )
        self.log = EventLog()

    def append(self, timestamp, etype, a=0, b=0, c=0, d=0) -> float:
        cost = super().append(timestamp, etype, a, b, c, d)
        self.events_recorded += 1
        if len(self.log) >= self.sink.shard_events:
            self._spill()
        return cost

    def append_batch(self, timestamps, etypes, a, b, c, d) -> float:
        cost = super().append_batch(timestamps, etypes, a, b, c, d)
        self.events_recorded += len(timestamps)
        if len(self.log) >= self.sink.shard_events:
            self._spill()
        return cost

    def drain(self) -> None:
        """Spill whatever remains (call once at end of run)."""
        if len(self.log):
            self._spill()
