"""The per-rank MPI context.

An :class:`MpiContext` is what a simulated application sees: its rank,
the communicator size, and generator methods for communication, compute,
and timing.  Methods are used with ``yield from`` inside a process
generator::

    def worker(ctx):
        yield from ctx.compute(1e-3)
        if ctx.rank == 0:
            yield from ctx.send(1, tag=7, nbytes=64)
        else:
            msg = yield from ctx.recv(src=0, tag=7)
        total = yield from ctx.allreduce(value=1)

Tracing is layered exactly like PMPI interposition: the *public* methods
(``send``, ``recv``, the collectives, ``enter_region``/``exit_region``)
consult the attached :class:`~repro.tracing.buffer.TraceBuffer` and
record events around the *raw* operations (``send_raw``, ``recv_raw``),
which never record anything.  Collectives run their internal tree
messages through the raw layer, so a trace contains one
``COLL_ENTER``/``COLL_EXIT`` pair per rank per collective — the level at
which real tools record them — and never the tree's messages.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.cluster.topology import Location
from repro.mpi import collectives as _coll
from repro.sim.primitives import ANY_SOURCE, ANY_TAG, Compute, Message, ReadClock, Recv, Send
from repro.sync.offset import measurement_protocol
from repro.tracing.events import CollectiveOp, EventType

__all__ = [
    "MpiContext",
    "RecvRequest",
    "COLL_TAG_BASE",
    "MPI_SEND_REGION",
    "MPI_RECV_REGION",
    "periodic_sync_due",
]


def periodic_sync_due(every: int, instance: int) -> bool:
    """Does the piggybacked offset measurement fire on this collective?

    The protocol runs after every ``every``-th collective instance
    (``instance % every == 0``; disabled when ``every <= 0``).  Single
    source of truth for the schedule: the live path
    (:meth:`MpiContext._collective_impl`) and the batch plan compiler
    (:mod:`repro.sim.batch`) both consult it, so the statically compiled
    timelines fire the protocol at exactly the instances the engine
    would.
    """
    return every > 0 and instance % every == 0

#: Application tags must stay below this; collectives use the space above.
COLL_TAG_BASE: int = 1 << 20

#: Reserved region ids recorded around MPI calls when a context is
#: created with ``mpi_regions=True`` (the full ENTER/SEND/EXIT pattern
#: real PMPI wrappers produce, needed e.g. by wait-state analysis).
MPI_SEND_REGION: int = 1
MPI_RECV_REGION: int = 2


class RecvRequest:
    """Handle for a posted nonblocking receive (see MpiContext.irecv)."""

    __slots__ = ("src", "tag")

    def __init__(self, src: int, tag: int) -> None:
        self.src = src
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecvRequest(src={self.src}, tag={self.tag})"


class MpiContext:
    """Rank-local façade over the simulation engine.

    Parameters
    ----------
    rank, size:
        This process's rank and the communicator size.
    location:
        Hardware placement (determines latency and clock).
    jitter_model / jitter_rng:
        OS-noise inflation applied to :meth:`compute`.
    buffer:
        The rank's :class:`~repro.tracing.buffer.TraceBuffer`, or
        ``None`` for an untraced run.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        location: Location,
        jitter_model=None,
        jitter_rng: Optional[np.random.Generator] = None,
        buffer=None,
        mpi_regions: bool = False,
    ) -> None:
        self.rank = rank
        self.size = size
        self.location = location
        self.jitter_model = jitter_model
        self.jitter_rng = jitter_rng
        self.buffer = buffer
        #: Record ENTER/EXIT events around traced MPI calls (the full
        #: PMPI-wrapper pattern; doubles event volume, required by
        #: wait-state analysis which needs to know when a receive was
        #: *posted*, not just when it completed).
        self.mpi_regions = mpi_regions
        self._coll_instance = 0
        #: Piggyback an offset measurement on every k-th collective
        #: (Doleschal-style internal timer synchronization, the paper's
        #: "periodic offset measurements during global synchronization
        #: operations"); 0 disables.  Set by MpiWorld.
        self.periodic_sync_every = 0
        self.periodic_sync_repeats = 3
        #: Master-side series of periodic measurement dicts.
        self.periodic_series: list[dict] = []
        #: Communicator identity (0 = world) and split bookkeeping.
        self.comm_id = 0
        self._next_split_seq = 0

    # ------------------------------------------------------------------
    # Raw (untraced) primitives
    # ------------------------------------------------------------------
    def send_raw(self, dst: int, tag: int = 0, nbytes: int = 0, payload: Any = None) -> Generator:
        """Eager send without event recording; returns the match id."""
        mid = yield Send(dst, tag, nbytes, payload)
        return mid

    def recv_raw(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive without event recording; returns the Message."""
        msg = yield Recv(src, tag)
        return msg

    def compute(self, duration: float) -> Generator:
        """Busy the CPU for ``duration`` seconds, inflated by OS jitter."""
        if self.jitter_model is not None and self.jitter_rng is not None:
            duration = self.jitter_model.perturb(duration, self.jitter_rng)
        if duration > 0:
            yield Compute(duration)

    def sleep(self, duration: float) -> Generator:
        """Idle for exactly ``duration`` seconds (no jitter)."""
        if duration > 0:
            yield Compute(duration)

    def wtime(self) -> Generator:
        """Read the local clock (``MPI_Wtime`` analogue); returns seconds."""
        value = yield ReadClock()
        return value

    # ------------------------------------------------------------------
    # Traced point-to-point
    # ------------------------------------------------------------------
    def send(self, dst: int, tag: int = 0, nbytes: int = 0, payload: Any = None) -> Generator:
        """Send, recording a ``SEND`` event (timestamp taken before the
        transfer is initiated, like a wrapper around ``MPI_Send``)."""
        if self.buffer is not None and self.buffer.active:
            if self.mpi_regions:
                yield from self._simple_event(EventType.ENTER, MPI_SEND_REGION)
            ts = yield ReadClock()
            mid = yield Send(dst, tag, nbytes, payload)
            cost = self.buffer.append(ts, EventType.SEND, dst, tag, nbytes, mid)
            if cost > 0:
                yield Compute(cost)
            if self.mpi_regions:
                yield from self._simple_event(EventType.EXIT, MPI_SEND_REGION)
            return mid
        return (yield from self.send_raw(dst, tag, nbytes, payload))

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Receive, recording a ``RECV`` event at completion (wildcards
        are resolved from the delivered message, like ``MPI_Status``).

        With ``mpi_regions``, an ``ENTER(MPI_RECV_REGION)`` is recorded
        when the receive is *posted* — the timestamp wait-state analysis
        measures Late Sender against."""
        if self.buffer is not None and self.buffer.active:
            if self.mpi_regions:
                yield from self._simple_event(EventType.ENTER, MPI_RECV_REGION)
            msg = yield Recv(src, tag)
            ts = yield ReadClock()
            cost = self.buffer.append(
                ts, EventType.RECV, msg.src, msg.tag, msg.nbytes, msg.match_id
            )
            if cost > 0:
                yield Compute(cost)
            if self.mpi_regions:
                yield from self._simple_event(EventType.EXIT, MPI_RECV_REGION)
            return msg
        return (yield from self.recv_raw(src, tag))

    def sendrecv(
        self,
        dst: int,
        src: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator:
        """Combined send+receive (safe under eager sends); returns Message."""
        yield from self.send(dst, sendtag)
        msg = yield from self.recv(src, recvtag)
        return msg

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def enter_region(self, region_id: int) -> Generator:
        """Record an ``ENTER`` event for a code region."""
        yield from self._simple_event(EventType.ENTER, region_id)

    def exit_region(self, region_id: int) -> Generator:
        """Record an ``EXIT`` event for a code region."""
        yield from self._simple_event(EventType.EXIT, region_id)

    def _simple_event(self, etype: EventType, a: int):
        if self.buffer is not None and self.buffer.active:
            ts = yield ReadClock()
            cost = self.buffer.append(ts, etype, a)
            if cost > 0:
                yield Compute(cost)

    def set_tracing(self, enabled: bool) -> None:
        """Toggle event recording (partial tracing, Fig. 7 style)."""
        if self.buffer is not None:
            self.buffer.active = enabled

    # ------------------------------------------------------------------
    # Traced collectives
    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        return (
            yield from self._collective(CollectiveOp.BARRIER, 0, 0, _coll.barrier)
        )

    def bcast(self, root: int = 0, nbytes: int = 0, payload: Any = None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.BCAST, root, nbytes, _coll.bcast, root=root, nbytes=nbytes,
                payload=payload,
            )
        )

    def reduce(self, root: int = 0, nbytes: int = 0, value: Any = None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.REDUCE, root, nbytes, _coll.reduce, root=root, nbytes=nbytes,
                value=value,
            )
        )

    def allreduce(self, nbytes: int = 0, value: Any = None, op=None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.ALLREDUCE, 0, nbytes, _coll.allreduce, nbytes=nbytes,
                value=value, op=op,
            )
        )

    def gather(self, root: int = 0, nbytes: int = 0, value: Any = None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.GATHER, root, nbytes, _coll.gather, root=root, nbytes=nbytes,
                value=value,
            )
        )

    def scatter(self, root: int = 0, nbytes: int = 0, values: Optional[dict] = None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.SCATTER, root, nbytes, _coll.scatter, root=root, nbytes=nbytes,
                values=values,
            )
        )

    def allgather(self, nbytes: int = 0, value: Any = None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.ALLGATHER, 0, nbytes, _coll.allgather, nbytes=nbytes, value=value
            )
        )

    def alltoall(self, nbytes: int = 0, values: Optional[dict] = None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.ALLTOALL, 0, nbytes, _coll.alltoall, nbytes=nbytes, values=values
            )
        )

    def scan(self, nbytes: int = 0, value: Any = None, op=None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.SCAN, 0, nbytes, _coll.scan, nbytes=nbytes, value=value, op=op
            )
        )

    def reduce_scatter(self, nbytes: int = 0, values: Optional[dict] = None) -> Generator:
        return (
            yield from self._collective(
                CollectiveOp.REDUCE_SCATTER, 0, nbytes, _coll.reduce_scatter,
                nbytes=nbytes, values=values,
            )
        )

    # ------------------------------------------------------------------
    # Nonblocking point-to-point
    # ------------------------------------------------------------------
    def isend(self, dst: int, tag: int = 0, nbytes: int = 0, payload: Any = None) -> Generator:
        """Nonblocking send.  The runtime's sends are eager (buffered),
        so ``isend`` is complete on return — like a small-message
        MPI_Isend whose buffer is immediately reusable."""
        return (yield from self.send(dst, tag, nbytes, payload))

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> "RecvRequest":
        """Post a nonblocking receive intent; complete it with
        :meth:`wait`/:meth:`waitall`.

        Matching happens at wait time (the intent is not registered with
        the engine), so multiple outstanding requests on the same
        (src, tag) channel must be waited in posting order — which MPI's
        non-overtaking rule requires of matching receives anyway.
        """
        return RecvRequest(src=src, tag=tag)

    def wait(self, request: "RecvRequest") -> Generator:
        """Complete a posted receive; returns the Message."""
        return (yield from self.recv(request.src, request.tag))

    def waitall(self, requests: "list[RecvRequest]") -> Generator:
        """Complete several receives; returns their Messages in order."""
        out = []
        for request in requests:
            msg = yield from self.recv(request.src, request.tag)
            out.append(msg)
        return out

    def _collective(self, coll_op: CollectiveOp, coll_root: int, coll_nbytes: int, algo, **kwargs):
        """Allocate this call's instance id and run the traced wrapper.

        The instance id increments identically on every rank because MPI
        requires all ranks to issue collectives on a communicator in the
        same order.  Sub-communicators override the allocation to fold
        in their communicator id (see :mod:`repro.mpi.subcomm`).
        """
        instance = self._alloc_instance()
        world_root = self._root_to_world(coll_root) if 0 <= coll_root < self.size else coll_root
        return MpiContext._collective_impl(
            self, coll_op, world_root, coll_nbytes, algo, instance, **kwargs
        )

    def _collective_impl(
        self, coll_op: CollectiveOp, coll_root: int, coll_nbytes: int, algo, instance, **kwargs
    ) -> Generator:
        """Record COLL_ENTER / run algorithm / record COLL_EXIT.

        ``self`` may be an :class:`MpiContext` or a
        :class:`~repro.mpi.subcomm.SubComm`; only rank/size/buffer and
        the raw operations are touched.  ``coll_root`` is recorded in
        *world* ranks so postmortem flavor mapping works uniformly.
        """
        traced = self.buffer is not None and self.buffer.active
        if traced:
            ts = yield ReadClock()
            cost = self.buffer.append(
                ts, EventType.COLL_ENTER, int(coll_op), coll_root, self.size, instance
            )
            if cost > 0:
                yield Compute(cost)
        result = yield from algo(self, instance, **kwargs)
        if periodic_sync_due(self.periodic_sync_every, instance):
            # All ranks have completed the algorithm and sit at the same
            # program point — the window [17] exploits to measure
            # offsets without extra global synchronization.  The
            # exchange is tool traffic (raw ops, never traced).
            measurements = yield from measurement_protocol(
                self, repeats=self.periodic_sync_repeats
            )
            if measurements is not None:
                self.periodic_series.append(measurements)
        if traced:
            ts = yield ReadClock()
            cost = self.buffer.append(
                ts, EventType.COLL_EXIT, int(coll_op), coll_root, self.size, instance
            )
            if cost > 0:
                yield Compute(cost)
        return result

    def _alloc_instance(self) -> int:
        """Next collective-instance id on this communicator (world: plain
        counter; sub-communicators namespace it — see repro.mpi.subcomm)."""
        instance = self._coll_instance
        self._coll_instance += 1
        return instance

    def _root_to_world(self, root: int) -> int:
        """Translate a communicator-local root to a world rank."""
        return root

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------
    def split(self, color: int, key: Optional[int] = None) -> Generator:
        """Collective communicator split (``MPI_Comm_split`` analogue).

        Every rank of this communicator must call ``split``; ranks with
        equal ``color`` land in the same group, ordered by ``key``
        (default: current rank).  Returns the rank's
        :class:`~repro.mpi.subcomm.SubComm`.

        The membership exchange is an (untraced) allgather, so no rank
        needs out-of-band knowledge of the others' colors.  Limits:
        at most 64 distinct colors per split and application tags below
        ``COMM_TAG_STRIDE`` on the resulting communicator.
        """
        from repro.mpi.subcomm import MAX_COLORS_PER_SPLIT, SubComm

        seq = self._next_split_seq
        self._next_split_seq += 1
        instance = self._alloc_instance()
        me = (int(color), int(key) if key is not None else self.rank, self.rank)
        gathered = yield from _coll.allgather(self, instance, value=me)
        by_color: dict[int, list[tuple[int, int]]] = {}
        for local_rank, (c, k, _) in gathered.items():
            by_color.setdefault(c, []).append((k, local_rank))
        colors = sorted(by_color)
        if len(colors) > MAX_COLORS_PER_SPLIT:
            raise ConfigurationError(
                f"split produced {len(colors)} colors (max {MAX_COLORS_PER_SPLIT})"
            )
        color_index = colors.index(int(color))
        members_local = [r for _, r in sorted(by_color[int(color)])]
        members_world = [self._world_rank_of(r) for r in members_local]
        comm_id = self._child_comm_id(seq, color_index)
        return SubComm(self._world_context(), members_world, comm_id)

    def _world_rank_of(self, local: int) -> int:
        return local  # the world context's local ranks ARE world ranks

    def _world_context(self) -> "MpiContext":
        return self

    def _child_comm_id(self, seq: int, color_index: int) -> int:
        from repro.mpi.subcomm import MAX_COLORS_PER_SPLIT, MAX_SPLITS_PER_COMM

        if seq >= MAX_SPLITS_PER_COMM:
            raise ConfigurationError(f"too many splits on one communicator ({seq})")
        return (
            self.comm_id * (MAX_SPLITS_PER_COMM * MAX_COLORS_PER_SPLIT)
            + seq * MAX_COLORS_PER_SPLIT
            + color_index
            + 1
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MpiContext(rank={self.rank}, size={self.size}, loc={self.location})"
