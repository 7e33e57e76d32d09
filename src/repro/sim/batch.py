"""Batched trace generation: an array-native fast path for static workloads.

The discrete-event engine executes one Python generator resume per
event.  For a worker that publishes a ``batch_key`` that is pure
overhead: its communication structure is *statically known* — every
send, receive, clock read and compute interval is fixed by rank, size
and the key (see :func:`run_batch`).  This module records that
structure once into per-rank timeline kernels and then *solves* for
the event times:

1. **Plan compilation** (cached): each rank runs the worker's own
   generator against a :class:`_RankPlan` recorder instead of an
   ``MpiContext``.  The recorder applies exactly the traced lowering of
   :mod:`repro.mpi.comm` (regions, record costs, flush accounting),
   runs collectives through the algorithms of
   :mod:`repro.mpi.collectives`, and expands the init/finalize offset
   measurement of :mod:`repro.sync.offset`.  As soon as a rank is
   recorded it is frozen into a :class:`_Timeline` of flat numpy
   arrays: every time delta of the rank, what each delta starts with (a
   clock read, a send, or neither), where each *segment* — a
   straight-line run between blocking receives — starts, and the
   statically paired event columns.

2. **Timeline solve**: true-time advancement inside a segment is a
   sequential running sum of the segment's deltas (bit-identical to the
   engine's one-add-per-event arithmetic); receives synchronize
   segments through a global send heap that processes sends in true-time
   order — the exact order in which the engine consumes the transport
   RNG — and deliver each arrival by its send serial, the receive's
   static pair.  Latency noise is drawn as one vectorized
   ``standard_gamma`` block and consumed in that same order.

3. **Deferred clock evaluation**: clock reads are collected per physical
   clock, merged in true-time order across the ranks sharing the clock,
   and evaluated with a single :meth:`Clock.read_array` call — the same
   jitter draws, quantization, and monotonicity clamp as per-event
   scalar :meth:`Clock.read`, in the same RNG order.

4. **Columnar assembly**: event logs are built via
   :meth:`EventLog.from_arrays` from the precompiled columns, with
   timestamps gathered from the solved read values and match ids
   patched from the solver.

The contract is **bit-for-bit identity** with the generator engine:
same timestamps, same event order, same ``events_processed``, same
duration, same ``periodic_series`` measurements, and the same RNG
stream positions afterwards.  Periodic (piggybacked) offset
synchronization is compiled into the timelines — the protocol fires at
statically known collective instances (see
:func:`repro.mpi.comm.periodic_sync_due`) — and congestion-coupled
latency is replayed by tracking the engine's in-flight counter from
the solver's time-ordered send pass.  Whenever the fast path cannot
*guarantee* identity (dynamic matching ambiguity, simultaneous sends,
exact send/delivery ties under congestion, run horizons, …) it raises
:class:`BatchFallback` before mutating any shared state and the caller
falls back to the reference engine.  The ``batch_matches_engine``
oracle in :mod:`repro.verify.oracles` fuzzes this contract.
"""

from __future__ import annotations

import copy
import math
from collections import OrderedDict
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Any, Optional

import numpy as np

from repro.cluster.network import HierarchicalLatency, TorusLatency
from repro.cluster.topology import distance_class
from repro.mpi.comm import MPI_RECV_REGION, MPI_SEND_REGION, MpiContext, periodic_sync_due
from repro.sim.engine import congested_delay
from repro.sim.primitives import ANY_SOURCE, ANY_TAG, Message
from repro.sync.offset import SYNC_TAG, OffsetMeasurement, cristian_offset
from repro.telemetry.recorder import ensure_telemetry
from repro.tracing.events import EventLog, EventType
from repro.tracing.trace import Trace

__all__ = ["BatchFallback", "run_batch"]


class BatchFallback(Exception):
    """The batch fast path cannot guarantee bit-identity; use the engine.

    ``code`` is a stable, machine-readable snake_case identifier for the
    reason (``"wildcard_recv"``, ``"congestion"``, ...).  ``world.run``
    copies it onto ``RunResult.fallback_reason`` and telemetry counts it
    under ``sim.batch.fallback.<code>``; ``detail`` is the human-readable
    explanation shown by ``str(exc)``.
    """

    def __init__(self, code: str, detail: Optional[str] = None):
        super().__init__(detail or code)
        self.code = code
        self.detail = detail or code


# ----------------------------------------------------------------------
# Plan recorder
# ----------------------------------------------------------------------
#: What a timeline delta starts with (``_Timeline.kinds``; 0: neither).
_READ, _SEND = 1, 2


class _Timeline:
    """One rank's compiled plan: numpy arrays only.

    ``deltas`` holds every time delta of the rank in program order and
    ``kinds`` what each one starts with: a clock read (``_READ``; its
    slot counts the reads before it), a send (``_SEND``; its serial is
    the rank's send base plus the sends before it) or neither.
    Segment ``i`` runs over ``deltas[starts[i]:starts[i + 1]]`` and ends
    in the receive paired with send ``paired[i]`` (-1: the rank's end).
    The event columns hold timestamps as read slots, and the serials of
    the traced sends and of the sends paired with the traced receives.
    """

    __slots__ = ("deltas", "kinds", "starts", "paired",
                 "slot", "et", "a", "b", "c", "d_static",
                 "send_rows", "send_serials", "recv_rows", "recv_match_serials")


#: What every recorded receive returns.  The batch engine moves no data,
#: so the payload is an empty (read-only) mapping; the other fields are
#: placeholders.
_RECORDED = Message(ANY_SOURCE, ANY_SOURCE, ANY_TAG, 0, MappingProxyType({}), -1, math.nan)


class _RankPlan(MpiContext):
    """Records one rank's operations through the ``MpiContext`` surface.

    :func:`_record_rank` drives the worker's own generator against this
    recorder.  Each operation records its part of the rank's timeline
    and returns at once, applying exactly the traced lowering of
    :class:`MpiContext` (regions, record costs, flush accounting).  The
    collectives, ``sendrecv`` and the nonblocking calls are inherited;
    they reach the recorder through :meth:`_collective`, :meth:`send`
    and :meth:`recv`, so collectives run the algorithms of
    :mod:`repro.mpi.collectives` themselves.  ``wtime`` returns 0.0
    unless the rank's solved clock ``readings`` are given.
    """

    def __init__(self, world, rank, *, tracing, tracing_initially, readings=None):
        super().__init__(
            rank, world.pinning.nranks, None, world.jitter,
            world.fabric.generator("jitter", rank), mpi_regions=world.mpi_regions,
        )
        self.tracing = tracing
        self.active = tracing_initially
        self.record_cost = world.record_cost
        self.flush_cost = world.flush_cost
        self.capacity = world.trace_buffer_capacity
        self.read_overhead = world.spec.read_overhead
        self.send_overhead = world.send_overhead
        self.periodic_sync_every = world.periodic_sync_every
        self.periodic_sync_repeats = world.periodic_sync_repeats
        self.readings = readings
        #: Did the worker read the clock (its result depends on readings)?
        self.reads_clock = False
        #: Filled by :func:`_record_rank`.
        self.init_spec = self.final_spec = self.result = None
        #: Slot bookkeeping of each fired periodic measurement, in
        #: firing order (same protocol spec shape as init/final).
        self.periodic_specs: list = []
        self._since_flush = 0
        self.n_reads = 0
        # The timeline, recorded flat for the whole rank: every delta,
        # the positions of the reads and sends among them, and where each
        # segment starts.  finish() freezes all lists into a _Timeline.
        self.deltas: list[float] = []
        self.read_pos: list[int] = []
        self.send_pos: list[int] = []
        self.starts: list[int] = [0]
        # Communication metadata (program order).
        self.sends: list[tuple[int, int, int]] = []  # (dst, tag, nbytes)
        self.recvs: list[tuple[int, int]] = []  # (src, tag)
        self.rows: list[tuple] = []  # (slot, etype, a, b, c, d) per event
        self.send_rows: list[tuple[int, int]] = []  # (event row, local send idx)
        self.recv_rows: list[tuple[int, int]] = []  # (event row, local recv idx)
        self.timeline: Optional[_Timeline] = None

    # -- low-level emission -------------------------------------------
    @property
    def traced(self) -> bool:
        return self.tracing and self.active

    def _read(self) -> int:
        slot = self.n_reads
        self.n_reads += 1
        self.read_pos.append(len(self.deltas))
        self.deltas.append(self.read_overhead)
        return slot

    def _record(self, slot, etype, a=0, b=0, c=0, d=0) -> int:
        row = len(self.rows)
        self.rows.append((slot, int(etype), a, b, c, d))
        cost = self.record_cost
        self._since_flush += 1
        if self.capacity and self._since_flush >= self.capacity:
            self._since_flush = 0
            cost += self.flush_cost
        if cost > 0:
            self.deltas.append(cost)
        return row

    def _event(self, etype, a) -> None:
        if self.traced:
            self._record(self._read(), etype, a)

    def _send(self, dst: int, tag: int, nbytes: int) -> None:
        self.send_pos.append(len(self.deltas))
        self.sends.append((dst, tag, nbytes))
        self.deltas.append(self.send_overhead)

    def _recv(self, src: int, tag: int) -> None:
        if src < 0 or tag == ANY_TAG:
            # ANY_SOURCE / ANY_TAG need dynamic mailbox scans (tags < -1
            # are collective/sync tags and remain fully static).
            raise BatchFallback("wildcard_recv", "wildcard receive needs the engine's matching")
        self.recvs.append((src, tag))
        self.starts.append(len(self.deltas))

    def finish(self) -> None:
        """Freeze the recorded rank into :attr:`timeline` and drop its lists.

        ``sends`` and ``recvs`` become ``(n, 3)`` and ``(n, 2)`` arrays
        for :func:`_compile`, which also makes the send serials global
        and fills in ``paired``.
        """
        self.starts.append(len(self.deltas))
        tl = self.timeline = _Timeline()
        tl.deltas = np.array(self.deltas, dtype=np.float64)
        tl.kinds = np.zeros(tl.deltas.size, dtype=np.int8)
        tl.kinds[self.read_pos] = _READ
        tl.kinds[self.send_pos] = _SEND
        tl.starts = np.array(self.starts, dtype=np.int64)
        cols = np.array(self.rows, dtype=np.int64).reshape(-1, 6).T
        tl.slot, tl.a, tl.b, tl.c, tl.d_static = (cols[k].copy() for k in (0, 2, 3, 4, 5))
        tl.et = cols[1].astype(np.int8)
        tl.send_rows, tl.send_serials = np.array(
            self.send_rows, dtype=np.int64).reshape(-1, 2).T.copy()
        tl.recv_rows, tl.recv_match_serials = np.array(
            self.recv_rows, dtype=np.int64).reshape(-1, 2).T.copy()
        self.sends = np.array(self.sends, dtype=np.int64).reshape(-1, 3)
        self.recvs = np.array(self.recvs, dtype=np.int64).reshape(-1, 2)
        self.deltas = self.read_pos = self.send_pos = self.starts = None
        self.rows = self.send_rows = self.recv_rows = None

    # -- MpiContext surface: generators that record and return at once -
    def compute(self, duration: float):
        if self.jitter_model is not None and self.jitter_rng is not None:
            duration = self.jitter_model.perturb(duration, self.jitter_rng)
        yield from self.sleep(duration)

    def sleep(self, duration: float):
        if duration > 0:
            self.deltas.append(duration)
        yield from ()

    def wtime(self):
        slot = self._read()
        self.reads_clock = True
        yield from ()
        return 0.0 if self.readings is None else float(self.readings[slot])

    def set_tracing(self, enabled: bool) -> None:
        if self.tracing:
            self.active = enabled

    def send_raw(self, dst: int, tag: int = 0, nbytes: int = 0, payload=None):
        self._send(dst, tag, nbytes)
        yield from ()

    def recv_raw(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._recv(src, tag)
        yield from ()
        return _RECORDED

    def send(self, dst: int, tag: int = 0, nbytes: int = 0, payload=None):
        if not self.traced:
            self._send(dst, tag, nbytes)
        else:
            if self.mpi_regions:
                self._event(EventType.ENTER, MPI_SEND_REGION)
            slot = self._read()
            local = len(self.sends)
            self._send(dst, tag, nbytes)
            row = self._record(slot, EventType.SEND, dst, tag, nbytes, 0)
            self.send_rows.append((row, local))
            if self.mpi_regions:
                self._event(EventType.EXIT, MPI_SEND_REGION)
        yield from ()

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        if not self.traced:
            self._recv(src, tag)
        else:
            if self.mpi_regions:
                self._event(EventType.ENTER, MPI_RECV_REGION)
            local = len(self.recvs)
            self._recv(src, tag)
            slot = self._read()
            # a=src and b=tag are static (explicit receive); c (nbytes)
            # and d (match id) are patched from the paired send.
            row = self._record(slot, EventType.RECV, src, tag, 0, 0)
            self.recv_rows.append((row, local))
            if self.mpi_regions:
                self._event(EventType.EXIT, MPI_RECV_REGION)
        yield from ()
        return _RECORDED

    def enter_region(self, region_id: int):
        self._event(EventType.ENTER, region_id)
        yield from ()

    def exit_region(self, region_id: int):
        self._event(EventType.EXIT, region_id)
        yield from ()

    def split(self, color, key=None):
        raise BatchFallback("comm_split", "communicator splits need the engine")

    def _collective(self, coll_op, coll_root, coll_nbytes, algo, **kwargs):
        instance = self._alloc_instance()
        traced = self.traced
        if traced:
            self._record(self._read(), EventType.COLL_ENTER,
                         int(coll_op), coll_root, self.size, instance)
        result = yield from algo(self, instance, **kwargs)
        if periodic_sync_due(self.periodic_sync_every, instance):
            # As in MpiContext._collective_impl: the piggybacked Cristian
            # protocol runs between the algorithm and the COLL_EXIT
            # record, as raw (untraced) tool traffic.
            self.periodic_specs.append(
                _plan_measurement(self, self.periodic_sync_repeats)
            )
        if traced:
            self._record(self._read(), EventType.COLL_EXIT,
                         int(coll_op), coll_root, self.size, instance)
        return result


def _record_rank(world, worker, rank, *, measure, sync_repeats, readings=None,
                 **trace_modes) -> _RankPlan:
    """Record one rank by running ``worker``'s own generator.

    Init measurement, worker, finalize measurement — the order of
    ``MpiWorld._main``.  The worker's return value lands in
    ``plan.result``.  No operation of the recorder yields, so a yield
    reaching this driver is a raw engine request the plan cannot hold.
    """
    plan = _RankPlan(world, rank, readings=readings, **trace_modes)
    plan.init_spec = _plan_measurement(plan, sync_repeats) if measure else None
    run = worker(plan)
    try:
        run.send(None)
    except StopIteration as done:
        plan.result = done.value
    else:
        raise BatchFallback("raw_yield", "the worker yields engine requests itself")
    plan.final_spec = _plan_measurement(plan, sync_repeats) if measure else None
    plan.finish()
    return plan


# ----------------------------------------------------------------------
# Offset-measurement expansion (repro.sync.offset.measurement_protocol)
# ----------------------------------------------------------------------
def _plan_measurement(plan: _RankPlan, repeats: int, master: int = 0):
    """Expand the Cristian protocol; returns slot bookkeeping.

    Master: ``{worker: [(t1_slot, t2_slot), ...]}``.  Worker: list of its
    ``t0`` slots, aligned with the master's exchange order.
    """
    if plan.rank == master:
        spec: dict[int, list[tuple[int, int]]] = {}
        for worker in range(plan.size):
            if worker == master:
                continue
            pairs = []
            for _ in range(repeats):
                t1 = plan._read()
                plan._send(worker, SYNC_TAG, 8)
                plan._recv(worker, SYNC_TAG)
                t2 = plan._read()
                pairs.append((t1, t2))
            spec[worker] = pairs
        return spec
    slots = []
    for _ in range(repeats):
        plan._recv(master, SYNC_TAG)
        slots.append(plan._read())
        plan._send(master, SYNC_TAG, 8)
    return slots


# ----------------------------------------------------------------------
# Compiled plan
# ----------------------------------------------------------------------
class _CompiledPlan:
    """``timelines[r]``: rank ``r``'s :class:`_Timeline`; its sends have
    the serials from ``send_base[r]`` on.  ``weight``: trace events plus
    sends, held against the cache budget."""

    __slots__ = (
        "nranks", "timelines", "send_base", "rank_nreads",
        "n_sends", "send_src", "send_dst", "send_nbytes",
        "events_processed", "weight",
        "results", "reads_clock", "init_specs", "final_specs", "periodic_specs",
        "latency_cache",
    )


#: Plans by key, least recently used first, at most this much weight in
#: all (one POP 16/0.15 plan weighs 147,000).
_PLAN_CACHE: "OrderedDict[tuple, _CompiledPlan]" = OrderedDict()
_PLAN_CACHE_EVENTS = 2**19


def _compile(world, worker, key: tuple, modes: dict) -> _CompiledPlan:
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        _PLAN_CACHE.move_to_end(key)
        return cached

    nranks = world.pinning.nranks
    rank_plans = [_record_rank(world, worker, rank, **modes) for rank in range(nranks)]

    plan = _CompiledPlan()
    plan.nranks = nranks
    plan.rank_nreads = [rp.n_reads for rp in rank_plans]
    plan.results = [rp.result for rp in rank_plans]
    plan.reads_clock = [rp.reads_clock for rp in rank_plans]
    plan.init_specs = [rp.init_spec for rp in rank_plans]
    plan.final_specs = [rp.final_spec for rp in rank_plans]
    # Group the piggybacked measurements per firing: collectives issue
    # in the same order on every rank (an MPI requirement the instance
    # counter relies on), so the k-th fired protocol on one rank pairs
    # with the k-th on every other.
    n_fired = {len(rp.periodic_specs) for rp in rank_plans}
    if len(n_fired) > 1:
        raise BatchFallback(
            "periodic_sync",
            "ranks disagree on the periodic measurement schedule",
        )
    plan.periodic_specs = [
        [rp.periodic_specs[k] for rp in rank_plans]
        for k in range(n_fired.pop())
    ]
    plan.latency_cache = {}

    # Global send serials: each rank's sends follow the previous rank's.
    n_sends = [len(rp.sends) for rp in rank_plans]
    plan.send_base = np.cumsum([0] + n_sends[:-1]).tolist()
    plan.send_dst, send_tag, plan.send_nbytes = (
        np.concatenate(column) for column in zip(*(rp.sends.T for rp in rank_plans))
    )
    plan.n_sends = len(send_tag)
    plan.send_src = np.repeat(np.arange(nranks), n_sends)
    send_channels = (plan.send_src, plan.send_dst, send_tag)
    plan.timelines = [rp.timeline for rp in rank_plans]
    for rank, (rp, tl) in enumerate(zip(rank_plans, plan.timelines)):
        tl.paired = np.append(_pair_receives(rank, rp.recvs, send_channels), -1)
        tl.send_serials += plan.send_base[rank]
        # A receive's local index is the index of the segment it ends.
        tl.recv_match_serials = tl.paired[tl.recv_match_serials]
        # Patch the static part of recv events from the matched send.
        tl.c[tl.recv_rows] = plan.send_nbytes[tl.recv_match_serials]
    # Per-event pops: one initial resume per rank, one resume per delta
    # (computes, clock reads, sender resumes), one completion resume per
    # receive, and one delivery pop per send.
    plan.events_processed = nranks + plan.n_sends + sum(
        rp.timeline.deltas.size + len(rp.recvs) for rp in rank_plans
    )
    plan.weight = plan.n_sends + sum(tl.slot.size for tl in plan.timelines)

    _PLAN_CACHE[key] = plan
    held = sum(cached.weight for cached in _PLAN_CACHE.values())
    while held > _PLAN_CACHE_EVENTS:
        held -= _PLAN_CACHE.popitem(last=False)[1].weight
    return plan


def _plan_bytes(plan: _CompiledPlan) -> int:
    """Bytes held by the plan's arrays, its latency cache included."""
    arrays = [plan.send_src, plan.send_dst, plan.send_nbytes]
    arrays += [getattr(tl, name) for tl in plan.timelines for name in _Timeline.__slots__]
    arrays += [a for static in plan.latency_cache.values() if static for a in static[:2]]
    return sum(a.nbytes for a in arrays)


def _pair_receives(rank: int, recvs: np.ndarray, send_channels: tuple) -> np.ndarray:
    """The serial of the send each receive of ``rank`` is paired with.

    ``recvs`` holds the rank's receives as ``(src, tag)`` rows in program
    order, ``send_channels`` the ``(src, dst, tag)`` columns of every
    send by serial.  The k-th receive on a (src, dst, tag) channel takes
    the channel's k-th send: sends on one channel leave one rank in
    program order at strictly increasing true times (a tie is
    ``simultaneous_sends``), so they also arrive in that order.
    """
    send_src, send_dst, send_tag = send_channels
    serials = np.flatnonzero(send_dst == rank)
    tag = np.concatenate([send_tag[serials], recvs[:, 1]])
    tags = np.unique(tag)
    channel = np.concatenate([send_src[serials], recvs[:, 0]]) * len(tags)
    send_chan, recv_chan = np.split(channel + np.searchsorted(tags, tag), [serials.size])
    # The sends channel after channel, each channel's in serial order;
    # where each receive's channel starts among them and how many sends
    # it has; and each receive's index among its channel's receives.
    by_channel = np.argsort(send_chan, kind="stable")
    sorted_chan = send_chan[by_channel]
    first = np.searchsorted(sorted_chan, recv_chan, "left")
    posted = np.searchsorted(sorted_chan, recv_chan, "right") - first
    order = np.argsort(recv_chan, kind="stable")
    ranked = recv_chan[order]
    k = np.empty_like(order)
    k[order] = np.arange(order.size) - np.searchsorted(ranked, ranked, "left")
    unpaired = np.flatnonzero(k >= posted)
    if unpaired.size:
        j = unpaired[0]
        src, tag = recvs[j].tolist()
        if not posted[j]:
            raise BatchFallback(
                "unmatched_recv",
                f"rank {rank} receives on channel {(src, rank, tag)} with no sender",
            )
        raise BatchFallback(
            "missing_send", f"rank {rank} posts more receives than sends on {(src, rank, tag)}"
        )
    return serials[by_channel[first + k]]


# ----------------------------------------------------------------------
# Latency static parameters (vectorized noise consumption)
# ----------------------------------------------------------------------
def _latency_fingerprint(model) -> Optional[tuple]:
    if isinstance(model, HierarchicalLatency):
        return ("hier",) + tuple(
            (cls.value, s.base, s.bandwidth, s.jitter, s.jitter_shape)
            for cls, s in sorted(model._table.items(), key=lambda kv: kv[0].value)
        )
    if isinstance(model, TorusLatency):
        intra = _latency_fingerprint(model.intra_node)
        return ("torus", model.dims, model.inter_node_base, model.per_hop,
                model.bandwidth, model.jitter, model.jitter_shape, intra)
    return None


def _static_latency(plan: _CompiledPlan, model, locations) -> Optional[tuple]:
    """Per-send (floor, scale, shape) when the model decomposes statically.

    Returns ``(floors, scales, shape, n_noisy)``, two arrays over the send
    serials, or ``None`` when the model is unknown or uses mixed gamma
    shapes (the solver then falls back to per-send scalar
    ``model.sample`` calls — still bit-identical, just slower).  Each
    distinct (src, dst, nbytes) is evaluated once.
    """
    fp = _latency_fingerprint(model)
    if fp is None:
        return None
    loc_key = tuple((loc.node, loc.chip, loc.core) for loc in locations)
    cached = plan.latency_cache.get((loc_key, fp))
    if cached is not None:
        return cached
    sends = np.stack([plan.send_src, plan.send_dst, plan.send_nbytes], axis=1)
    distinct, of_send = np.unique(sends, axis=0, return_inverse=True)
    floors = np.empty(len(distinct), dtype=np.float64)
    scales = np.zeros(len(distinct), dtype=np.float64)
    shapes = set()
    for j, (s, d, nbytes) in enumerate(distinct.tolist()):
        src, dst = locations[s], locations[d]
        if isinstance(model, TorusLatency) and src.node != dst.node:
            floors[j] = model.min_latency(src, dst, nbytes)
            jitter, shape = model.jitter, model.jitter_shape
        else:
            table = model.intra_node if isinstance(model, TorusLatency) else model
            sample = table.sample_for_class(distance_class(src, dst))
            floors[j] = sample.floor(nbytes)
            jitter, shape = sample.jitter, sample.jitter_shape
        if jitter > 0.0:
            scales[j] = jitter / shape
            shapes.add(shape)
    if len(shapes) > 1:
        result = None
    else:
        of_send = of_send.reshape(-1)
        scales = scales[of_send]
        shape = shapes.pop() if shapes else 0.0
        result = (floors[of_send], scales, shape, int(np.count_nonzero(scales > 0.0)))
    plan.latency_cache[(loc_key, fp)] = result
    return result


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------
def _solve(plan: _CompiledPlan, world, locations, rng):
    """Walk all rank timelines; returns per-rank read times and solver state.

    The plan's arrays are read through memoryviews: indexing one yields
    a Python int or float as fast as indexing a list, with no copy.
    """
    nranks = plan.nranks
    recv_ovh = world.recv_overhead
    model = world.preset.latency
    static = _static_latency(plan, model, locations)
    if static is not None:
        floors, scales, shape, n_noisy = static
        floors, scales = memoryview(floors), memoryview(scales)
        if n_noisy:
            noise = memoryview(rng.standard_gamma(shape, size=n_noisy))
    ni = 0
    # Congestion state, mirrored from repro.sim.engine.Transport: the
    # send heap already pops in strictly increasing true time — the
    # exact order in which the engine executes sends — so the engine's
    # in-flight counter can be replayed from an arrival min-heap.
    alpha = world.congestion_alpha
    congested = alpha > 0.0
    capacity = max(int(world.congestion_capacity), 1)
    in_flight = 0
    pending: list[float] = []  # scheduled deliveries not yet processed

    read_times = [np.empty(n, dtype=np.float64) for n in plan.rank_nreads]
    views = [
        (memoryview(tl.deltas), memoryview(tl.kinds), memoryview(tl.starts),
         memoryview(tl.paired), memoryview(rt))
        for tl, rt in zip(plan.timelines, read_times)
    ]
    send_base = plan.send_base
    # Where each parked rank stands: true time, segment, next read, next send.
    parked: list[Optional[tuple]] = [None] * nranks
    done_t = [None] * nranks
    # Per send serial: its arrival once delivered (None before), and the
    # rank parked on its receive until then (-1 while none is).
    arrived: list[Optional[float]] = [None] * plan.n_sends
    waiter = [-1] * plan.n_sends
    heap: list[tuple[float, int]] = []
    match_ids = np.zeros(plan.n_sends, dtype=np.int64)
    match_view = memoryview(match_ids)
    send_pair = memoryview(plan.send_src * nranks + plan.send_dst)
    last_delivery = [-math.inf] * (nranks * nranks)
    max_arrival = -math.inf

    def advance(r: int, t: float, i: int, ri: int, si: int) -> None:
        deltas, kinds, starts, paired, rt = views[r]
        base = send_base[r]
        while True:
            for j in range(starts[i], starts[i + 1]):
                kind = kinds[j]
                if kind:
                    if kind == _READ:
                        rt[ri] = t
                        ri += 1
                    else:
                        heappush(heap, (t, base + si))
                        si += 1
                t += deltas[j]
            serial = paired[i]
            if serial < 0:
                done_t[r] = t
                return
            arrival = arrived[serial]
            if arrival is not None:
                if arrival > t:
                    t = arrival
                t += recv_ovh
                i += 1
                continue
            waiter[serial] = r
            parked[r] = (t, i, ri, si)
            return

    for r in range(nranks):
        advance(r, 0.0, 0, 0, 0)

    next_mid = 0
    prev = -math.inf
    while heap:
        t_send, serial = heappop(heap)
        if t_send <= prev:
            # Two sends at exactly the same true time: the engine breaks
            # the tie on scheduling order, which the solver cannot see.
            raise BatchFallback(
                "simultaneous_sends", "simultaneous sends; tie order is engine-defined"
            )
        prev = t_send
        if congested:
            # The engine decrements in_flight when the delivery event is
            # processed.  A delivery strictly before this send always
            # pops first (the inline resume fast path requires
            # ``at < queue[0][0]``, so a queued delivery blocks it); an
            # *exact* tie breaks on heap insertion order, which the
            # solver cannot reconstruct.
            while pending and pending[0] < t_send:
                heappop(pending)
                in_flight -= 1
            if pending and pending[0] == t_send:
                raise BatchFallback(
                    "congestion_tie",
                    "send coincides with a delivery; load is tie-order-defined",
                )
        if static is not None:
            scale = scales[serial]
            if scale > 0.0:
                delay = floors[serial] + noise[ni] * scale
                ni += 1
            else:
                delay = floors[serial]
        else:
            delay = model.sample(
                locations[plan.send_src[serial]],
                locations[plan.send_dst[serial]],
                int(plan.send_nbytes[serial]),
                rng,
            )
        if congested:
            if in_flight > 0:
                # Transport.delivery_delay's scaling, with the same
                # floor: the static decomposition's per-send floor *is*
                # model.min_latency for every supported model.
                lat_floor = (
                    floors[serial] if static is not None
                    else model.min_latency(
                        locations[plan.send_src[serial]],
                        locations[plan.send_dst[serial]],
                        int(plan.send_nbytes[serial]),
                    )
                )
                delay = congested_delay(delay, lat_floor, alpha, in_flight, capacity)
            in_flight += 1  # this message, counted after its own delay
        arrival = t_send + delay
        pi = send_pair[serial]
        floor = last_delivery[pi]
        if arrival <= floor:
            arrival = math.nextafter(floor, math.inf)
        last_delivery[pi] = arrival
        if congested:
            heappush(pending, arrival)
        match_view[serial] = next_mid
        next_mid += 1
        if arrival > max_arrival:
            max_arrival = arrival
        w = waiter[serial]
        if w >= 0:
            pt, i, ri, si = parked[w]
            advance(w, (arrival if arrival > pt else pt) + recv_ovh, i + 1, ri, si)
        else:
            arrived[serial] = arrival

    blocked = [r for r in range(nranks) if done_t[r] is None]
    if blocked:
        raise BatchFallback(
            "deadlock", f"ranks {blocked} blocked; engine reports the deadlock"
        )
    duration = max(done_t)
    if max_arrival > duration:
        duration = max_arrival
    return read_times, match_ids, duration


# ----------------------------------------------------------------------
# Deferred clock evaluation
# ----------------------------------------------------------------------
def _evaluate_clocks(read_times, clocks):
    """One ``read_array`` per physical clock, in engine RNG order.

    Raises :class:`BatchFallback` — before consuming any clock RNG or
    touching monotonicity state — if reads of *different* ranks sharing
    a jittered clock coincide in true time (the engine breaks such ties
    on scheduling order).  Ties between reads of the *same* rank are
    fine: per-rank read times are nondecreasing in program order, the
    stable argsort keeps equal-time runs in concatenation (= rank,
    then program) order, and the engine evaluates a rank's reads in
    program order too — so the RNG pairing is unambiguous.  Single-rank
    groups (private clocks — the common case) skip the concatenate /
    argsort / tie scan entirely.
    """
    groups: dict[int, list[int]] = {}
    clock_of: dict[int, Any] = {}
    for r, clock in enumerate(clocks):
        groups.setdefault(id(clock), []).append(r)
        clock_of[id(clock)] = clock

    prepared = []
    for cid, ranks in groups.items():
        clock = clock_of[cid]
        if len(ranks) == 1:
            times = read_times[ranks[0]]
            order = None
        else:
            times = np.concatenate([read_times[r] for r in ranks])
            order = np.argsort(times, kind="stable")
            times = times[order]
            if clock.read_jitter > 0.0 and times.size > 1:
                tied = np.diff(times) == 0.0
                if np.any(tied):
                    # Only *cross-rank* ties are ambiguous.  Stable sort
                    # keeps an equal-time run grouped by owner, so one
                    # adjacent owner-change check over the tied pairs
                    # decides it.
                    sizes = [read_times[r].size for r in ranks]
                    owner = np.repeat(np.arange(len(ranks)), sizes)[order]
                    if np.any(tied & (owner[1:] != owner[:-1])):
                        raise BatchFallback(
                            "shared_clock_tie",
                            "simultaneous cross-rank reads on a shared jittered clock",
                        )
        prepared.append((clock, ranks, times, order))

    read_values = [None] * len(clocks)
    for clock, ranks, times, order in prepared:
        if times.size == 0:
            for r in ranks:
                read_values[r] = np.empty(0, dtype=np.float64)
            continue
        values = clock.read_array(times, jitter=True)
        if clock._last != -math.inf:
            values = np.maximum(values, clock._last)
        clock._last = float(values[-1])
        if order is None:
            read_values[ranks[0]] = values
        else:
            unsorted = np.empty_like(values)
            unsorted[order] = values
            offset = 0
            for r in ranks:
                n = read_times[r].size
                read_values[r] = unsorted[offset:offset + n]
                offset += n
    return read_values


# ----------------------------------------------------------------------
# Offset reconstruction
# ----------------------------------------------------------------------
def _build_offsets(master_spec, worker_specs, read_values, repeats, master=0):
    if master_spec is None:
        return None
    results: dict[int, OffsetMeasurement] = {}
    vm = read_values[master]
    for worker, pairs in master_spec.items():
        vw = read_values[worker]
        t0_slots = worker_specs[worker]
        best = None
        for (s1, s2), s0 in zip(pairs, t0_slots):
            t1 = float(vm[s1])
            t2 = float(vm[s2])
            t0 = float(vw[s0])
            rtt = t2 - t1
            if best is None or rtt < best.rtt:
                best = OffsetMeasurement(
                    worker=worker, worker_time=t0,
                    offset=cristian_offset(t1, t0, t2),
                    rtt=rtt, repeats=repeats,
                )
        results[worker] = best
    return results


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_batch(world, worker, *, tracing=True, measure_offsets=True,
              sync_repeats=10, tracing_initially=True, until=None, telemetry=None):
    """Execute ``worker`` through the batched fast path.

    Returns the same :class:`repro.mpi.runtime.RunResult` the reference
    engine would produce, bit for bit, or raises :class:`BatchFallback`
    when identity cannot be guaranteed.

    A worker opts in with a hashable ``batch_key`` attribute, which also
    keys the plan cache.  Its contract: control flow, sends and receives
    depend only on rank, size and the key; clock readings may shape only
    the return value.  The plan is recorded by running ``worker`` itself
    against :class:`_RankPlan`, where every received payload is an
    empty mapping and ``wtime`` reads 0.0.  A rank's result is what its
    worker returned while recording; a rank that read its clock runs
    once more, with ``wtime`` returning its solved readings.  A worker
    without a ``batch_key`` falls back (``no_plan``).  ``telemetry``
    counts each plan-cache lookup as ``sim.batch.plan_cache.hits`` or
    ``.misses`` and gauges the bytes the cached plans hold as
    ``sim.batch.plan_cache.bytes``.
    """
    from repro.mpi.runtime import RunResult

    if until is not None:
        raise BatchFallback("until", "run horizons need the event loop")
    batch_key = getattr(worker, "batch_key", None)
    if batch_key is None:
        raise BatchFallback("no_plan", "worker has no batch_key")

    modes = dict(
        tracing=bool(tracing), tracing_initially=bool(tracing_initially),
        measure=bool(measure_offsets), sync_repeats=int(sync_repeats),
    )
    key = (
        batch_key, world.pinning.nranks, *modes.values(), world.mpi_regions,
        world.record_cost, world.flush_cost, world.trace_buffer_capacity,
        world.send_overhead, world.recv_overhead, world.spec.read_overhead,
        world.jitter, world.fabric.seed,
        world.periodic_sync_every, world.periodic_sync_repeats,
    )
    tele = ensure_telemetry(telemetry)
    tele.count(f"sim.batch.plan_cache.{'hits' if key in _PLAN_CACHE else 'misses'}")
    plan = _compile(world, worker, key, modes)

    nranks = plan.nranks
    locations = [world.pinning[r] for r in range(nranks)]
    clocks = [world.ensemble.clock_for(loc) for loc in locations]
    rng = world.fabric.generator("network")

    read_times, match_ids, duration = _solve(plan, world, locations, rng)
    if tele.enabled:
        tele.gauge("sim.batch.plan_cache.bytes", sum(map(_plan_bytes, _PLAN_CACHE.values())))
    read_values = _evaluate_clocks(read_times, clocks)

    results = {
        r: (
            _record_rank(world, worker, r, readings=read_values[r], **modes).result
            if plan.reads_clock[r] else copy.deepcopy(plan.results[r])
        )
        for r in range(nranks)
    }
    init_offsets = final_offsets = None
    if measure_offsets:
        init_offsets = _build_offsets(
            plan.init_specs[0], plan.init_specs, read_values, sync_repeats
        )
        final_offsets = _build_offsets(
            plan.final_specs[0], plan.final_specs, read_values, sync_repeats
        )
    periodic_offsets = [
        _build_offsets(specs[0], specs, read_values, world.periodic_sync_repeats)
        for specs in plan.periodic_specs
    ]

    trace = None
    if tracing:
        logs = {}
        for r in range(nranks):
            tl = plan.timelines[r]
            d = tl.d_static.copy()
            d[tl.send_rows] = match_ids[tl.send_serials]
            d[tl.recv_rows] = match_ids[tl.recv_match_serials]
            logs[r] = EventLog.from_arrays(read_values[r][tl.slot], tl.et, tl.a, tl.b, tl.c, d)
        trace = Trace(
            logs, meta=world._trace_meta(duration, init_offsets, final_offsets, periodic_offsets)
        )

    return RunResult(
        trace=trace,
        init_offsets=init_offsets,
        final_offsets=final_offsets,
        results=results,
        duration=duration,
        events_processed=plan.events_processed,
        periodic_offsets=periodic_offsets,
        engine="batch",
        rng_states=world._rng_states(rng),
    )
