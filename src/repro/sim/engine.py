"""The discrete-event engine.

Processes are generators yielding :mod:`repro.sim.primitives` requests.
The engine owns the true-time event queue, message transport, and
per-process clocks, and guarantees:

* **determinism** — ties in the event queue break on a monotone sequence
  number, and all randomness flows through generators owned by the
  caller, so a run is a pure function of its inputs;
* **MPI-like matching** — receives match sends in per-(src, dst, tag)
  program order (non-overtaking), with wildcard source/tag supported;
* **causality** — a message is never delivered earlier than
  ``sent_at + transport latency``, so any receive-before-send observed
  in recorded *timestamps* is attributable to clocks, never to the
  simulation (the property the paper's methodology depends on);
* **deadlock detection** — if no events remain but processes are
  blocked, a :class:`repro.errors.DeadlockError` names them.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Generator, Iterable, Optional

import numpy as np

from repro.clocks.base import Clock
from repro.cluster.topology import Location
from repro.errors import DeadlockError, SimulationError
from repro.sim.primitives import Compute, Message, ReadClock, Recv, Send

__all__ = ["Engine", "Transport", "congested_delay"]

ProcessGen = Generator[Any, Any, Any]


def congested_delay(
    delay: float, floor: float, alpha: float, in_flight: int, capacity: int
) -> float:
    """Scale the noise-above-floor part of ``delay`` by the current load.

    Section III.c's load model: ``floor + (delay - floor) *
    (1 + alpha * in_flight / capacity)``.  The floor never moves, so
    congestion cannot create causality violations.  This is the single
    definition of the scaling — :class:`Transport` applies it per
    message in event order, and the batch solver
    (:mod:`repro.sim.batch`) replays the identical arithmetic from its
    event-ordered arrival pass, which is what keeps the two paths
    bit-identical.
    """
    load = in_flight / capacity
    return floor + (delay - floor) * (1.0 + alpha * load)


class Transport:
    """Delivery-latency policy connecting the engine to a latency model.

    Parameters
    ----------
    latency_model:
        Anything satisfying :class:`repro.cluster.network.LatencyModel`.
    rng:
        Stream for latency noise (consumed in deterministic event order).
    send_overhead:
        CPU time the sender spends initiating a transfer, seconds.
    recv_overhead:
        CPU time the receiver spends completing a transfer, seconds.
    """

    __slots__ = (
        "latency_model",
        "rng",
        "send_overhead",
        "recv_overhead",
        "congestion_alpha",
        "congestion_capacity",
        "in_flight",
        "peak_in_flight",
    )

    def __init__(
        self,
        latency_model,
        rng: np.random.Generator,
        send_overhead: float = 1.0e-7,
        recv_overhead: float = 1.0e-7,
        congestion_alpha: float = 0.0,
        congestion_capacity: int = 16,
    ) -> None:
        self.latency_model = latency_model
        self.rng = rng
        self.send_overhead = send_overhead
        self.recv_overhead = recv_overhead
        #: Load sensitivity: the *noise above the floor* of a transfer is
        #: scaled by ``1 + alpha * in_flight / capacity`` — Section III.c's
        #: "the processing time in each stage may vary depending on the
        #: current network load".  The floor itself never moves, so
        #: congestion cannot create causality violations.
        self.congestion_alpha = congestion_alpha
        self.congestion_capacity = max(int(congestion_capacity), 1)
        self.in_flight = 0
        self.peak_in_flight = 0

    def delivery_delay(self, src: Location, dst: Location, nbytes: int) -> float:
        delay = self.latency_model.sample(src, dst, nbytes, self.rng)
        if self.congestion_alpha > 0.0 and self.in_flight > 0:
            floor = self.latency_model.min_latency(src, dst, nbytes)
            delay = congested_delay(
                delay, floor, self.congestion_alpha,
                self.in_flight, self.congestion_capacity,
            )
        return delay

    def min_latency(self, src: Location, dst: Location, nbytes: int = 0) -> float:
        return self.latency_model.min_latency(src, dst, nbytes)


class _Proc:
    """Internal per-process state."""

    __slots__ = ("rank", "gen", "location", "clock", "mailbox", "pending_recv", "done", "result")

    def __init__(self, rank: int, gen: ProcessGen, location: Location, clock: Clock) -> None:
        self.rank = rank
        self.gen = gen
        self.location = location
        self.clock = clock
        self.mailbox: list[Message] = []  # delivered, unmatched messages
        self.pending_recv: Optional[Recv] = None  # at most one (blocking model)
        self.done = False
        self.result: Any = None


class Engine:
    """Run a set of simulated processes to completion.

    Parameters
    ----------
    transport:
        Message delivery policy; may be ``None`` for compute-only
        simulations (any Send/Recv then raises).

    Usage
    -----
    >>> eng = Engine(transport)                        # doctest: +SKIP
    >>> eng.add_process(rank, gen, location, clock)    # doctest: +SKIP
    >>> eng.run()                                      # doctest: +SKIP
    """

    def __init__(self, transport: Optional[Transport] = None) -> None:
        self.transport = transport
        self.now: float = 0.0
        # Heap entries are (time, seq, kind, a, b): kind 0 resumes a
        # process (a=proc, b=value), kind 1 delivers a message
        # (a=dst proc, b=Message).  Plain tuples instead of closures keep
        # the hot loop free of per-event allocations.
        self._queue: list[tuple[float, int, int, object, object]] = []
        self._seq = 0
        self._procs: dict[int, _Proc] = {}
        self._next_match_id = 0
        # Non-overtaking guard: last delivery time per (src, dst).
        self._last_delivery: dict[tuple[int, int], float] = {}
        self.events_processed = 0
        # Deepest the event heap ever got; a single int compare per push
        # keeps this cheap enough for the always-on path (telemetry reads
        # it once, after the run).
        self.queue_high_water = 0
        # Active run() horizon; gates the inline resume fast path.
        self._until: Optional[float] = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_process(
        self, rank: int, gen: ProcessGen, location: Location, clock: Clock, start_at: float = 0.0
    ) -> None:
        """Register a process generator; it is first stepped at ``start_at``."""
        if rank in self._procs:
            raise SimulationError(f"rank {rank} already registered")
        proc = _Proc(rank, gen, location, clock)
        self._procs[rank] = proc
        self._schedule_step(start_at, proc, None)

    @property
    def ranks(self) -> Iterable[int]:
        return self._procs.keys()

    def result_of(self, rank: int) -> Any:
        """Return value of a finished process generator."""
        proc = self._procs[rank]
        if not proc.done:
            raise SimulationError(f"rank {rank} has not finished")
        return proc.result

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _schedule_step(self, at: float, proc: "_Proc", value: Any) -> None:
        if at < self.now:
            raise SimulationError(f"cannot schedule into the past ({at} < {self.now})")
        heapq.heappush(self._queue, (at, self._seq, 0, proc, value))
        self._seq += 1
        if len(self._queue) > self.queue_high_water:
            self.queue_high_water = len(self._queue)

    def _schedule_delivery(self, at: float, dst: "_Proc", msg: Message) -> None:
        if at < self.now:
            raise SimulationError(f"cannot schedule into the past ({at} < {self.now})")
        heapq.heappush(self._queue, (at, self._seq, 1, dst, msg))
        self._seq += 1
        if len(self._queue) > self.queue_high_water:
            self.queue_high_water = len(self._queue)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until completion (or true time ``until``).

        Returns the final true time.  Raises :class:`DeadlockError` if
        the queue drains while processes are still blocked in receives.
        """
        queue = self._queue
        step = self._step
        deliver = self._deliver
        heappop = heapq.heappop
        self._until = until
        while queue:
            at = queue[0][0]
            if until is not None and at > until:
                self.now = until
                return self.now
            at, _, kind, a, b = heappop(queue)
            self.now = at
            self.events_processed += 1
            if kind == 0:
                step(a, b)
            else:
                deliver(a, b)
        blocked = [p.rank for p in self._procs.values() if not p.done]
        if blocked:
            details = ", ".join(
                f"rank {p.rank} waiting on {p.pending_recv!r}"
                for p in self._procs.values()
                if not p.done
            )
            raise DeadlockError(f"simulation deadlocked; blocked: {details}")
        return self.now

    # ------------------------------------------------------------------
    # Process stepping
    # ------------------------------------------------------------------
    def _step(self, proc: _Proc, value: Any) -> None:
        """Resume ``proc`` with ``value`` and dispatch its next request.

        Consecutive ``Compute``/``ReadClock`` resumes whose end time
        precedes every other queued event (and the run horizon) are
        processed inline, coalescing what would be a heap push/pop
        round-trip per request into one loop iteration.  The fast path
        fires only when no other event could be scheduled in between,
        so event order, ``events_processed``, and all observable state
        are bit-identical to the queue-everything behaviour.
        """
        gen_send = proc.gen.send
        clock = proc.clock
        queue = self._queue
        until = self._until
        while True:
            try:
                req = gen_send(value)
            except StopIteration as stop:
                proc.done = True
                proc.result = stop.value
                return
            kind = type(req)
            if kind is Compute:
                at = self.now + req.duration
                resumed = None
            elif kind is Send:
                self._handle_send(proc, req)
                return
            elif kind is Recv:
                self._handle_recv(proc, req)
                return
            elif kind is ReadClock:
                resumed = clock.read(self.now)
                at = self.now + clock.read_overhead
            else:
                raise SimulationError(f"rank {proc.rank} yielded unknown request {req!r}")
            if (until is None or at <= until) and (not queue or at < queue[0][0]):
                self.now = at
                self.events_processed += 1
                value = resumed
                continue
            self._schedule_step(at, proc, resumed)
            return

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _handle_send(self, proc: _Proc, req: Send) -> None:
        if self.transport is None:
            raise SimulationError("engine has no transport; Send is unavailable")
        dst = self._procs.get(req.dst)
        if dst is None:
            raise SimulationError(f"rank {proc.rank} sent to unknown rank {req.dst}")
        match_id = self._next_match_id
        self._next_match_id += 1
        delay = self.transport.delivery_delay(proc.location, dst.location, req.nbytes)
        arrival = self.now + delay
        # MPI non-overtaking: same (src, dst) pairs deliver in send order.
        key = (proc.rank, req.dst)
        # math scalars, not numpy: np.nextafter/np.inf allocate an array
        # scalar per send, which dominates the event loop at scale.
        floor = self._last_delivery.get(key, -math.inf)
        if arrival <= floor:
            arrival = math.nextafter(floor, math.inf)
        self._last_delivery[key] = arrival
        msg = Message(
            src=proc.rank,
            dst=req.dst,
            tag=req.tag,
            nbytes=req.nbytes,
            payload=req.payload,
            match_id=match_id,
            sent_at=self.now,
        )
        self.transport.in_flight += 1
        if self.transport.in_flight > self.transport.peak_in_flight:
            self.transport.peak_in_flight = self.transport.in_flight
        self._schedule_delivery(arrival, dst, msg)
        # Sender resumes after its local overhead, learning the match id.
        self._schedule_step(self.now + self.transport.send_overhead, proc, match_id)

    def _deliver(self, dst: _Proc, msg: Message) -> None:
        self.transport.in_flight -= 1
        msg.delivered_at = self.now
        pending = dst.pending_recv
        if pending is not None and msg.matches(pending.src, pending.tag):
            dst.pending_recv = None
            self._complete_recv(dst, msg)
        else:
            dst.mailbox.append(msg)

    def _handle_recv(self, proc: _Proc, req: Recv) -> None:
        if self.transport is None:
            raise SimulationError("engine has no transport; Recv is unavailable")
        if proc.pending_recv is not None:
            raise SimulationError(f"rank {proc.rank} has overlapping blocking receives")
        for i, msg in enumerate(proc.mailbox):
            if msg.matches(req.src, req.tag):
                proc.mailbox.pop(i)
                self._complete_recv(proc, msg)
                return
        proc.pending_recv = req

    def _complete_recv(self, proc: _Proc, msg: Message) -> None:
        self._schedule_step(self.now + self.transport.recv_overhead, proc, msg)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine(now={self.now:g}, procs={len(self._procs)}, "
            f"queued={len(self._queue)}, processed={self.events_processed})"
        )
