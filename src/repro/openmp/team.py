"""OpenMP thread-team simulation emitting POMP events.

The benchmark mirrors the paper's: *"a simple OpenMP benchmark program
that executes a loop whose body contains a single parallel-for
construct"*, run with 4..16 threads on an Itanium SMP node with 4 chips
of 4 cores, events recorded per the POMP model, **no** offset alignment
or interpolation applied (Fig. 8's setup).

Per region instance the team produces, in true-time order:

1. master records ``OMP_FORK`` and wakes the workers through a binary
   signal tree (shared-memory latency per hop);
2. every thread records ``OMP_PAR_ENTER`` when it starts the body;
3. body compute (per-thread jittered chunk);
4. ``OMP_BARRIER_ENTER`` / tree barrier (gather + release) /
   ``OMP_BARRIER_EXIT``;
5. every thread records ``OMP_PAR_EXIT``; workers signal completion up
   the tree; the master records ``OMP_JOIN`` last.

Violations arise *only* from clock disagreement: in true time the order
is correct by construction, exactly like the paper's real system where
the hardware enforced it.

Shared-memory synchronization uses its own latency table
(:func:`shm_latency`) well below the machine's MPI latencies — cache-
line transfer costs, the "low latency of shared-memory synchronization"
the paper blames for the high violation rates at small thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clocks.factory import ClockEnsemble, timer_spec
from repro.cluster.jitter import OsJitterModel
from repro.cluster.machines import itanium_node
from repro.cluster.network import HierarchicalLatency, LatencySample
from repro.cluster.topology import Location
from repro.errors import ConfigurationError
from repro.rng import RngFabric
from repro.sim.engine import Engine, Transport
from repro.sim.primitives import Compute, ReadClock, Recv, Send
from repro.sync.offset import OffsetMeasurement, cristian_offset, measurements_to_meta
from repro.tracing.buffer import TraceBuffer
from repro.tracing.events import EventType
from repro.tracing.trace import Trace
from repro.units import USEC

__all__ = ["OmpTeamConfig", "run_parallel_for_benchmark", "shm_latency"]

WAKE_TAG = 1
BARRIER_TAG = 2
DONE_TAG = 3
SYNC_TAG = 4
REGION_ID = 501


def shm_latency(contention: float = 1.0) -> HierarchicalLatency:
    """Cache-line-transfer latencies for shared-memory synchronization:
    0.05 µs between chips, 0.02 µs within one, jitter 40 % of each.

    An order of magnitude below MPI message latencies (Table II), per
    the paper's emphasis that OpenMP synchronizes much faster than the
    clocks agree.  ``contention`` scales both classes: with more threads
    hammering the same synchronization lines, each transfer queues
    behind the others on the front-side bus — the mechanism behind
    "OpenMP synchronization latencies rising with an increasing number
    of threads" (the paper's explanation for Fig. 8's falloff).
    """
    inter_chip = 0.05 * USEC * contention
    intra_chip = 0.02 * USEC * contention
    return HierarchicalLatency(
        inter_node=LatencySample(base=10 * inter_chip, bandwidth=1e9, jitter=0.0),
        same_node=LatencySample(base=inter_chip, bandwidth=8e9, jitter=0.4 * inter_chip),
        same_chip=LatencySample(base=intra_chip, bandwidth=16e9, jitter=0.4 * intra_chip),
    )


@dataclass(frozen=True)
class OmpTeamConfig:
    """Shape of the parallel-for benchmark.

    Attributes
    ----------
    threads:
        Team size (paper: 4, 8, 12, 16).
    regions:
        Parallel-for region instances executed (loop iterations).
    body_time:
        Nominal per-thread body compute, seconds.
    imbalance:
        Relative std-dev of the per-thread body time.
    timer:
        Timer technology ("tsc" means the Itanium ITC here).
    contention_per_thread:
        Relative growth of every shared-memory transfer per extra
        thread: hop cost scales with ``1 + c * (threads - 1)``.
    """

    threads: int = 4
    regions: int = 200
    body_time: float = 5.0e-5
    imbalance: float = 0.05
    timer: str = "tsc"
    contention_per_thread: float = 0.6

    def __post_init__(self) -> None:
        if self.threads < 2:
            raise ConfigurationError("a team needs at least 2 threads")
        if self.regions <= 0 or self.body_time <= 0:
            raise ConfigurationError("regions and body_time must be positive")


def _spread_placement(machine, threads: int) -> list[Location]:
    """OS-default thread placement: round-robin across chips.

    The paper *"did not support the pinning of individual OpenMP threads
    to specific cores"*; schedulers of the era spread runnable threads
    over idle chips first, which maximizes inter-chip clock exposure.
    """
    if threads > machine.cores_per_node:
        raise ConfigurationError(
            f"{threads} threads exceed the node's {machine.cores_per_node} cores"
        )
    locs = []
    per_chip = [0] * machine.chips_per_node
    for t in range(threads):
        chip = t % machine.chips_per_node
        core = per_chip[chip]
        per_chip[chip] += 1
        locs.append(Location(0, chip, core))
    return locs


def run_parallel_for_benchmark(
    config: OmpTeamConfig,
    seed: int = 0,
    measure_offsets: bool = False,
) -> Trace:
    """Run the benchmark on an Itanium SMP node; returns the POMP trace
    (thread id = trace rank).

    With ``measure_offsets=True``, the master thread additionally runs a
    Cristian exchange (through shared memory, best of 10 round trips)
    with every worker before and after the region loop; the measurements
    land in
    ``trace.meta["init_offsets"]`` / ``["final_offsets"]`` as
    ``{thread: (thread_time, offset)}`` — the inputs the paper's open
    question ("whether offset alignment or interpolation can alleviate
    the errors remains to be evaluated") needs, and what
    ``correct_trace(trace, interpolation="align")`` (or ``"linear"``)
    reads, per thread instead of per rank.
    """
    preset = itanium_node()
    jitter = OsJitterModel(rate=20.0, mean_delay=2e-6)
    fabric = RngFabric(seed)
    n = config.threads
    placement = _spread_placement(preset.machine, n)

    spec = timer_spec(config.timer, preset.kind)
    duration_hint = config.regions * (config.body_time + 20e-6) * 4 + 1.0
    ensemble = ClockEnsemble(preset.machine, spec, fabric, duration_hint)

    engine = Engine(
        Transport(
            shm_latency(contention=1.0 + config.contention_per_thread * (n - 1)),
            fabric.generator("shm"),
            send_overhead=1.0e-8,
            recv_overhead=1.0e-8,
        )
    )
    buffers = {tid: TraceBuffer(record_cost=2.0e-8) for tid in range(n)}

    measurements: dict[str, dict[int, OffsetMeasurement]] = {"init": {}, "final": {}}
    for tid in range(n):
        engine.add_process(
            tid,
            _thread(
                tid, n, config, buffers[tid], jitter, fabric.generator("omp", tid),
                measurements if measure_offsets else None,
            ),
            placement[tid],
            ensemble.clock_for(placement[tid]),
        )
    engine.run()

    meta = {
        "machine": preset.machine.name,
        "timer": spec.name,
        "threads": n,
        "regions": config.regions,
        "locations": [(loc.node, loc.chip, loc.core) for loc in placement],
        "model": "pomp",
    }
    if measure_offsets:
        meta.update(measurements_to_meta(measurements["init"], measurements["final"]))
    return Trace({tid: b.log for tid, b in buffers.items()}, meta=meta)


# ----------------------------------------------------------------------
# Thread body
# ----------------------------------------------------------------------
def _children(tid: int, n: int) -> list[int]:
    """Binary signal tree rooted at thread 0."""
    kids = []
    for c in (2 * tid + 1, 2 * tid + 2):
        if c < n:
            kids.append(c)
    return kids


def _parent(tid: int) -> int:
    return (tid - 1) // 2


def _record(buffer: TraceBuffer, etype: EventType, inst: int, team: int):
    """Read the clock and append one POMP event to ``buffer`` (generator)."""
    ts = yield ReadClock()
    cost = buffer.append(ts, etype, REGION_ID, team, 0, inst)
    if cost > 0:
        yield Compute(cost)


def _measure_offsets(tid: int, n: int, store: dict):
    """Cristian exchange between master thread and each worker (raw).

    Same estimator as the MPI-side protocol, but through shared memory:
    the best-of-10 round trip bounds the offset error by half the
    (sub-microsecond) cache-transfer asymmetry.
    """
    repeats = 10
    if tid == 0:
        for worker in range(1, n):
            best = None
            for _ in range(repeats):
                t1 = yield ReadClock()
                yield Send(worker, tag=SYNC_TAG)
                msg = yield Recv(src=worker, tag=SYNC_TAG)
                t2 = yield ReadClock()
                if best is None or t2 - t1 < best.rtt:
                    best = OffsetMeasurement(
                        worker, msg.payload, cristian_offset(t1, msg.payload, t2), t2 - t1, repeats
                    )
            store[worker] = best
    else:
        for _ in range(repeats):
            yield Recv(src=0, tag=SYNC_TAG)
            t0 = yield ReadClock()
            yield Send(0, tag=SYNC_TAG, payload=t0)


def _thread(
    tid: int,
    n: int,
    config: OmpTeamConfig,
    buffer: TraceBuffer,
    jitter,
    rng,
    measurements: dict | None = None,
):
    if measurements is not None:
        yield from _measure_offsets(tid, n, measurements["init"])
    for inst in range(config.regions):
        # ---- fork -----------------------------------------------------
        if tid == 0:
            yield from _record(buffer, EventType.OMP_FORK, inst, n)
            for child in _children(0, n):
                yield Send(child, tag=WAKE_TAG)
        else:
            yield Recv(src=_parent(tid), tag=WAKE_TAG)
            for child in _children(tid, n):
                yield Send(child, tag=WAKE_TAG)
            # Worker wakeup cost: the thread was idling and must be
            # rescheduled before it reaches the region body.  This makes
            # the fork -> enter margin systematically wider than the
            # exit -> join margin, biasing violations toward the region
            # exit — the asymmetry the paper observed most frequently.
            yield Compute(float(rng.exponential(8.0e-8)))
        yield from _record(buffer, EventType.OMP_PAR_ENTER, inst, n)

        # ---- body -----------------------------------------------------
        body = config.body_time * float(rng.normal(1.0, config.imbalance))
        body = jitter.perturb(max(body, 0.0), rng)
        if body > 0:
            yield Compute(body)

        # ---- implicit barrier (gather to 0, release broadcast) --------
        yield from _record(buffer, EventType.OMP_BARRIER_ENTER, inst, n)
        for child in _children(tid, n):
            yield Recv(src=child, tag=BARRIER_TAG)
        if tid != 0:
            yield Send(_parent(tid), tag=BARRIER_TAG)
            yield Recv(src=_parent(tid), tag=WAKE_TAG + 10)
        for child in _children(tid, n):
            yield Send(child, tag=WAKE_TAG + 10)
        yield from _record(buffer, EventType.OMP_BARRIER_EXIT, inst, n)

        # ---- region exit / join ---------------------------------------
        # Completion gathers up the tree: a thread reports only after all
        # of its children reported, so the master's JOIN truly follows
        # every thread's PAR_EXIT — any recorded inversion is the clocks'.
        yield from _record(buffer, EventType.OMP_PAR_EXIT, inst, n)
        for child in _children(tid, n):
            yield Recv(src=child, tag=DONE_TAG)
        if tid != 0:
            yield Send(_parent(tid), tag=DONE_TAG)
        else:
            yield from _record(buffer, EventType.OMP_JOIN, inst, n)
    if measurements is not None:
        yield from _measure_offsets(tid, n, measurements["final"])
