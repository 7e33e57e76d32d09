"""Happened-before dependencies and replay order over a trace.

Logical-clock algorithms (Lamport, vector, CLC) process events in an
order consistent with the happened-before relation: a rank's events in
log order, and every receive after its matching send.  This module
builds that relation — sparse, since only receives and collective exits
have remote predecessors — as one edge table:

* ``RECV`` event -> its matching ``SEND`` event (the columns of
  :meth:`Trace.messages <repro.tracing.trace.Trace.messages>`);
* a collective instance's exit -> the enter of every member whose
  flavor constrains it (:func:`repro.sync.collectives_map.collective_pairs`,
  which owns that rule): ``COLL_EXIT`` -> ``COLL_ENTER`` for MPI, and the
  fork, join and barrier of every POMP region
  (:func:`repro.tracing.trace.collective_rows`).

:func:`dependency_edges` is the builder of this **pair expansion**, and
:func:`build_dependencies` its dict view, iterated by the scalar oracles
(:func:`replay_schedule`, the ``*_reference`` clocks and correctors) and
compiled as edges by :meth:`CompiledSchedule.from_dependencies
<repro.sync.schedule.CompiledSchedule.from_dependencies>`, the dense
spelling the block kernels are checked against.  An N-to-N
instance of ``n`` members is ``n·(n-1)`` edges here.  The compiled
kernels and the streaming CLC do not read it: they take the same
relation from :func:`repro.sync.collectives_map.collective_constraints`,
with every instance as blocks of its ``n`` members, so this
spelling stays an independent second one for the oracles.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.collectives_map import collective_pairs
from repro.tracing.trace import Trace

__all__ = ["EventRef", "dependency_edges", "build_dependencies", "replay_schedule"]

EventRef = tuple[int, int]  # (rank, index into that rank's log)


def dependency_edges(
    trace: Trace, include_collectives: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The remote happened-before relation as ``(dst_rank, dst_idx, src_rank, src_idx)``.

    One entry per edge: matched messages in message-table order, then
    the collective pairs instance by instance (receiver ascending, then
    sender ascending).  Every dependent's edges are contiguous.
    """
    messages = trace.messages(strict=False)
    edges = [(messages.dst, messages.recv_idx, messages.src, messages.send_idx)]
    if include_collectives:
        table = trace.collectives()
        receivers, senders = collective_pairs(table)
        edges.append((
            table.ranks[receivers], table.exit_idx[receivers],
            table.ranks[senders], table.enter_idx[senders],
        ))
    return tuple(np.concatenate(column) for column in zip(*edges))


def build_dependencies(
    trace: Trace, include_collectives: bool = True
) -> dict[EventRef, list[EventRef]]:
    """:func:`dependency_edges` as a sparse map from an event to its remote predecessors."""
    deps: dict[EventRef, list[EventRef]] = {}
    dst_rank, dst_idx, src_rank, src_idx = (
        column.tolist() for column in dependency_edges(trace, include_collectives)
    )
    for ref, source in zip(zip(dst_rank, dst_idx), zip(src_rank, src_idx)):
        deps.setdefault(ref, []).append(source)
    return deps


def replay_schedule(
    trace: Trace, deps: dict[EventRef, list[EventRef]] | None = None
) -> Iterator[EventRef]:
    """Yield every event of the trace in a happened-before-consistent order.

    Kahn's algorithm over the sparse dependency map plus implicit local
    program-order edges.  Raises :class:`SynchronizationError` if the
    graph has a cycle (possible only with a corrupt trace).
    """
    if deps is None:
        deps = build_dependencies(trace)

    lengths = {rank: len(trace.logs[rank]) for rank in trace.ranks}
    # Remaining unmet remote deps per event.
    pending: dict[EventRef, int] = {}
    # Reverse edges: once an event is emitted, which events it unblocks.
    unblocks: dict[EventRef, list[EventRef]] = {}
    for ref, sources in deps.items():
        pending[ref] = len(sources)
        for src in sources:
            unblocks.setdefault(src, []).append(ref)

    emitted: dict[EventRef, bool] = {}
    cursor = {rank: 0 for rank in trace.ranks}  # next local index to try
    ready: deque[int] = deque(rank for rank in trace.ranks if lengths[rank] > 0)
    in_ready = {rank: True for rank in ready}
    total = sum(lengths.values())
    count = 0

    def local_ready(rank: int) -> bool:
        idx = cursor[rank]
        if idx >= lengths[rank]:
            return False
        return pending.get((rank, idx), 0) == 0

    while ready:
        rank = ready.popleft()
        in_ready[rank] = False
        # Drain this rank as far as possible.
        while local_ready(rank):
            idx = cursor[rank]
            cursor[rank] = idx + 1
            ref = (rank, idx)
            emitted[ref] = True
            count += 1
            yield ref
            for dependent in unblocks.get(ref, ()):
                pending[dependent] -= 1
                if pending[dependent] == 0:
                    dep_rank = dependent[0]
                    # Only wake the rank if this is its next event.
                    if cursor[dep_rank] == dependent[1] and not in_ready.get(dep_rank):
                        ready.append(dep_rank)
                        in_ready[dep_rank] = True
        # If the rank stalled on a remote dep, it will be re-queued when
        # that dep is emitted (handled above).

    if count != total:
        raise SynchronizationError(
            f"replay schedule incomplete ({count}/{total} events); "
            "the trace's happened-before graph has a cycle or dangling dependency"
        )
