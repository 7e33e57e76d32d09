"""Lamport's discrete logical clock over a trace.

Section V: *"Lamport has introduced a discrete logical clock with each
clock being represented by a monotonically increasing software counter.
As local clocks are incremented after every local event and the updated
values are exchanged at synchronization points, happened-before
relations can be exploited to further validate and synchronize
distributed clocks."*

:func:`lamport_clocks` assigns every event its Lamport time:
``LC(e) = LC(previous local event) + 1``, and for a receive additionally
``LC(e) >= LC(matching send) + 1`` (collective exits are treated as
receives of their logical messages).  The result totally respects the
happened-before partial order and is the discrete ancestor of the
*controlled* logical clock in :mod:`repro.sync.clc`.

The default path runs the array kernel of
:mod:`repro.sync.schedule` (exact int64 closed form per rank);
:func:`lamport_clocks_reference` keeps the event-by-event scalar loop as
the equivalence-test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.sync.order import build_dependencies, replay_schedule
from repro.sync.schedule import lamport_kernel
from repro.tracing.trace import Trace

__all__ = ["lamport_clocks", "lamport_clocks_reference"]


def lamport_clocks(trace: Trace) -> dict[int, np.ndarray]:
    """Per-rank arrays of Lamport times, aligned with each event log."""
    return lamport_kernel(trace.compiled_schedule())


def lamport_clocks_reference(trace: Trace) -> dict[int, np.ndarray]:
    """Scalar formulation of :func:`lamport_clocks` (oracle)."""
    deps = build_dependencies(trace)
    clocks = {rank: np.zeros(len(trace.logs[rank]), dtype=np.int64) for rank in trace.ranks}
    for rank, idx in replay_schedule(trace, deps):
        value = clocks[rank][idx - 1] + 1 if idx > 0 else 1
        for dep_rank, dep_idx in deps.get((rank, idx), ()):
            dep_value = clocks[dep_rank][dep_idx] + 1
            if dep_value > value:
                value = dep_value
        clocks[rank][idx] = value
    return clocks
