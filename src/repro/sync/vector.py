"""Fidge/Mattern vector clocks and the happened-before relation.

Section V: *"each processor maintains a vector representing all
processor-local clocks.  While the local clock is advanced after each
local event as before, the vector is updated after receiving a message
using an element-wise maximum operation between the local vector and
the remote vector that has been sent along with the message."*

Vector clocks characterize happened-before *exactly*:
``e -> f  iff  V(e) < V(f)`` (componentwise <=, somewhere <), which the
test suite verifies against graph reachability on
:func:`happened_before_graph`.

The default path runs the array kernel of :mod:`repro.sync.schedule`
(broadcast fills over dependency-free stretches);
:func:`vector_clocks_reference` keeps the event-by-event scalar loop as
the equivalence-test oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sync.order import build_dependencies, replay_schedule
from repro.sync.schedule import vector_kernel
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # imported in happened_before_graph only (start-up cost)
    import networkx as nx

__all__ = [
    "vector_clocks",
    "vector_clocks_reference",
    "happened_before_graph",
    "vector_leq",
    "concurrent",
]


def vector_clocks(trace: Trace, include_collectives: bool = True) -> dict[int, np.ndarray]:
    """Per-rank ``(n_events, nranks)`` matrices of vector times.

    Rank ids are mapped to vector components in sorted order
    (``trace.ranks``), so traces with non-contiguous ranks work.
    """
    return vector_kernel(trace.compiled_schedule(include_collectives))


def vector_clocks_reference(
    trace: Trace, include_collectives: bool = True
) -> dict[int, np.ndarray]:
    """Scalar formulation of :func:`vector_clocks` (oracle)."""
    ranks = trace.ranks
    comp = {rank: i for i, rank in enumerate(ranks)}
    n = len(ranks)
    deps = build_dependencies(trace, include_collectives=include_collectives)
    vectors = {
        rank: np.zeros((len(trace.logs[rank]), n), dtype=np.int64) for rank in ranks
    }
    for rank, idx in replay_schedule(trace, deps):
        vec = vectors[rank]
        current = vec[idx - 1].copy() if idx > 0 else np.zeros(n, dtype=np.int64)
        for dep_rank, dep_idx in deps.get((rank, idx), ()):
            np.maximum(current, vectors[dep_rank][dep_idx], out=current)
        current[comp[rank]] += 1
        vec[idx] = current
    return vectors


def vector_leq(a: np.ndarray, b: np.ndarray) -> bool:
    """``a <= b`` componentwise (the vector-clock partial order)."""
    return bool(np.all(a <= b))


def concurrent(a: np.ndarray, b: np.ndarray) -> bool:
    """Neither event happened before the other."""
    return not vector_leq(a, b) and not vector_leq(b, a)


def happened_before_graph(trace: Trace, include_collectives: bool = True) -> "nx.DiGraph":
    """The happened-before DAG over ``(rank, index)`` event nodes.

    Edges: local program order plus the remote dependencies of
    :func:`repro.sync.order.build_dependencies`.  Mainly used to
    validate logical-clock implementations and for small-trace
    visualization; it materializes every event as a node, so keep it
    away from million-event traces.
    """
    import networkx as nx

    g = nx.DiGraph()
    for rank in trace.ranks:
        length = len(trace.logs[rank])
        for idx in range(length):
            g.add_node((rank, idx))
            if idx > 0:
                g.add_edge((rank, idx - 1), (rank, idx))
    for ref, sources in build_dependencies(trace, include_collectives).items():
        for src in sources:
            g.add_edge(src, ref)
    return g
