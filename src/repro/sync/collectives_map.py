"""Mapping collective operations onto logical point-to-point messages.

Paper Section V (and [30]): *"The basic idea behind this extension is to
map collective onto point-to-point communications by considering a
single collective operation as being composed of multiple point-to-point
operations, taking the semantics of the different flavors of MPI
collective operations into account (e.g. 1-to-N, N-to-1, etc.)."*

A collective instance with per-rank enter/exit timestamps yields logical
messages whose send side is a member's ``COLL_ENTER`` and whose receive
side is a member's ``COLL_EXIT``:

* **1-to-N** (bcast, scatter): root's enter -> every non-root exit;
* **N-to-1** (reduce, gather): every non-root enter -> root's exit;
* **N-to-N** (barrier, allreduce, allgather, alltoall): every member's
  exit depends on every *other* member's enter.  Because
  ``exit_i >= enter_j + l_min`` for all ``j != i`` is equivalent to
  ``exit_i >= max_{j != i}(enter_j) + l_min``, we emit exactly one
  logical message per member — from the latest-entering *other* member —
  which is both the binding constraint for correction and the exact
  violation test.

The resulting table mirrors :class:`repro.tracing.trace.MessageTable`
with the event-log indices pointing at the collective enter/exit events,
so violation scans and the CLC treat logical and real messages uniformly.

This module is the only place that knows the flavor rule.
:func:`member_pairs` states it for one instance shape and
:func:`collective_pairs` applies it to a whole
:class:`~repro.tracing.trace.CollectiveTable`; the happened-before edge
table (:func:`repro.sync.order.dependency_edges`, hence the compiled
kernels and the scalar oracles) and the streaming CLC read those pairs.
So does :func:`logical_messages` below for the rooted flavors; where a
receiver has one binding sender (prefix, N-to-N) it finds it with a
reduction over the instance's ``n`` members instead of its ``n**2`` pairs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import TraceError
from repro.tracing.events import COLLECTIVE_FLAVORS, CollectiveFlavor, CollectiveOp
from repro.tracing.trace import CollectiveTable, MessageTable

__all__ = ["member_pairs", "collective_pairs", "logical_messages"]


_NO_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


@lru_cache(maxsize=256)
def member_pairs(flavor: CollectiveFlavor, n: int, root_pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Who constrains whom in one ``n``-member instance — the flavor semantics.

    Returns ``(receivers, senders)``: member positions (indices into the
    instance's rank-ascending members) such that ``receivers[k]``'s exit
    must not precede ``senders[k]``'s enter, ordered by receiver and
    then by sender.  ``root_pos`` is ignored by the unrooted flavors.
    """
    if n < 2:
        return _NO_PAIRS
    members = np.arange(n)
    if flavor is CollectiveFlavor.PREFIX:
        return np.tril_indices(n, -1)  # lower ranks only (MPI_Scan)
    if flavor is CollectiveFlavor.N_TO_N:
        senders = np.delete(np.tile(members, n), slice(None, None, n + 1))  # all but oneself
        return np.repeat(members, n - 1), senders
    root, others = np.full(n - 1, root_pos), np.delete(members, root_pos)
    return (others, root) if flavor is CollectiveFlavor.ONE_TO_N else (root, others)


def collective_pairs(
    collectives: CollectiveTable, skip: tuple[CollectiveFlavor, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`member_pairs` of every instance, as indices into the member columns.

    Returns ``(receivers, senders)`` with one entry per pair, instance by
    instance in table order (none for the ``skip`` flavors);
    single-member instances constrain nothing.  A rooted collective
    (every flavor but N-to-N) whose root is not among its members raises
    :class:`TraceError`.
    """
    table = collectives
    sizes = np.diff(table.starts)
    of_member = np.repeat(np.arange(len(table)), sizes)
    at_root = np.flatnonzero(table.ranks == table.root[of_member])
    rooted = of_member[at_root]
    root_pos = np.full(len(table), -1, dtype=np.int64)
    root_pos[rooted] = at_root - table.starts[rooted]
    parts = [_NO_PAIRS]
    for k, (op, n, pos, start) in enumerate(
        zip(table.op.tolist(), sizes.tolist(), root_pos.tolist(), table.starts.tolist())
    ):
        op = CollectiveOp(op)
        flavor = COLLECTIVE_FLAVORS[op]
        if pos < 0 and n > 1 and flavor is not CollectiveFlavor.N_TO_N:
            raise TraceError(
                f"collective instance {table.instance[k]} ({op.name}): "
                f"root {table.root[k]} is not among its members"
            )
        if flavor not in skip:
            receivers, senders = member_pairs(flavor, n, pos)
            parts.append((receivers + start, senders + start))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _binding_senders(
    table: CollectiveTable, instances: np.ndarray, lower_only: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(receivers, senders)``: each receiver of ``instances`` with its latest-entering sender.

    The candidates are the instance's other members, the highest
    position among equally late ones (N-to-N); with ``lower_only`` the
    lower members, the lowest position among equally late ones (prefix).
    """
    sizes = np.diff(table.starts)[instances]
    starts = np.cumsum(sizes) - sizes
    of_member = np.repeat(np.arange(instances.size), sizes)
    members = np.arange(of_member.size) + (table.starts[instances] - starts)[of_member]
    # Enter times as dense integer ranks, so one integer key can order
    # by (instance, enter) or by (enter, position).
    _, entered = np.unique(table.enter_ts[members], return_inverse=True)
    if lower_only:
        key = of_member * members.size + entered
        leads = np.ones(members.size, dtype=bool)  # enters later than every lower member
        leads[1:] = key[1:] > np.maximum.accumulate(key)[:-1]
        latest = np.maximum.accumulate(np.where(leads, members, -1))
        receives = np.flatnonzero(np.arange(members.size) != starts[of_member])
        return members[receives], latest[receives - 1]
    key = entered * table.ranks.size + members
    first = np.maximum.reduceat(key, starts)[of_member]
    second = np.maximum.reduceat(np.where(key == first, -1, key), starts)[of_member]
    return members, np.where(key == first, second, first) % table.ranks.size


def logical_messages(collectives: CollectiveTable) -> MessageTable:
    """Expand every collective instance into logical messages.

    1-to-N and N-to-1: one message per pair of :func:`collective_pairs`.
    Prefix and N-to-N: one per receiver, from its latest-entering
    sender; among equally late senders the lowest member position wins
    for prefix (a higher one binds only by entering strictly later) and
    the highest for N-to-N, whose runner-up — the sender of the latest
    member itself — is chosen likewise.  These are ``max`` reductions
    over the members, so the choice does not depend on how a sort
    orders equal keys.  Messages come instance by instance, receiver
    ascending.
    """
    table = collectives
    reduced = (CollectiveFlavor.PREFIX, CollectiveFlavor.N_TO_N)
    dst, src = collective_pairs(table, skip=reduced)
    flavors = [COLLECTIVE_FLAVORS[CollectiveOp(op)] for op in table.op.tolist()]
    several = np.diff(table.starts) > 1
    for flavor in reduced:
        of_flavor = np.array([f is flavor for f in flavors], dtype=bool)
        receivers, senders = _binding_senders(
            table, np.flatnonzero(of_flavor & several), flavor is CollectiveFlavor.PREFIX
        )
        dst, src = np.append(dst, receivers), np.append(src, senders)
    order = np.argsort(dst, kind="stable")  # members are numbered instance by instance
    dst, src = dst[order], src[order]
    zeros = np.zeros(src.size, dtype=np.int64)
    return MessageTable(
        table.ranks[src],
        table.ranks[dst],
        zeros,  # tag
        zeros,  # nbytes
        table.enter_ts[src],
        table.exit_ts[dst],
        table.enter_idx[src],
        table.exit_idx[dst],
    )
