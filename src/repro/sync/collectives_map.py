"""Mapping collective operations onto logical point-to-point messages.

Paper Section V (and [30]): *"The basic idea behind this extension is to
map collective onto point-to-point communications by considering a
single collective operation as being composed of multiple point-to-point
operations, taking the semantics of the different flavors of MPI
collective operations into account (e.g. 1-to-N, N-to-1, etc.)."*

A collective instance with per-rank enter/exit timestamps yields logical
messages whose send side is a member's ``COLL_ENTER`` and whose receive
side is a member's ``COLL_EXIT``:

* **1-to-N** (bcast, scatter, OpenMP fork): root's enter -> every
  non-root exit;
* **N-to-1** (reduce, gather, OpenMP join): every non-root enter ->
  root's exit;
* **N-to-N** (barrier, allreduce, allgather, alltoall, OpenMP implicit
  barrier): every member's exit depends on every *other* member's
  enter.  Because ``exit_i >= enter_j + l_min`` for all ``j != i`` is
  equivalent to ``exit_i >= max_{j != i}(enter_j) + l_min``, we emit
  exactly one logical message per member — from the latest-entering
  *other* member — which is both the binding constraint for correction
  and the exact violation test.

An OpenMP parallel region is three instances of the table
(:func:`repro.tracing.trace.collective_rows`): the fork, rooted at the
master — the root enters at its ``OMP_FORK``, every member exits at its
``OMP_PAR_ENTER``, where a worker also enters; the join, its mirror
image over ``OMP_PAR_EXIT`` and the master's ``OMP_JOIN``; and the
implicit barrier.  No member exits before it enters, so each is one block.

The resulting table mirrors :class:`repro.tracing.trace.MessageTable`
with the event-log indices pointing at the collective enter/exit events,
so violation scans and the CLC treat logical and real messages uniformly.

This module is the only place that knows the flavor rule.
:func:`member_pairs` states it for one instance shape and
:func:`collective_pairs` applies it to a whole
:class:`~repro.tracing.trace.CollectiveTable` — the dense expansion the
scalar oracles iterate (:func:`repro.sync.order.dependency_edges`,
hence ``build_dependencies`` and every ``*_reference``).  The compiled
kernels and the streaming CLC read :func:`collective_constraints`
instead: every instance of two or more members as one **block** — its
members, nothing per pair — whose slot ``s``'s exit depends on the
enters of slots ``[lo[s], need[s])``: the whole block for N-to-N (the
own enter precedes the exit in its log, so it changes no order and no
max), the lower members for prefix; a 1-to-N or N-to-1 block puts the
root's slot first, and every other exit reads ``[root, root + 1)``
(1-to-N) or the root's exit the whole block (N-to-1).  A floor
``max_{j != i}(LC'(enter_j) + l_min(j, i))`` is one reduction over the
members (:func:`repro.sync.schedule.block_floors`) instead of ``n - 1``
edges, with the dense loop's tie rule: the first sender, in member
order, among equal floors binds, and a NaN floor never does.  An
instance where a member would wait on its own enter — it exits before
it enters, in an N-to-N instance or as an N-to-1 root — becomes one
block per receiver: its senders in member order, then itself.
:func:`logical_messages` below reduces the same way for prefix and
N-to-N receivers, finding each one's binding sender over the instance's
``n`` members instead of its ``n**2`` pairs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import TraceError
from repro.tracing.events import COLLECTIVE_FLAVORS, CollectiveFlavor, CollectiveOp
from repro.tracing.trace import CollectiveTable, MessageTable

__all__ = [
    "member_pairs",
    "collective_pairs",
    "CollectiveBlocks",
    "collective_constraints",
    "logical_messages",
]


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


def _flavors(collectives: CollectiveTable) -> list[CollectiveFlavor]:
    ops = collectives.op.tolist()
    flavor = {op: COLLECTIVE_FLAVORS[CollectiveOp(op)] for op in set(ops)}
    return [flavor[op] for op in ops]


def _instances(
    collectives: CollectiveTable,
) -> tuple[list[CollectiveFlavor], np.ndarray, np.ndarray]:
    """Per instance: ``(flavor, size, root position)``, the position ``-1``
    where the root is not a member.  A rooted collective (every flavor but
    N-to-N) of two or more members whose root is not among them raises
    :class:`TraceError`."""
    table = collectives
    flavors = _flavors(table)
    sizes = np.diff(table.starts)
    of_member = np.repeat(np.arange(len(table)), sizes)
    at_root = np.flatnonzero(table.ranks == table.root[of_member])
    rooted = of_member[at_root]
    root_pos = np.full(len(table), -1, dtype=np.int64)
    root_pos[rooted] = at_root - table.starts[rooted]
    n_to_n = np.array([f is CollectiveFlavor.N_TO_N for f in flavors], dtype=bool)
    bad = np.flatnonzero((root_pos < 0) & (sizes > 1) & ~n_to_n)
    if bad.size:
        k = int(bad[0])
        raise TraceError(
            f"collective instance {table.instance[k]} ({CollectiveOp(table.op[k]).name}): "
            f"root {table.root[k]} is not among its members"
        )
    return flavors, sizes, root_pos


def collective_pairs(
    collectives: CollectiveTable, keep: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`member_pairs` of every instance, as indices into the member columns.

    Returns ``(receivers, senders)`` with one entry per pair, instance by
    instance in table order (only the instances ``keep`` marks, when
    given); single-member instances constrain nothing.  A rooted
    collective whose root is not among its members raises
    :class:`TraceError`, kept or not.
    """
    table = collectives
    flavors, sizes, root_pos = _instances(table)
    keep = np.ones(len(table), dtype=bool) if keep is None else keep
    parts = [_NO_PAIRS]
    columns = (sizes.tolist(), root_pos.tolist(), table.starts.tolist(), keep.tolist())
    for flavor, n, pos, start, kept in zip(flavors, *columns):
        if kept:
            receivers, senders = member_pairs(flavor, n, pos)
            parts.append((receivers + start, senders + start))
    return tuple(np.concatenate(column) for column in zip(*parts))


class CollectiveBlocks(NamedTuple):
    """Every instance of two or more members, as blocks of member slots.

    Block ``b`` owns slots ``indptr[b]:indptr[b + 1]``; slot ``s`` is the
    member ``members[s]`` (an index into the table's member columns)
    whose exit depends on the enters of slots ``[lo[s], need[s])``, which
    starts at the block's first slot and is empty where it waits for nobody.
    """

    members: np.ndarray
    indptr: np.ndarray
    lo: np.ndarray
    need: np.ndarray


@lru_cache(maxsize=256)
def _layout(
    flavor: CollectiveFlavor, n: int, root_pos: int, per_receiver: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``n``-member instance as blocks: ``(order, need, sizes)`` — member
    positions slot by slot, each slot's range end counted from its block's
    first slot, and the blocks' sizes (the rule: see the module docstring)."""
    members = slot = np.arange(n)
    if per_receiver:  # its senders in member order, then itself
        receivers = members if flavor is CollectiveFlavor.N_TO_N else [root_pos]
        order = np.concatenate([np.append(np.delete(members, r), r) for r in receivers])
        need = np.tile(np.append(np.zeros(n - 1, dtype=np.int64), n - 1), len(receivers))
        return order, need, np.full(len(receivers), n)
    if flavor in (CollectiveFlavor.ONE_TO_N, CollectiveFlavor.N_TO_ONE):
        members = np.append(root_pos, np.delete(members, root_pos))  # the root first
    need = {
        CollectiveFlavor.N_TO_N: np.full(n, n),
        CollectiveFlavor.PREFIX: slot,
        CollectiveFlavor.ONE_TO_N: np.minimum(slot, 1),  # every other exit reads the root
        CollectiveFlavor.N_TO_ONE: np.where(slot == 0, n, 0),  # the root's exit reads all
    }[flavor]
    return members, need, np.array([n])


def collective_constraints(collectives: CollectiveTable) -> CollectiveBlocks:
    """The flavor rule as the kernels read it: every instance of two or more
    members as blocks, in table order (see the module docstring)."""
    table = collectives
    flavors, sizes, root_pos = _instances(table)
    backwards = table.exit_idx < table.enter_idx  # members that exit before they enter
    any_back = np.logical_or.reduceat(backwards, table.starts[:-1])
    layouts, firsts = [(np.empty(0, dtype=np.int64),) * 3], [0]
    columns = (sizes.tolist(), root_pos.tolist(), table.starts.tolist(), any_back.tolist())
    for flavor, n, pos, start, back in zip(flavors, *columns):
        if n > 1:
            layout = order, need, _ = _layout(flavor, n, pos, False)
            if back and backwards[start + order[np.arange(n) < need]].any():  # waits on itself
                layout = _layout(flavor, n, pos, True)
            layouts.append(layout)
            firsts.append(start)
    order, need, block_sizes = (np.concatenate(column) for column in zip(*layouts))
    members = order + np.repeat(firsts, [layout[0].size for layout in layouts])
    indptr = np.zeros(block_sizes.size + 1, dtype=np.int64)
    np.cumsum(block_sizes, out=indptr[1:])
    lo = np.repeat(indptr[:-1], block_sizes)
    return CollectiveBlocks(members, indptr, lo, lo + need)


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
    flavors = _flavors(table)
    rooted = np.array([f not in reduced for f in flavors], dtype=bool)
    dst, src = collective_pairs(table, keep=rooted)
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
