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
:class:`~repro.tracing.trace.CollectiveTable` — the dense expansion the
scalar oracles iterate (:func:`repro.sync.order.dependency_edges`,
hence ``build_dependencies`` and every ``*_reference``).  The compiled
kernels and the streaming CLC read :func:`collective_constraints`
instead: the rooted instances as pairs, the N-to-N and prefix ones as
**blocks** — an instance's members, nothing per pair.  A block's exit
``i`` depends on the enters of members ``[0, n)`` (N-to-N; its own
enter precedes it in its log, so counting it changes no order and no
max) or ``[0, i)`` (prefix), and its floor
``max_{j != i}(LC'(enter_j) + l_min(j, i))`` is one reduction over the
members (:func:`repro.sync.schedule.block_floors`) instead of ``n - 1``
edges.  The tie rule is the dense loop's: the first sender, in member
order, among equal floors binds, and a NaN floor never does.  An
instance one of whose members exits before it enters in its own log
stays pairs: as an N-to-N block it would order that member's exit
behind its own enter, and as a prefix block it would leave the last
member's enter, which no exit reads, unpassed when the streaming CLC
drops the block's state.  :func:`logical_messages` below reduces the same
way for prefix and N-to-N receivers, finding each one's binding sender
over the instance's ``n`` members instead of its ``n**2`` pairs.
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


def collective_pairs(
    collectives: CollectiveTable, keep: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`member_pairs` of every instance, as indices into the member columns.

    Returns ``(receivers, senders)`` with one entry per pair, instance by
    instance in table order (only the instances ``keep`` marks, when
    given); single-member instances constrain nothing.  A rooted
    collective (every flavor but N-to-N) whose root is not among its
    members raises :class:`TraceError`, kept or not.
    """
    table = collectives
    sizes = np.diff(table.starts)
    of_member = np.repeat(np.arange(len(table)), sizes)
    at_root = np.flatnonzero(table.ranks == table.root[of_member])
    rooted = of_member[at_root]
    root_pos = np.full(len(table), -1, dtype=np.int64)
    root_pos[rooted] = at_root - table.starts[rooted]
    keep = np.ones(len(table), dtype=bool) if keep is None else keep
    parts = [_NO_PAIRS]
    columns = (sizes.tolist(), root_pos.tolist(), table.starts.tolist(), keep.tolist())
    for k, (flavor, n, pos, start, kept) in enumerate(zip(_flavors(table), *columns)):
        if pos < 0 and n > 1 and flavor is not CollectiveFlavor.N_TO_N:
            raise TraceError(
                f"collective instance {table.instance[k]} ({CollectiveOp(table.op[k]).name}): "
                f"root {table.root[k]} is not among its members"
            )
        if kept:
            receivers, senders = member_pairs(flavor, n, pos)
            parts.append((receivers + start, senders + start))
    return tuple(np.concatenate(column) for column in zip(*parts))


class CollectiveBlocks(NamedTuple):
    """The N-to-N and prefix instances of a table, member by member.

    Block ``b``'s members are ``members[indptr[b]:indptr[b + 1]]``
    (indices into the table's member columns, rank ascending) and
    ``prefix[b]`` says whether each exit depends on the lower members'
    enters only (MPI_Scan) or on every other member's (N-to-N).
    """

    members: np.ndarray
    indptr: np.ndarray
    prefix: np.ndarray

    def sources(self) -> tuple[np.ndarray, np.ndarray]:
        """Per member slot ``s``: ``(lo, need)``, its exit depending on the
        enters of slots ``[lo, need)`` — the whole block for N-to-N (its own
        enter, which precedes it, included), the lower members for prefix."""
        sizes = np.diff(self.indptr)
        lo = np.repeat(self.indptr[:-1], sizes)
        whole = np.repeat(self.indptr[1:], sizes)
        return lo, np.where(np.repeat(self.prefix, sizes), np.arange(lo.size), whole)


def collective_constraints(
    collectives: CollectiveTable,
) -> tuple[tuple[np.ndarray, np.ndarray], CollectiveBlocks]:
    """The flavor rule as the kernels read it: ``((receivers, senders), blocks)``.

    1-to-N and N-to-1 instances come as the pairs of
    :func:`collective_pairs`; N-to-N and prefix instances of two or more
    members as :class:`CollectiveBlocks` — except an instance one of
    whose members exits before it enters, which stays pairs (see the
    module docstring).
    """
    table = collectives
    flavors = _flavors(table)
    sizes = np.diff(table.starts)
    prefix = np.array([f is CollectiveFlavor.PREFIX for f in flavors], dtype=bool)
    n_to_n = np.array([f is CollectiveFlavor.N_TO_N for f in flavors], dtype=bool)
    of_member = np.repeat(np.arange(len(table)), sizes)
    backwards = np.zeros(len(table), dtype=bool)
    backwards[of_member[table.exit_idx < table.enter_idx]] = True
    is_block = (sizes > 1) & (prefix | n_to_n) & ~backwards
    pairs = collective_pairs(table, keep=~is_block)
    members = np.flatnonzero(is_block[of_member])
    indptr = np.zeros(np.count_nonzero(is_block) + 1, dtype=np.int64)
    np.cumsum(sizes[is_block], out=indptr[1:])
    return pairs, CollectiveBlocks(members, indptr, prefix[is_block])


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
