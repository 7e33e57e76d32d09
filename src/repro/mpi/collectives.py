"""Collective-communication algorithms built from point-to-point transfers.

Each algorithm is a generator subroutine operating on an
:class:`~repro.mpi.comm.MpiContext` through its *raw* (untraced) send
and receive — a real trace records a collective as one enter/exit pair
per rank, not as its internal tree messages, and the paper's analysis
then maps the collective back onto *logical* point-to-point messages
(Section V).  The algorithms are the textbook ones MPI libraries use,
so the simulated collective latencies have realistic structure: a
4-rank inter-node allreduce costs two recursive-doubling rounds of
~4.3 us plus overheads, landing near Table II's 12.86 us.

All internal messages use the reserved tag space above
:data:`repro.mpi.comm.COLL_TAG_BASE` so they can never match
application traffic.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import ConfigurationError

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "scan",
    "reduce_scatter",
    "STAGE_COST",
]

#: CPU time per communication stage inside a collective: tag matching,
#: buffer management, and (for reductions) the combine operation in the
#: MPI stack.  On 2008-era hardware this protocol overhead is why a
#: 4-rank allreduce costs ~3x a bare message (Table II: 12.86 us vs
#: 4.29 us) rather than the 2x its two recursive-doubling rounds of wire
#: time alone would suggest.
STAGE_COST: float = 1.0e-6


def _tag(instance: int) -> int:
    """Internal tag for one collective instance.

    Lives in the negative tag space (<= -2; -1 is the ANY_TAG wildcard)
    so it can never collide with application traffic on any
    communicator, including the namespaced tags of sub-communicators.
    """
    return -(instance + 2)


def _stage(ctx) -> Generator:
    """Charge one stage's protocol-processing cost."""
    yield from ctx.sleep(STAGE_COST)


def barrier(ctx, instance: int) -> Generator:
    """Dissemination barrier: ceil(log2(n)) rounds of shifted exchanges."""
    n = ctx.size
    tag = _tag(instance)
    dist = 1
    while dist < n:
        dst = (ctx.rank + dist) % n
        src = (ctx.rank - dist) % n
        yield from ctx.send_raw(dst, tag=tag, nbytes=0)
        yield from ctx.recv_raw(src=src, tag=tag)
        yield from _stage(ctx)
        dist <<= 1


def bcast(ctx, instance: int, root: int = 0, nbytes: int = 0, payload: Any = None) -> Generator:
    """Binomial-tree broadcast from ``root``; returns the payload."""
    n = ctx.size
    _check_root(root, n)
    tag = _tag(instance)
    rel = (ctx.rank - root) % n
    # Receive from parent (unless root).
    if rel != 0:
        parent_rel = rel & (rel - 1)  # clear lowest set bit
        parent = (parent_rel + root) % n
        msg = yield from ctx.recv_raw(src=parent, tag=tag)
        yield from _stage(ctx)
        payload = msg.payload
    # Forward to children: set bits above our lowest set bit.
    mask = 1
    while mask < n:
        if rel & mask:
            break
        child_rel = rel | mask
        if child_rel < n:
            child = (child_rel + root) % n
            yield from ctx.send_raw(child, tag=tag, nbytes=nbytes, payload=payload)
        mask <<= 1
    return payload


def reduce(
    ctx, instance: int, root: int = 0, nbytes: int = 0, value: Any = None, op=None
) -> Generator:
    """Binomial-tree reduction to ``root``; returns the result at root.

    ``op`` combines two contribution values (default: collect into a
    list-agnostic sum when numeric, else keep a list).
    """
    n = ctx.size
    _check_root(root, n)
    tag = _tag(instance)
    rel = (ctx.rank - root) % n
    acc = value
    mask = 1
    while mask < n:
        if rel & mask:
            parent_rel = rel & ~mask
            parent = (parent_rel + root) % n
            yield from ctx.send_raw(parent, tag=tag, nbytes=nbytes, payload=acc)
            return None
        child_rel = rel | mask
        if child_rel < n:
            child = (child_rel + root) % n
            msg = yield from ctx.recv_raw(src=child, tag=tag)
            yield from _stage(ctx)
            acc = _combine(acc, msg.payload, op)
        mask <<= 1
    return acc


def allreduce(ctx, instance: int, nbytes: int = 0, value: Any = None, op=None) -> Generator:
    """Recursive-doubling allreduce with non-power-of-two folding.

    Extra ranks (beyond the largest power of two ``p <= n``) fold their
    contribution into a partner before the doubling rounds and receive
    the result afterwards — the standard MPICH scheme.
    """
    n = ctx.size
    tag = _tag(instance)
    p = 1
    while p * 2 <= n:
        p *= 2
    extras = n - p
    acc = value

    if ctx.rank >= p:
        # Extra rank: hand contribution to partner, await the result.
        partner = ctx.rank - p
        yield from ctx.send_raw(partner, tag=tag, nbytes=nbytes, payload=acc)
        msg = yield from ctx.recv_raw(src=partner, tag=tag)
        return msg.payload

    if ctx.rank < extras:
        msg = yield from ctx.recv_raw(src=ctx.rank + p, tag=tag)
        yield from _stage(ctx)
        acc = _combine(acc, msg.payload, op)

    mask = 1
    while mask < p:
        partner = ctx.rank ^ mask
        yield from ctx.send_raw(partner, tag=tag, nbytes=nbytes, payload=acc)
        msg = yield from ctx.recv_raw(src=partner, tag=tag)
        yield from _stage(ctx)
        acc = _combine(acc, msg.payload, op)
        mask <<= 1

    if ctx.rank < extras:
        yield from ctx.send_raw(ctx.rank + p, tag=tag, nbytes=nbytes, payload=acc)
    return acc


def gather(ctx, instance: int, root: int = 0, nbytes: int = 0, value: Any = None) -> Generator:
    """Binomial-tree gather; root returns ``{rank: value}``."""
    n = ctx.size
    _check_root(root, n)
    tag = _tag(instance)
    rel = (ctx.rank - root) % n
    collected = {ctx.rank: value}
    count = 1  # ranks in this subtree so far
    mask = 1
    while mask < n:
        if rel & mask:
            parent = ((rel & ~mask) + root) % n
            yield from ctx.send_raw(
                parent, tag=tag, nbytes=nbytes * count, payload=collected
            )
            return None
        child_rel = rel | mask
        if child_rel < n:
            child = (child_rel + root) % n
            msg = yield from ctx.recv_raw(src=child, tag=tag)
            yield from _stage(ctx)
            collected.update(msg.payload)
            count += min(mask, n - child_rel)  # the child's binomial subtree
        mask <<= 1
    return collected


def scatter(
    ctx, instance: int, root: int = 0, nbytes: int = 0, values: Optional[dict] = None
) -> Generator:
    """Binomial-tree scatter; each rank returns its slice of ``values``.

    ``values`` (root only) maps rank -> payload.
    """
    n = ctx.size
    _check_root(root, n)
    tag = _tag(instance)
    rel = (ctx.rank - root) % n
    if rel == 0:
        bundle = dict(values or {})
    else:
        parent = ((rel & (rel - 1)) + root) % n
        msg = yield from ctx.recv_raw(src=parent, tag=tag)
        yield from _stage(ctx)
        bundle = msg.payload
    mask = 1
    while mask < n:
        if rel & mask:
            break
        child_rel = rel | mask
        if child_rel < n:
            # Pass along the sub-bundle destined for the child's subtree.
            subtree = {
                (r + root) % n: bundle.get((r + root) % n)
                for r in range(child_rel, min(child_rel + mask, n))
            }
            child = (child_rel + root) % n
            yield from ctx.send_raw(
                child, tag=tag, nbytes=nbytes * max(len(subtree), 1), payload=subtree
            )
        mask <<= 1
    return bundle.get(ctx.rank)


def allgather(ctx, instance: int, nbytes: int = 0, value: Any = None) -> Generator:
    """Ring allgather: n-1 rounds; returns ``{rank: value}`` everywhere."""
    n = ctx.size
    tag = _tag(instance)
    right = (ctx.rank + 1) % n
    left = (ctx.rank - 1) % n
    collected = {ctx.rank: value}
    carry = {ctx.rank: value}
    for _ in range(n - 1):
        yield from ctx.send_raw(right, tag=tag, nbytes=nbytes, payload=carry)
        msg = yield from ctx.recv_raw(src=left, tag=tag)
        yield from _stage(ctx)
        carry = msg.payload
        collected.update(carry)
    return collected


def alltoall(ctx, instance: int, nbytes: int = 0, values: Optional[dict] = None) -> Generator:
    """Shifted pairwise exchange; returns ``{src: payload}``.

    ``values`` maps destination rank -> payload for this rank's slices.
    """
    n = ctx.size
    tag = _tag(instance)
    values = values or {}
    received = {ctx.rank: values.get(ctx.rank)}
    for shift in range(1, n):
        dst = (ctx.rank + shift) % n
        src = (ctx.rank - shift) % n
        yield from ctx.send_raw(dst, tag=tag, nbytes=nbytes, payload=values.get(dst))
        msg = yield from ctx.recv_raw(src=src, tag=tag)
        yield from _stage(ctx)
        received[src] = msg.payload
    return received


def scan(ctx, instance: int, nbytes: int = 0, value: Any = None, op=None) -> Generator:
    """Inclusive prefix reduction (MPI_Scan): linear pipeline.

    Rank i receives the prefix of ranks 0..i-1 from its left neighbour,
    folds in its own contribution, forwards to the right, and returns
    the inclusive prefix.  Linear chains are what small-message scans
    use in practice and give the correct PREFIX dependency structure.
    """
    n = ctx.size
    tag = _tag(instance)
    acc = value
    if ctx.rank > 0:
        msg = yield from ctx.recv_raw(src=ctx.rank - 1, tag=tag)
        yield from _stage(ctx)
        acc = _combine(msg.payload, acc, op)
    if ctx.rank + 1 < n:
        yield from ctx.send_raw(ctx.rank + 1, tag=tag, nbytes=nbytes, payload=acc)
    return acc


def reduce_scatter(
    ctx, instance: int, nbytes: int = 0, values: Optional[dict] = None, op=None
) -> Generator:
    """Reduce-scatter: chunk i of the elementwise reduction lands on rank i.

    Implemented as a binomial gather of per-chunk contribution maps to
    rank 0 (which folds them) followed by a binomial scatter of the
    reduced chunks — both phases inside the same collective instance,
    like MPICH's fallback algorithm for irregular sizes.

    ``values`` maps destination rank -> this rank's contribution to that
    chunk; the return value is the reduction of the caller's own chunk.
    """
    n = ctx.size
    values = values or {}
    # Phase 1: gather everyone's contribution maps at rank 0.
    collected = yield from gather(ctx, instance, root=0, nbytes=nbytes, value=values)
    scattered: Optional[dict] = None
    if ctx.rank == 0:
        scattered = {}
        for dst in range(n):
            acc = None
            for contributor in sorted(collected):
                chunk = collected[contributor].get(dst)
                if chunk is not None:
                    acc = _combine(acc, chunk, op)
            scattered[dst] = acc
    # Phase 2: scatter the reduced chunks.
    result = yield from scatter(ctx, instance, root=0, nbytes=nbytes, values=scattered)
    return result


def _combine(a: Any, b: Any, op) -> Any:
    if op is not None:
        if a is None:
            return b
        return op(a, b)
    if a is None:
        return b
    if b is None:
        return a
    try:
        return a + b
    except TypeError:
        return (a, b)


def _check_root(root: int, n: int) -> None:
    if not 0 <= root < n:
        raise ConfigurationError(f"root {root} outside communicator of size {n}")
