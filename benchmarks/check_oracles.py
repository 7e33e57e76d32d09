"""Mutation smoke check: do the verification oracles have teeth?

Injects a handful of hand-written mutants — each a realistic way the
synchronization stack could silently break — and asserts the
fuzz campaign named beside it (``mutation``, ``streaming`` for the
out-of-core sweeps, ``smoke`` for message matching, ``batch`` for the
batch engine's recorder, its message pairing and its segment starts,
``stats`` for the grid runner, ``clc`` for the backward amortization's
dense twin; ``mutation`` ends with a POMP probe and a
probe that wakes the forward driver early only inside an array window) catches
every one,
shrinks the failure, and
serializes it to a corpus entry.  A mutant that survives means an
oracle has gone blind; exit code 1.

Usage::

    PYTHONPATH=src python benchmarks/check_oracles.py
    PYTHONPATH=src python benchmarks/check_oracles.py --max-examples 80
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np


@contextmanager
def _driver_patched(name, replacement):
    """``repro.sync.schedule.<name>`` replaced wherever the forward pass
    reads it: in memory (``forward_pass``, whose one landing loop both
    paths run), and in the streamed sweep, which imports it to walk its
    windows and build each shard's overlay."""
    import repro.sync.schedule as schedule_mod
    import repro.sync.streaming as streaming_mod

    with mock.patch.object(schedule_mod, name, replacement), \
            mock.patch.object(streaming_mod, name, replacement):
        yield


@contextmanager
def mutant_zero_lmin():
    """M1: the per-edge latency floor vanishes — Eq. 1 degenerates to
    ``recv >= send`` and corrected traces keep real violations."""
    from repro.sync.schedule import CompiledSchedule

    real = CompiledSchedule.edge_lmin

    def edge_lmin(self, lmin):
        return real(self, 0.0)

    with mock.patch.object(CompiledSchedule, "edge_lmin", edge_lmin):
        yield


@contextmanager
def mutant_uncapped_sends():
    """M2: send caps disabled in the array kernel only — backward
    amortization may push a send past its partner's receive, and the
    kernel diverges from the scalar reference."""
    import repro.sync.clc as clc_mod

    def no_caps(schedule, corrected_flat, edge_lmin):
        return np.full(schedule.n_events, np.inf, dtype=np.float64)

    with mock.patch.object(clc_mod, "send_caps_kernel", no_caps):
        yield


@contextmanager
def mutant_naive_floor():
    """M3: quantization reverts to a bare ``floor(value/res) * res`` —
    the historical grid-boundary overshoot (15.0 at 1 ns) returns."""
    from repro.clocks.base import Clock

    def naive(self, value):
        if self.resolution > 0.0:
            return math.floor(value / self.resolution) * self.resolution
        return value

    with mock.patch.object(Clock, "_quantize", naive):
        yield


@contextmanager
def mutant_forced_gamma():
    """M4: the forward driver's recurrence silently ignores the requested
    gamma — amortized corrections differ from the scalar reference."""
    from repro.sync.schedule import forward_recurrence as real

    def forced(orig, gamma, heads, reads):
        return real(orig, 1.0 if gamma is not None else None, heads, reads)

    with _driver_patched("forward_recurrence", forced):
        yield


@contextmanager
def mutant_dropped_sender():
    """M5: the pair expansion loses one sender of every N-to-N instance —
    the scalar oracles (``build_dependencies``) read those pairs, while
    the kernels and the streaming CLC read every instance as blocks:
    the independent flavor rule and the kernel-vs-reference oracle
    notice."""
    import repro.sync.collectives_map as cmap
    from repro.tracing.events import CollectiveFlavor

    real = cmap.member_pairs

    def dropped(flavor, n, root_pos):
        receivers, senders = real(flavor, n, root_pos)
        if flavor is CollectiveFlavor.N_TO_N:
            receivers, senders = receivers[:-1], senders[:-1]
        return receivers, senders

    with mock.patch.object(cmap, "member_pairs", dropped):
        yield


@contextmanager
def mutant_early_wake():
    """M6: the forward driver takes every source as done one event early —
    a dependent may run before the event it waits for, so the compiled
    order is no valid replay order and both forward passes read sources
    that are not final.  The shift reaches the one-at-a-time checks and
    the column the windows compare (every window's ``wait``) and the
    blocks' enters; the ``mutation`` campaign's last probe wakes early
    only inside a window."""
    from repro.sync.schedule import walk as real

    def early(cursors, ends, open_window, blocks, land=None):
        def shifted(rp):
            window = open_window(rp)
            return window and window._replace(
                wait=[g - 1 for g in window.wait], wait_arr=window.wait_arr - 1)

        b_lo, b_need, b_enter, b_pos = blocks
        return real(cursors, ends, shifted, (b_lo, b_need, [g - 1 for g in b_enter], b_pos), land)

    with _driver_patched("walk", early):
        yield


@contextmanager
def mutant_stale_pending():
    """M7: the streamed pre-scan's join forgets the sends it carried over
    a shard boundary — a receive in a later shard than its send goes
    unmatched and drops out of the verdict."""
    import repro.sync.streaming as streaming

    real = streaming._MessageJoin.feed

    def forgetful(self, sends, recvs):
        real(self, sends, recvs)
        self.sends = streaming._rows(self.sends, slice(0))

    with mock.patch.object(streaming._MessageJoin, "feed", forgetful):
        yield


@contextmanager
def mutant_raw_verdict():
    """M8: the fused pre-scan reports the interpolated stage from the raw
    stamps — the corrected trace is right, the stage report is not."""
    from repro.sync.streaming import ShardSweeps

    real = ShardSweeps._stamps

    def raw_twice(self, rank, raw):
        return [raw] * len(real(self, rank, raw))

    with mock.patch.object(ShardSweeps, "_stamps", raw_twice):
        yield


@contextmanager
def mutant_unmoved_predecessor():
    """M9: the forward recurrence's bytemap reads every predecessor as
    unmoved — ``stretch`` drops the glide tail behind a jump and ``land``
    applies the follow rule only at spontaneous positions, while the
    moved events are still written out."""
    import repro.sync.schedule as schedule_mod

    class Blind(bytearray):
        def __getitem__(self, key):
            return 0 if isinstance(key, int) else super().__getitem__(key)

    with mock.patch.object(schedule_mod, "bytearray", Blind, create=True):
        yield


@contextmanager
def mutant_dropped_member():
    """M10: the compiled schedule loses the last member of every block —
    its enter binds no exit, its exit waits for nothing, and every other
    range is cut at the shortened block's end.  The streaming CLC and the
    scalar oracles keep their own reading of the flavor rule, so
    kernel-vs-reference (CLC, Lamport, vector) and streamed == in-memory
    all notice."""
    import repro.sync.schedule as schedule_mod
    from repro.sync.collectives_map import CollectiveBlocks

    real = schedule_mod.collective_constraints

    def dropped(table):
        blocks = real(table)
        keep = np.ones(blocks.members.size, dtype=bool)
        keep[blocks.indptr[1:] - 1] = False
        indptr = blocks.indptr - np.arange(blocks.indptr.size)
        sizes = np.diff(indptr)
        lo = np.repeat(indptr[:-1], sizes)
        need = lo + blocks.need[keep] - blocks.lo[keep]
        return CollectiveBlocks(
            blocks.members[keep], indptr, lo, np.minimum(need, np.repeat(indptr[1:], sizes))
        )

    with mock.patch.object(schedule_mod, "collective_constraints", dropped):
        yield


@contextmanager
def mutant_fifo_off_by_one():
    """M11: the shared key rule counts a FIFO channel's receives from one
    — the k-th receive claims the (k+1)-th send.  Both the in-memory and
    the streamed path read the same rule, so only the definition of
    matching (``message_matching_semantics``) can notice."""
    from repro.tracing.trace import MatchKeys

    real = MatchKeys.fifo

    def shifted(self, rank, recv, partner, tag):
        keys = real(self, rank, recv, partner, tag)
        return keys + 1 if recv else keys

    with mock.patch.object(MatchKeys, "fifo", shifted):
        yield


@contextmanager
def mutant_unpublished_move():
    """M12: the forward driver never sees a move it made — the recurrence
    hides its moved bytemap from the caller, so no send is published and
    every dependent reads its sources' input stamps: a receive that binds
    only behind a moved send (a relay after a jump) keeps its stamp.
    Both paths run the driver, so streamed == in-memory cannot notice;
    kernel-vs-reference does."""
    from repro.sync.schedule import forward_recurrence as real

    def blind(orig, gamma, heads, reads):
        corr, moved, *rest = real(orig, gamma, heads, reads)
        return (corr, bytearray(len(moved)), *rest)

    with _driver_patched("forward_recurrence", blind):
        yield


@contextmanager
def _fresh_plans():
    """Batch plans compiled under a mutant neither come from the plan cache
    nor stay in it."""
    from repro.sim.batch import _PLAN_CACHE

    _PLAN_CACHE.clear()
    try:
        yield
    finally:
        _PLAN_CACHE.clear()


@contextmanager
def mutant_stageless_recorder():
    """M13: the batch recorder drops the per-stage protocol cost of every
    collective — the ``sleep`` each algorithm step charges is lost while
    the plan is recorded, so batch timelines run ahead of the engine's
    and ``batch_matches_engine`` notices."""
    from repro.mpi.collectives import STAGE_COST
    from repro.sim.batch import _RankPlan

    real = _RankPlan.sleep

    def stageless(self, duration):
        return real(self, 0.0 if duration == STAGE_COST else duration)

    with _fresh_plans(), mock.patch.object(_RankPlan, "sleep", stageless):
        yield


@contextmanager
def mutant_unbound_floor():
    """M14: the forward driver drops the input-floor test — a dependent is
    landed whatever moved only as a block exit or for an own-rank source,
    so a reversed receive whose send did not move is a plain event and
    keeps its stamp.  Both paths share the rule; the scalar reference
    lands every dependent, so kernel-vs-reference notices."""
    from repro.sync.schedule import bound_dependents as real

    def unbound(slot, indptr, floors, own, stamps):
        return real(slot, indptr, np.full_like(floors, -np.inf), own, stamps)

    with _driver_patched("bound_dependents", unbound):
        yield


@contextmanager
def mutant_dropped_join():
    """M15: the OpenMP joins leave the collective mapping — every
    ``OMP_PAR_EXIT``/``OMP_JOIN`` row is dropped, so no path enforces
    join-last.  The kernels and the scalar references read the same
    table, so only ``pomp_post_clc``'s independent region scan notices."""
    import repro.tracing.trace as trace_mod
    from repro.tracing.events import CollectiveOp

    real = trace_mod.collective_rows

    def joinless(start, ts, etypes, a, b, d):
        rows = real(start, ts, etypes, a, b, d)
        keep = rows[4] != int(CollectiveOp.OMP_JOIN)
        return tuple(column[keep] for column in rows)

    with mock.patch.object(trace_mod, "collective_rows", joinless):
        yield


@contextmanager
def mutant_misplaced_batch():
    """M16: the grid runner lands a finished batch's values on the wrong
    grid indices (reversed within the batch).  A grid of a few configs
    runs in batches of one, so only grids big enough for multi-config
    batches — ``grid_identity_batched`` under ``stats`` — notice."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.analysis.runner as runner_mod

    class Misplacing(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            fut = super().submit(fn, *args, **kwargs)
            real = fut.result
            fut.result = lambda timeout=None: real(timeout)[::-1]
            return fut

    with mock.patch.object(runner_mod, "ProcessPoolExecutor", Misplacing):
        yield


@contextmanager
def mutant_misrouted_arrival():
    """M17: the batch engine pairs each receive with the next send of its
    channel instead of its own — a receive waits for a later message and
    takes its match id and size, so ``batch_matches_engine`` sees the
    timeline (or a fast path that deadlocks and falls back) differ."""
    import repro.sim.batch as batch_mod

    real = batch_mod._pair_receives

    def misrouted(rank, recvs, send_channels):
        following, last = {}, {}
        for serial, channel in enumerate(zip(*(column.tolist() for column in send_channels))):
            if channel in last:
                following[last[channel]] = serial
            last[channel] = serial
        paired = real(rank, recvs, send_channels).tolist()
        return np.array([following.get(s, s) for s in paired], dtype=np.int64)

    with _fresh_plans(), mock.patch.object(batch_mod, "_pair_receives", misrouted):
        yield


@contextmanager
def mutant_segment_offset():
    """M18: the batch recorder starts one segment a delta early — the
    first segment start that follows a clock read moves back by one, so
    the read lands one step late, behind the receive that ends its
    segment, and ``batch_matches_engine`` sees the readings differ."""
    from repro.sim.batch import _READ, _RankPlan

    real = _RankPlan.finish

    def early(self):
        real(self)
        starts, kinds = self.timeline.starts, self.timeline.kinds
        for i in range(1, len(starts) - 1):
            if starts[i] > starts[i - 1] and kinds[starts[i] - 1] == _READ:
                starts[i] -= 1
                return

    with _fresh_plans(), mock.patch.object(_RankPlan, "finish", early):
        yield


@contextmanager
def mutant_lost_publication():
    """M19: the streamed channel drops every moved send's stamp — the
    receive's window keeps the send's input stamp in the slot it reads,
    so a receive that binds only behind the moved send (a relay after a
    jump) keeps its stamp.  Only the streamed sweep carries stamps
    between windows, so ``streamed_matches_inmemory`` notices; M12 blinds
    both paths alike."""
    from repro.sync.streaming import _Channel

    def lost(self, key, value):
        return None

    with mock.patch.object(_Channel, "publish", lost):
        yield


@contextmanager
def mutant_one_round():
    """M20: the backward amortization's reverse scans stop after their
    first fixed-point round — each advance is limited by its right
    neighbour's *unlimited* advance, so a binding chain (a send capped
    just before a jump) stops one link short.  Kernel and scalar
    reference share the amortization, so only the dense twin of the
    scans, ``amortization_matches_dense``, notices."""
    import repro.sync.clc as clc_mod

    def one_round(x, right, link, step, gap=None):
        x[:-1] = step(np.arange(link.size), np.where(link, x[1:], right))
        return 1

    with mock.patch.object(clc_mod, "_reverse_fixed_point", one_round):
        yield


#: (name, mutant, what each campaign must catch it with: any oracle (None),
#: an oracle by name, or one probe as (strategy, oracle))
MUTANTS = [
    ("zero-lmin", mutant_zero_lmin, {"mutation": None}),
    ("uncapped-sends", mutant_uncapped_sends, {"mutation": None}),
    ("naive-floor", mutant_naive_floor, {"mutation": None}),
    ("forced-gamma", mutant_forced_gamma, {"mutation": None}),
    ("dropped-sender", mutant_dropped_sender, {"mutation": None}),
    ("early-wake", mutant_early_wake, {
        "mutation": ("walk_window", "kernel_reference_identity"),
        "streaming": None,
    }),
    ("stale-pending", mutant_stale_pending, {"streaming": None}),
    ("raw-verdict", mutant_raw_verdict, {"streaming": None}),
    ("unmoved-predecessor", mutant_unmoved_predecessor, {"mutation": None}),
    ("dropped-member", mutant_dropped_member, {
        "mutation": "kernel_reference_identity",
        "streaming": "streamed_matches_inmemory",
    }),
    ("fifo-off-by-one", mutant_fifo_off_by_one, {"smoke": "message_matching_semantics"}),
    ("unpublished-move", mutant_unpublished_move, {"mutation": "kernel_reference_identity"}),
    ("stageless-recorder", mutant_stageless_recorder, {"batch": "batch_matches_engine"}),
    ("unbound-floor", mutant_unbound_floor, {"mutation": "kernel_reference_identity"}),
    ("dropped-join", mutant_dropped_join, {"mutation": "pomp_post_clc"}),
    ("misplaced-batch", mutant_misplaced_batch, {"stats": "grid_identity_batched"}),
    ("misrouted-arrival", mutant_misrouted_arrival, {"batch": "batch_matches_engine"}),
    ("segment-offset", mutant_segment_offset, {"batch": "batch_matches_engine"}),
    ("lost-publication", mutant_lost_publication, {"streaming": "streamed_matches_inmemory"}),
    ("one-round", mutant_one_round, {"clc": "amortization_matches_dense"}),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-examples", type=int, default=60,
                        help="fuzz budget per probe (default 60)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.verify import run_campaign

    survived = []
    for name, mutant, campaigns in MUTANTS:
        for campaign, wanted in campaigns.items():
            label = f"{name} ({campaign})" if len(campaigns) > 1 else name
            with tempfile.TemporaryDirectory() as tmp:
                with mutant():
                    result = run_campaign(
                        campaign,
                        max_examples=args.max_examples,
                        corpus_dir=tmp,
                        seed=args.seed,
                    )
                oracles = sorted({f.oracle for f in result.failures})
                probes = {(f.strategy, f.oracle) for f in result.failures}
                entries = sorted(p.name for p in Path(tmp).glob("*.json"))
                if result.passed or wanted not in {None, *oracles, *probes}:
                    print(f"  SURVIVED {label}: {result.summary()}")
                elif not entries:
                    print(f"  SURVIVED {label}: caught but nothing serialized")
                else:
                    print(f"  caught   {label}: {', '.join(oracles)} "
                          f"({len(entries)} corpus entries)")
                    continue
                if name not in survived:
                    survived.append(name)

    if survived:
        print(f"mutation check FAILED: {len(survived)}/{len(MUTANTS)} "
              f"mutants survived ({', '.join(survived)})")
        return 1
    print(f"mutation check passed: {len(MUTANTS)}/{len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
