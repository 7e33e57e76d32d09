"""Mutation smoke check: do the verification oracles have teeth?

Injects a handful of hand-written mutants — each a realistic way the
synchronization stack could silently break — and asserts the
fuzz campaign named beside it (``mutation``, ``streaming`` for the
out-of-core sweeps, ``smoke`` for message matching, ``batch`` for the
batch engine's recorder) catches every one,
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
    """M4: the forward kernel silently ignores the requested gamma —
    amortized corrections differ from the scalar reference."""
    import repro.sync.clc as clc_mod
    from repro.sync.schedule import clc_forward as real_forward

    def forced(schedule, orig_flat, edge_lmin, gamma):
        return real_forward(
            schedule, orig_flat, edge_lmin, 1.0 if gamma is not None else None
        )

    with mock.patch.object(clc_mod, "clc_forward", forced):
        yield


@contextmanager
def mutant_dropped_sender():
    """M5: the pair expansion loses one sender of every N-to-N instance —
    the scalar oracles (``build_dependencies``) read those pairs, while
    the kernels and the streaming CLC read N-to-N instances as blocks:
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
    """M6: the cursor walk takes every source as done one event early —
    a dependent may run before the event it waits for, so the compiled
    order is no valid replay order and kernels read uncorrected sources."""
    import repro.sync.schedule as schedule_mod

    real = schedule_mod.cursor_walk

    def early(**hot):
        shifted = {key: [g - 1 for g in hot[key]] for key in ("src", "b_enter")}
        return real(**{**hot, **shifted})

    with mock.patch.object(schedule_mod, "cursor_walk", early):
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
    """M10: the compiled schedule loses the last member of every N-to-N
    and prefix block — its enter binds no exit and its exit waits for
    nothing.  The streaming CLC and the scalar oracles keep their own
    reading of the flavor rule, so kernel-vs-reference (CLC, Lamport,
    vector) and streamed == in-memory all notice."""
    import repro.sync.schedule as schedule_mod
    from repro.sync.collectives_map import CollectiveBlocks

    real = schedule_mod.collective_constraints

    def dropped(table):
        pairs, blocks = real(table)
        keep = np.ones(blocks.members.size, dtype=bool)
        keep[blocks.indptr[1:] - 1] = False
        indptr = blocks.indptr - np.arange(blocks.indptr.size)
        return pairs, CollectiveBlocks(blocks.members[keep], indptr, blocks.prefix)

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
    """M12: the streamed forward sweep never publishes a send it moved —
    every receiver reads its send's input stamp, and a receive that
    binds only behind a moved send (a relay after a jump) keeps its
    stamp.  The in-memory path is untouched, so streamed == in-memory
    notices."""
    from repro.sync.streaming import _RankForward

    with mock.patch.object(_RankForward, "moved_sends", lambda self, k0, k1: []):
        yield


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

    with mock.patch.object(_RankPlan, "sleep", stageless):
        yield


@contextmanager
def mutant_unbound_floor():
    """M14: the in-memory forward pass drops the input-floor test — a
    dependent is landed whatever moved only as a block exit or for an
    own-rank source, so a reversed receive whose send did not move is a
    plain event and keeps its stamp.  The scalar reference lands every
    dependent, so kernel-vs-reference notices."""
    import repro.sync.schedule as schedule_mod

    real = schedule_mod._bound_dependents

    def unbound(schedule, orig, elmin):
        return real(schedule, orig, np.full_like(elmin, -np.inf))

    with mock.patch.object(schedule_mod, "_bound_dependents", unbound):
        yield


#: (name, mutant, oracle each campaign must catch it with)
MUTANTS = [
    ("zero-lmin", mutant_zero_lmin, {"mutation": None}),
    ("uncapped-sends", mutant_uncapped_sends, {"mutation": None}),
    ("naive-floor", mutant_naive_floor, {"mutation": None}),
    ("forced-gamma", mutant_forced_gamma, {"mutation": None}),
    ("dropped-sender", mutant_dropped_sender, {"mutation": None}),
    ("early-wake", mutant_early_wake, {"mutation": None}),
    ("stale-pending", mutant_stale_pending, {"streaming": None}),
    ("raw-verdict", mutant_raw_verdict, {"streaming": None}),
    ("unmoved-predecessor", mutant_unmoved_predecessor, {"mutation": None}),
    ("dropped-member", mutant_dropped_member, {
        "mutation": "kernel_reference_identity",
        "streaming": "streamed_matches_inmemory",
    }),
    ("fifo-off-by-one", mutant_fifo_off_by_one, {"smoke": "message_matching_semantics"}),
    ("unpublished-move", mutant_unpublished_move, {"streaming": "streamed_matches_inmemory"}),
    ("stageless-recorder", mutant_stageless_recorder, {"batch": "batch_matches_engine"}),
    ("unbound-floor", mutant_unbound_floor, {"mutation": "kernel_reference_identity"}),
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
                entries = sorted(p.name for p in Path(tmp).glob("*.json"))
                if result.passed or wanted not in {None, *oracles}:
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
