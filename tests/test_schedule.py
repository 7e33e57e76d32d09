"""Tests for compiled happened-before schedules (repro.sync.schedule).

Two obligations: the compiled topological order must match the
dict-based ``replay_schedule`` exactly, and every array kernel must be
**bit-for-bit** identical to its ``*_reference`` scalar oracle —
checked here on randomized synthetic traces mixing messages with all
four collective flavors (N-to-N, 1-to-N, N-to-1, prefix) under clock
offsets large enough to force violations and jumps.  The equivalence
assertions themselves live in :mod:`repro.verify.oracles` and are
shared with the fuzz campaigns (``repro verify``); this file drives
them over its own trace generator.
"""

from __future__ import annotations

import re
import typing

import numpy as np
import pytest

from repro.errors import SynchronizationError
from repro.sync.clc import ControlledLogicalClock
from repro.sync.order import build_dependencies
from repro.sync.schedule import CompiledSchedule, bsp_rounds
from repro.sync.replay import replay_correct
from repro.tracing.events import CollectiveOp, EventLog, EventType
from repro.tracing.trace import Trace
from repro.verify.oracles import (
    assert_clc_matches_reference,
    assert_dependency_clc_matches_reference,
    assert_logical_clocks_match_reference,
    assert_naive_matches_reference,
    assert_replay_matches_direct,
    assert_topo_matches_replay,
)

#: Collective mix covering every flavor: N_TO_N, ONE_TO_N, N_TO_ONE, PREFIX.
_COLLECTIVE_MIX = [
    CollectiveOp.BARRIER,
    CollectiveOp.BCAST,
    CollectiveOp.REDUCE,
    CollectiveOp.SCAN,
]


def random_trace(seed: int, nranks: int = 4, steps: int = 60) -> Trace:
    """A randomized trace with messages, all collective flavors, and
    cross-rank clock offsets chosen so the clock condition is violated.

    Events are generated in one global order (sends and collective
    enters strictly before the receives/exits they constrain), so the
    happened-before graph is acyclic by construction; per-rank
    timestamps are monotone but mutually offset, which produces receive
    < send violations for the correctors to fix.
    """
    rng = np.random.default_rng(seed)
    pending: dict[int, list[tuple]] = {r: [] for r in range(nranks)}
    match_id = 0
    instance = 0
    for _ in range(steps):
        kind = rng.random()
        if kind < 0.35:  # local event
            r = int(rng.integers(nranks))
            pending[r].append((EventType.ENTER, 1, 0, 0, 0))
        elif kind < 0.8:  # point-to-point message
            src, dst = rng.choice(nranks, size=2, replace=False)
            src, dst = int(src), int(dst)
            tag = int(rng.integers(3))
            pending[src].append((EventType.SEND, dst, tag, 64, match_id))
            pending[dst].append((EventType.RECV, src, tag, 64, match_id))
            match_id += 1
        else:  # collective over a random subset
            op = _COLLECTIVE_MIX[int(rng.integers(len(_COLLECTIVE_MIX)))]
            size = int(rng.integers(2, nranks + 1))
            members = sorted(int(r) for r in rng.choice(nranks, size=size, replace=False))
            root = int(members[int(rng.integers(size))])
            for r in members:
                pending[r].append((EventType.COLL_ENTER, int(op), root, size, instance))
            for r in members:
                pending[r].append((EventType.COLL_EXIT, int(op), root, size, instance))
            instance += 1
    logs = {}
    for r in range(nranks):
        log = EventLog()
        offset = float(rng.uniform(-5e-3, 5e-3))  # de-synchronized clocks
        t = 10.0 + offset
        for etype, a, b, c, d in pending[r]:
            t += float(rng.exponential(1e-4))
            log.append(t, etype, a, b, c, d)
        logs[r] = log
    return Trace(logs)


SEEDS = list(range(8))


class TestCompilation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_topo_order_matches_replay_schedule(self, seed):
        assert_topo_matches_replay(random_trace(seed))

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_csr_matches_dependency_dict(self, seed):
        trace = random_trace(seed)
        deps = build_dependencies(trace)
        schedule = CompiledSchedule.from_dependencies(trace, deps)
        offsets = {r: int(schedule.offsets[i]) for i, r in enumerate(schedule.ranks)}
        n_edges = 0
        for (rank, idx), sources in deps.items():
            gid = offsets[rank] + idx
            lo, hi = int(schedule.indptr[gid]), int(schedule.indptr[gid + 1])
            got = schedule.indices[lo:hi].tolist()
            want = [offsets[sr] + si for sr, si in sources]
            assert got == want  # per-dependent source order is preserved
            n_edges += len(sources)
        assert schedule.n_edges == n_edges
        # Reverse CSR inverts the relation edge-for-edge.
        assert np.array_equal(
            np.sort(schedule.rev_targets), np.sort(schedule.e_dst)
        )

    def test_cycle_raises(self):
        log0, log1 = EventLog(), EventLog()
        log0.append(1.0, EventType.ENTER, 1, 0, 0, 0)
        log1.append(1.0, EventType.ENTER, 1, 0, 0, 0)
        trace = Trace({0: log0, 1: log1})
        deps = {(0, 0): [(1, 0)], (1, 0): [(0, 0)]}
        with pytest.raises(SynchronizationError, match="incomplete"):
            CompiledSchedule.from_dependencies(trace, deps)

    def test_out_of_range_dependency_raises(self):
        log = EventLog()
        log.append(1.0, EventType.ENTER, 1, 0, 0, 0)
        trace = Trace({0: log})
        with pytest.raises(SynchronizationError, match="not an event"):
            CompiledSchedule.from_dependencies(trace, {(0, 0): [(0, 5)]})

    @pytest.mark.parametrize(
        "deps, named",
        [
            ({(99, 0): []}, "target (99, 0)"),  # checked without any source
            ({(0, 0): [(2, 1)], (1, 0): []}, "target (1, 0)"),  # rank between known ranks
            ({(0, -1): [(2, 0)]}, "target (0, -1)"),
            ({(0, 0): [(3, 0)]}, "source (3, 0)"),  # rank above every known rank
            # the first offender in dict order is the one named
            ({(0, 0): [(2, 5)], (99, 0): []}, "source (2, 5)"),
            ({(99, 0): [], (0, 0): [(2, 5)]}, "target (99, 0)"),
            ({(0, 1): [(2, 5)], (7, 0): [(0, 0)]}, "source (2, 5)"),
            ({(7, 0): [(2, 5)]}, "target (7, 0)"),
        ],
    )
    def test_first_bad_dependency_is_named(self, deps, named):
        logs = {0: EventLog(), 2: EventLog()}
        for log in logs.values():
            log.append(1.0, EventType.ENTER, 1, 0, 0, 0)
            log.append(2.0, EventType.EXIT, 1, 0, 0, 0)
        with pytest.raises(SynchronizationError, match=re.escape(f"dependency {named} is not")):
            CompiledSchedule.from_dependencies(Trace(logs), deps)

    def test_trace_caches_schedule(self):
        trace = random_trace(0)
        s1 = trace.compiled_schedule(True)
        assert trace.compiled_schedule(True) is s1
        s2 = trace.compiled_schedule(False)
        assert s2 is not s1
        assert s2.n_edges <= s1.n_edges

    def test_corrected_trace_inherits_schedule(self):
        trace = random_trace(1)
        s1 = trace.compiled_schedule(True)
        result = ControlledLogicalClock().correct(trace, lmin=1e-6)
        assert result.trace.compiled_schedule(True) is s1

    def test_empty_rank_ok(self):
        log = EventLog()
        log.append(1.0, EventType.ENTER, 1, 0, 0, 0)
        trace = Trace({0: log, 1: EventLog().freeze()})
        schedule = trace.compiled_schedule(True)
        assert schedule.topo_refs() == [(0, 0)]


class TestClcEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("gamma", [1.0, 0.99, 0.9])
    def test_bit_identical_auto_window(self, seed, gamma):
        assert_clc_matches_reference(random_trace(seed), lmin=1e-6, gamma=gamma)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    @pytest.mark.parametrize("window", [0.0, 0.5])
    def test_bit_identical_fixed_window(self, seed, window):
        assert_clc_matches_reference(random_trace(seed), lmin=1e-6, window=window)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_bit_identical_lmin_matrix_and_callable(self, seed):
        trace = random_trace(seed)
        nr = len(trace.ranks)
        rng = np.random.default_rng(seed + 100)
        matrix = rng.uniform(0.0, 2e-4, size=(nr, nr))
        assert_clc_matches_reference(trace, lmin=matrix)
        fn = lambda s, d: 1e-5 * (s + 2 * d)  # noqa: E731
        assert_clc_matches_reference(trace, lmin=fn)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_bit_identical_without_collectives(self, seed):
        assert_clc_matches_reference(
            random_trace(seed), lmin=1e-6, include_collectives=False
        )

    def test_bit_identical_custom_dependency_dict(self):
        # The POMP-style extension point: an explicit constraint set
        # that build_dependencies would never produce.
        trace = random_trace(3)
        deps = build_dependencies(trace, include_collectives=False)
        lens = {r: len(trace.logs[r]) for r in trace.ranks}
        deps.setdefault((1, lens[1] - 1), []).append((0, 0))
        deps.setdefault((3, lens[3] - 1), []).extend([(0, 0), (2, 0)])
        assert_dependency_clc_matches_reference(trace, deps, lmin=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_naive_shift_bit_identical(self, seed):
        assert_naive_matches_reference(random_trace(seed), lmin=1e-6)

    def test_simulated_trace_bit_identical(self):
        from repro.cluster import inter_node, xeon_cluster
        from repro.mpi import MpiWorld
        from repro.workloads import SparseConfig, sparse_worker

        preset = xeon_cluster()
        world = MpiWorld(
            preset, inter_node(preset.machine, 6), timer="tsc", seed=11, duration_hint=30.0
        )
        trace = world.run(sparse_worker(SparseConfig(rounds=10), seed=11)).trace
        assert_clc_matches_reference(trace, lmin=1e-6)
        assert_naive_matches_reference(trace, lmin=1e-6)


class TestLogicalClockEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lamport_and_vector_bit_identical(self, seed):
        # Both flavors of include_collectives, lamport and vector.
        assert_logical_clocks_match_reference(random_trace(seed))


class TestReplayOnSchedule:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_replay_matches_sequential_clc(self, seed):
        trace = random_trace(seed)
        assert_replay_matches_direct(trace, lmin=1e-6)
        result = replay_correct(trace, lmin=1e-6)
        assert result.rounds >= 1
        assert result.max_queue >= 1
        assert result.clc.trace.meta["clc"]["replay"] is True

    def test_rounds_one_without_messages(self):
        log0, log1 = EventLog(), EventLog()
        for t in (1.0, 2.0):
            log0.append(t, EventType.ENTER, 1, 0, 0, 0)
            log1.append(t, EventType.ENTER, 1, 0, 0, 0)
        trace = Trace({0: log0, 1: log1})
        rounds, max_queue = bsp_rounds(trace.compiled_schedule(True))
        assert rounds == 1
        assert max_queue == 4  # everything completes in the first round

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_round_count_bounded_by_dependency_chains(self, seed):
        trace = random_trace(seed)
        schedule = trace.compiled_schedule(True)
        rounds, max_queue = bsp_rounds(schedule)
        assert 1 <= rounds <= schedule.n_events
        assert max_queue <= schedule.n_events


class TestSatellites:
    def test_transport_annotations_resolve(self):
        # Regression: Transport.__init__ annotates np.random.Generator;
        # the module must import numpy for get_type_hints to work.
        from repro.sim.engine import Transport

        hints = typing.get_type_hints(Transport.__init__)
        assert hints["rng"] is np.random.Generator

    def test_auto_window_signature(self):
        # _auto_window takes the forward pass's max_jump directly (it
        # used to re-derive it from the per-rank jump lists).
        assert ControlledLogicalClock._auto_window(2.0) == 100.0
        assert ControlledLogicalClock._auto_window(0.0) == 0.0
