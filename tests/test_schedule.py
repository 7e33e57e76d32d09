"""Tests for compiled happened-before schedules (repro.sync.schedule).

Two obligations: the compiled order must be one a replay may take
(every event once, after its local predecessor and after every source
— it is the cursor walk's order, not ``replay_schedule``'s), and every
array kernel must be **bit-for-bit** identical to its ``*_reference``
scalar oracle —
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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SynchronizationError
from repro.sync import schedule as schedule_module
from repro.sync.clc import ControlledLogicalClock
from repro.sync.lamport import lamport_clocks_reference
from repro.sync.order import build_dependencies
from repro.sync.schedule import (
    CompiledSchedule,
    bsp_rounds,
    forward_pass,
    lamport_kernel,
    send_caps_kernel,
    vector_kernel,
)
from repro.sync.replay import replay_correct
from repro.sync.vector import vector_clocks_reference
from repro.tracing.events import CollectiveOp, EventLog, EventType
from repro.tracing.trace import Trace
from repro.verify.oracles import (
    OracleViolation,
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
        dependents = schedule.dep_gids.tolist()
        assert dependents == sorted(offsets[rank] + idx for rank, idx in deps)
        for (rank, idx), sources in deps.items():
            k = dependents.index(offsets[rank] + idx)
            lo, hi = int(schedule.dep_indptr[k]), int(schedule.dep_indptr[k + 1])
            got = schedule.dep_src[lo:hi].tolist()
            want = [offsets[sr] + si for sr, si in sources]
            assert got == want  # per-dependent source order is preserved
            # ... and every CSR slot names its row of the edge table.
            assert schedule.e_src[schedule.dep_edge_ids[lo:hi]].tolist() == want
            n_edges += len(sources)
        assert schedule.n_edges == n_edges
        # A rank's dependents are one contiguous range of the CSR.
        for i in range(len(schedule.ranks)):
            lo, hi = schedule.rank_deps[i], schedule.rank_deps[i + 1]
            mine = schedule.dep_gids[lo:hi]
            assert np.all((mine >= schedule.offsets[i]) & (mine < schedule.offsets[i + 1]))

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
        s1 = trace.compiled_schedule()
        assert trace.compiled_schedule() is s1
        # One relation: messages are its edges, collectives its blocks.
        assert s1.n_edges == len(trace.messages(strict=False))
        assert s1.n_blocks > 0

    def test_corrected_trace_inherits_schedule(self):
        trace = random_trace(1)
        s1 = trace.compiled_schedule()
        result = ControlledLogicalClock().correct(trace, lmin=1e-6)
        assert result.trace.compiled_schedule() is s1

    def test_empty_rank_ok(self):
        log = EventLog()
        log.append(1.0, EventType.ENTER, 1, 0, 0, 0)
        trace = Trace({0: log, 1: EventLog().freeze()})
        schedule = trace.compiled_schedule()
        assert schedule.topo_refs() == [(0, 0)]


_walk = schedule_module.walk


def _early_wake(cursors, ends, open_window, blocks, land=None):
    """The driver with every source taken as done one event early, in its
    one-at-a-time checks, in the column its windows compare and in the
    blocks' enters."""
    def shifted(rp):
        window = open_window(rp)
        return window and window._replace(
            wait=[g - 1 for g in window.wait], wait_arr=window.wait_arr - 1)

    b_lo, b_need, b_enter, b_pos = blocks
    return _walk(cursors, ends, shifted, (b_lo, b_need, [g - 1 for g in b_enter], b_pos), land)


def _trace_of(events: dict[int, list[tuple]]) -> Trace:
    """``{rank: [(etype, a, b, c, d), ...]}`` -> a trace, one event per microsecond."""
    logs = {}
    for rank, rows in events.items():
        cols = np.array(rows, dtype=np.int64).reshape(len(rows), 5)
        ts = 1e-6 * np.arange(len(rows), dtype=np.float64)
        logs[rank] = EventLog.from_arrays(ts, cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], cols[:, 4])
    return Trace(logs)


@st.composite
def walk_cases(draw):
    """A trace and a dependency dict for the walk to order.

    Messages, bursts of 9 to 300 of them between two ranks (a receive run
    long enough for the walk's windows), and all four collective flavors
    over sub-communicators,
    ranks that recorded nothing in between, and — through the dict —
    constraints whose source lies earlier on the dependent's own rank.
    Events are drawn in one global order, sources first, so the
    relation is acyclic.
    """
    active = draw(st.integers(2, 5))
    # Active rank ``i`` gets id ``2 i``; some odd ids in between stay empty.
    empty = draw(st.sets(st.integers(0, active - 1), max_size=2))
    events: dict[int, list[tuple]] = {2 * i: [] for i in range(active)}
    events.update({2 * i + 1: [] for i in empty})
    pair = st.permutations(range(active)).map(lambda p: (2 * p[0], 2 * p[1]))
    members = st.sets(st.integers(0, active - 1), min_size=2).map(lambda m: sorted(2 * i for i in m))
    ops = st.one_of(
        st.tuples(st.just("local"), st.integers(0, active - 1)),
        st.tuples(st.just("message"), pair),
        st.tuples(st.just("collective"), st.sampled_from(_COLLECTIVE_MIX), members, st.integers(0, 9)),
        st.tuples(st.just("burst"), pair, st.integers(9, 300)),
    )
    for k, op in enumerate(draw(st.lists(ops, max_size=20))):
        if op[0] == "local":
            events[2 * op[1]].append((EventType.ENTER, 1, 0, 0, 0))
        elif op[0] in ("message", "burst"):
            src, dst = op[1]
            for i in range(op[2] if op[0] == "burst" else 1):
                # One match id per message: i < 1000 for every op k.
                events[src].append((EventType.SEND, dst, 0, 64, k * 1000 + i))
                events[dst].append((EventType.RECV, src, 0, 64, k * 1000 + i))
        else:
            _, coll, ranks, pick = op
            root = ranks[pick % len(ranks)]
            for etype in (EventType.COLL_ENTER, EventType.COLL_EXIT):
                for rank in ranks:
                    events[rank].append((etype, int(coll), root, len(ranks), k))
    trace = _trace_of(events)
    deps = build_dependencies(trace)
    for rank, lo, hi in draw(st.lists(st.tuples(st.sampled_from(sorted(events)),
                                                st.integers(0, 40), st.integers(0, 40)), max_size=4)):
        n = len(events[rank])
        if n >= 2 and lo % n != hi % n:
            lo, hi = sorted((lo % n, hi % n))
            deps.setdefault((rank, hi), []).append((rank, lo))
    return trace, deps


class TestCursorWalk:
    @given(walk_cases())
    def test_order_is_valid(self, case):
        trace, deps = case
        assert_topo_matches_replay(trace)  # the standard relation
        assert_topo_matches_replay(trace, deps)  # ... plus same-rank sources
        schedule = CompiledSchedule.from_dependencies(trace, deps)
        walk = schedule.walk()
        assert walk[2] == schedule.n_edges
        with mock.patch.object(schedule_module, "HEAD", 1 << 40):  # no windows
            assert schedule.walk() == walk

    @given(walk_cases(), st.integers(0, 10_000))
    def test_cycle_raises_incomplete(self, case, pick):
        trace, deps = case
        edges = [(dst, src) for dst, sources in deps.items() for src in sources]
        if not edges:
            return
        dst, src = edges[pick % len(edges)]
        deps.setdefault(src, []).append(dst)  # the source now waits for its dependent
        with pytest.raises(SynchronizationError, match="incomplete"):
            CompiledSchedule.from_dependencies(trace, deps)

    def test_early_wake_is_caught(self, monkeypatch):
        # benchmarks/check_oracles.py's sixth mutant: rank 1 may take its
        # receive (source: rank 2's first event, "done" one event early)
        # before rank 2 has run at all.
        trace = _trace_of({
            0: [(EventType.RECV, 1, 0, 64, 0)],
            1: [(EventType.RECV, 2, 0, 64, 1), (EventType.SEND, 0, 0, 64, 0)],
            2: [(EventType.SEND, 1, 0, 64, 1)],
        })
        assert_topo_matches_replay(trace)
        monkeypatch.setattr(schedule_module, "walk", _early_wake)
        with pytest.raises(OracleViolation, match="before its source"):
            assert_topo_matches_replay(fresh := Trace(dict(trace.logs)))
        assert fresh.compiled_schedule().topo_refs()[0] == (1, 0)

    def test_n_to_n_checks_every_edge_once(self):
        # 256 ranks, three barriers: every exit waits for 255 enters, but
        # a barrier is one block, whose enters pass a check once for all
        # of its exits; a check fails at most once per exit and per wake
        # of the block (each wake passes at least one enter).
        n = 256
        rows = [(etype, int(CollectiveOp.BARRIER), 0, n, k)
                for k in range(3) for etype in (EventType.COLL_ENTER, EventType.COLL_EXIT)]
        schedule = _trace_of({rank: rows for rank in range(n)}).compiled_schedule()
        assert (schedule.n_edges, schedule.n_blocks) == (0, 3)
        steps, _, checks = schedule.walk()
        assert checks <= 3 * (3 * n)
        assert len(steps) <= 4 * n  # a rank is visited once per barrier, and once to finish

    def test_waiting_ranks_are_not_polled(self):
        # Ranks 2..255 wait for rank 0, which first plays 200 rounds of
        # ping-pong with rank 1: a walk that re-examined blocked ranks
        # on every visit would make ~100k checks for these ~650 edges.
        n, rounds = 256, 200
        events: dict[int, list[tuple]] = {rank: [] for rank in range(n)}
        for k in range(rounds):
            events[0].append((EventType.SEND, 1, 0, 64, 2 * k))
            events[1].append((EventType.RECV, 0, 0, 64, 2 * k))
            events[1].append((EventType.SEND, 0, 0, 64, 2 * k + 1))
            events[0].append((EventType.RECV, 1, 0, 64, 2 * k + 1))
        for rank in range(2, n):
            events[0].append((EventType.SEND, rank, 0, 64, 2 * rounds + rank))
            events[rank].append((EventType.RECV, 0, 0, 64, 2 * rounds + rank))
        trace = _trace_of(events)
        assert_topo_matches_replay(trace)
        schedule = trace.compiled_schedule()
        assert schedule.n_edges == 2 * rounds + n - 2
        steps, _, checks = schedule.walk()
        assert checks <= schedule.n_edges + len(steps)
        assert len(steps) <= 2 * rounds + n


#: Ready receives a visit passes before it meets the case under test: the
#: head, then a 64- and a 256-edge window; the meet lies in the third.
_RUN = schedule_module.HEAD + 64 + 256


def _window_trace(rank1: list[tuple], rank2: list[tuple], barrier: bool = False) -> Trace:
    """Rank 0 sends ``_RUN + 5`` messages to rank 1, then 20 more; rank 1
    receives them with ``rank1`` in between, rank 2 records ``rank2``.
    ``barrier`` puts one barrier over all three ranks there instead:
    rank 1's exit is then its dependent at the meet.  The walk visits
    rank 0 (sends only) to its end first, so rank 1's first visit passes
    every receive before the meet."""
    head, tail = _RUN + 5, 20
    events: dict[int, list[tuple]] = {0: [], 1: [], 2: list(rank2)}
    for k in range(head + tail):
        events[0].append((EventType.SEND, 1, 0, 64, k))
        events[1].append((EventType.RECV, 0, 0, 64, k))
    events[1][head:head] = rank1
    if barrier:
        rows = [(etype, int(CollectiveOp.BARRIER), 0, 3, 0)
                for etype in (EventType.COLL_ENTER, EventType.COLL_EXIT)]
        events[0] += rows
        events[1][head:head] = rows
        events[2][:0] = rows
    return _trace_of(events)


#: Rank 1's receive from rank 2 sits behind ``_RUN + 5`` ready receives,
#: and rank 2 has not run when rank 1's first visit meets it.
_REMOTE_LATE = ([(EventType.RECV, 2, 0, 64, 999)], [(EventType.SEND, 1, 0, 64, 999)])


class TestWalkWindows:
    """Visits long enough for :func:`first_waiting`'s windows.

    No POP visit passes 5 dependents, so these hand-built traces are
    what reaches the windows: each passes ``_RUN`` ready receives and
    then meets the case named.  The walk must be the one-at-a-time walk
    (every window start moved past the end gives the same steps,
    cursors and checks) and a valid replay order.
    """

    @staticmethod
    def walk(schedule, monkeypatch, stops=None):
        """The walk, checked against the one-at-a-time walk; ``stops``
        collects where each window search stopped, relative to its start."""
        real = schedule_module.first_waiting

        def spy(wait, rank, cursor, lo, hi):
            at = real(wait, rank, cursor, lo, hi)
            if stops is not None:
                stops.append(at - lo if at < hi else None)
            return at

        with monkeypatch.context() as patch:
            patch.setattr(schedule_module, "first_waiting", spy)
            got = schedule.walk()
        with monkeypatch.context() as patch:
            patch.setattr(schedule_module, "HEAD", 1 << 40)
            assert schedule.walk() == got
        return got

    def test_remote_source_not_yet_done(self, monkeypatch):
        trace = _window_trace(*_REMOTE_LATE)
        assert_topo_matches_replay(trace)
        schedule = trace.compiled_schedule()
        stops = []
        _, cursors, checks = self.walk(schedule, monkeypatch, stops)
        assert checks == schedule.n_edges
        # rank 1's first visit: windows of 64 and 256 pass, the third stops
        assert stops[0] == _RUN + 5 - schedule_module.HEAD
        assert cursors == schedule.offsets[1:].tolist()

    def test_block_exit(self, monkeypatch):
        trace = _window_trace([], [], barrier=True)
        assert_topo_matches_replay(trace)
        schedule = trace.compiled_schedule()
        assert schedule.n_blocks == 1
        stops = []
        steps, _, checks = self.walk(schedule, monkeypatch, stops)
        # The windows run to the exit, not past it: rank 1's first visit ends there.
        assert stops[0] is None
        rank, start, _, first, stop = steps[1]
        assert (rank, start, stop - first) == (1, schedule.offsets[1], _RUN + 5)
        # The dense twin has no blocks: every check is an edge's, once.
        dense = CompiledSchedule.from_dependencies(trace, build_dependencies(trace))
        assert self.walk(dense, monkeypatch)[2] == dense.n_edges

    def test_same_rank_source_earlier(self, monkeypatch):
        trace = _window_trace([(EventType.ENTER, 1, 0, 0, 0)], [])
        deps = build_dependencies(trace)
        # Both sources lie past the head, ahead of where the visit's own
        # cursor stood when the windows began.
        deps[(1, _RUN + 5)] = [(1, _RUN + 2)]  # a local event after its own earlier receive
        deps[(1, _RUN - 1)].append((1, _RUN - 3))  # a receive with a second, own source
        assert_topo_matches_replay(trace, deps)
        schedule = CompiledSchedule.from_dependencies(trace, deps)
        stops = []
        _, cursors, checks = self.walk(schedule, monkeypatch, stops)
        assert checks == schedule.n_edges
        assert stops and set(stops) == {None}  # no window stops: both are ready
        assert cursors == schedule.offsets[1:].tolist()

    def test_same_rank_source_later_is_incomplete(self, monkeypatch):
        trace = _window_trace([(EventType.ENTER, 1, 0, 0, 0)], [])
        deps = build_dependencies(trace)
        deps[(1, _RUN + 5)] = [(1, _RUN + 10)]  # waits for its own future
        with pytest.raises(SynchronizationError, match="incomplete"):
            CompiledSchedule.from_dependencies(trace, deps)
        with monkeypatch.context() as patch:
            patch.setattr(schedule_module, "HEAD", 1 << 40)
            with pytest.raises(SynchronizationError, match="incomplete"):
                CompiledSchedule.from_dependencies(trace, deps)

    def test_early_wake_in_a_window_is_caught(self, monkeypatch):
        # The sixth mutant where only a window can go wrong: every source
        # of the head lies far behind rank 0's cursor, and the one awaited
        # source, rank 2's first event, is "done" one event early.
        trace = _window_trace(*_REMOTE_LATE)
        monkeypatch.setattr(schedule_module, "walk", _early_wake)
        with pytest.raises(OracleViolation, match=rf"runs \(1, {_RUN + 5}\) before its source \(2, 0\)"):
            assert_topo_matches_replay(trace)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def assert_blocks_match_dense(trace: Trace, lmin=0.0) -> CompiledSchedule:
    """Every kernel on ``trace``'s block schedule == on its pair expansion.

    The dense side compiles ``build_dependencies`` (every N-to-N and
    prefix pair an edge) with the same kernels, so a difference is the
    blocks' doing.  Returns the block schedule.
    """
    blocks = trace.compiled_schedule()
    dense = CompiledSchedule.from_dependencies(trace, build_dependencies(trace))
    assert dense.n_blocks == 0
    orig = blocks.flatten({r: trace.logs[r].timestamps for r in trace.ranks})
    for gamma in (0.99, 1.0, None):
        got = forward_pass(blocks, orig, blocks.edge_lmin(lmin), gamma)
        want = forward_pass(dense, orig, dense.edge_lmin(lmin), gamma)
        assert _bits(got[0]) == _bits(want[0]), gamma
        # Every block exit lands; its dense twin only where it can bind.
        assert got[1:5] == want[1:5] and got[5] >= want[5], gamma
        caps = send_caps_kernel(blocks, got[0], blocks.edge_lmin(lmin))
        assert _bits(caps) == _bits(send_caps_kernel(dense, want[0], dense.edge_lmin(lmin)))
    for kernel in (lamport_kernel, vector_kernel):
        got, want = kernel(blocks), kernel(dense)
        assert all(np.array_equal(got[r], want[r]) for r in trace.ranks), kernel.__name__
    assert bsp_rounds(blocks) == bsp_rounds(dense)
    return blocks


def _collective_trace(op, enters, exits, rounds: int = 1) -> Trace:
    """Rank ``i`` enters at ``enters[i]`` and exits at ``exits[i]``, ``rounds``
    instances of ``op`` over all ranks (root 0) back to back."""
    n = len(enters)
    logs = {}
    for rank, stamps in enumerate(zip(enters, exits)):
        ts = np.array(stamps * rounds, dtype=np.float64)
        et = np.tile([int(EventType.COLL_ENTER), int(EventType.COLL_EXIT)], rounds)
        inst = np.repeat(np.arange(rounds), 2)
        zeros = np.zeros(ts.size, dtype=np.int64)
        logs[rank] = EventLog.from_arrays(ts, et, np.full(ts.size, int(op)), zeros,
                                          np.full(ts.size, n), inst)
    return Trace(logs)


_STAMPS = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 1e-300, float("nan")])


class TestBlocks:
    """Collective instances as blocks, every flavor: the dense expansion's bits."""

    def test_pop_sized_trace_compiles_to_blocks(self):
        trace = _collective_trace(CollectiveOp.ALLREDUCE, [0.0] * 16, [1.0] * 16, rounds=3)
        schedule = assert_blocks_match_dense(trace)
        assert (schedule.n_edges, schedule.n_blocks) == (0, 3)
        assert schedule.dep_gids.size == 3 * 16  # every exit, no pair

    def test_signed_zero_tie_keeps_the_lower_sender(self):
        # l_min = -0.0 keeps each sum's sign: exit 2 sees -0.0 (rank 0)
        # and +0.0 (rank 1) and the first binds; exit 1 sees -0.0 only.
        trace = _collective_trace(CollectiveOp.BARRIER, [-0.0, 0.0, -5.0], [-1.0] * 3)
        assert_blocks_match_dense(trace, lmin=-0.0)
        got = ControlledLogicalClock(amortization_window=0.0).correct(trace, lmin=-0.0).trace
        exits = [got.logs[r].timestamps[1] for r in trace.ranks]
        assert exits == [0.0, 0.0, 0.0]
        assert np.signbit(exits).tolist() == [False, True, True]

    def test_signed_zero_caps_tie_keeps_the_last_receiver(self):
        # np.minimum.at keeps the later of equal caps: enter 0 gets
        # rank 2's +0.0, enter 2 rank 1's -0.0.
        trace = _collective_trace(CollectiveOp.BARRIER, [-10.0] * 3, [0.0, -0.0, 0.0])
        schedule = assert_blocks_match_dense(trace)
        orig = schedule.flatten({r: trace.logs[r].timestamps for r in trace.ranks})
        caps = send_caps_kernel(schedule, orig, schedule.edge_lmin(0.0))[schedule.b_enter]
        assert caps.tolist() == [0.0] * 3
        assert np.signbit(caps).tolist() == [False, False, True]

    def test_nan_floor_never_binds(self):
        trace = _collective_trace(CollectiveOp.BARRIER, [0.0, float("nan"), 3.0], [-1.0] * 3)
        assert_blocks_match_dense(trace)
        got = ControlledLogicalClock(amortization_window=0.0).correct(trace).trace
        assert [got.logs[r].timestamps[1] for r in trace.ranks] == [3.0, 3.0, 0.0]

    def test_nan_receive_poisons_caps_like_the_scatter(self):
        trace = _collective_trace(CollectiveOp.BARRIER, [-10.0] * 3, [0.0, float("nan"), 1.0])
        assert_blocks_match_dense(trace)

    def test_own_enter_latest_takes_the_runner_up(self):
        trace = _collective_trace(CollectiveOp.ALLREDUCE, [1.0, 2.0, 3.0], [0.5] * 3)
        assert_blocks_match_dense(trace)
        got = ControlledLogicalClock(amortization_window=0.0).correct(trace).trace
        assert [got.logs[r].timestamps[1] for r in trace.ranks] == [3.0, 3.0, 2.0]

    def test_single_member_instance_is_no_block(self):
        trace = _collective_trace(CollectiveOp.BARRIER, [1.0], [0.0], rounds=2)
        schedule = assert_blocks_match_dense(trace)
        assert (schedule.n_blocks, schedule.dep_gids.size) == (0, 0)

    def test_prefix_waits_for_lower_members_only(self):
        trace = _collective_trace(CollectiveOp.SCAN, [4.0, 1.0, 3.0, 2.0], [5.0, 1.5, 3.5, 2.5])
        schedule = assert_blocks_match_dense(trace)
        assert schedule.n_blocks == 1 and (schedule.b_need - schedule.b_lo).tolist() == [0, 1, 2, 3]
        assert schedule.dep_gids.size == 3  # member 0's exit waits for nobody
        got = ControlledLogicalClock(amortization_window=0.0).correct(trace).trace
        assert [got.logs[r].timestamps[1] for r in trace.ranks] == [5.0, 4.0, 4.0, 4.0]

    @pytest.mark.parametrize("op, pairs", [
        (CollectiveOp.BARRIER, 6), (CollectiveOp.SCAN, 3),
        (CollectiveOp.REDUCE, 2), (CollectiveOp.BCAST, 2),
    ])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_backward_member_stays_pairs(self, op, pairs, rank):
        # ``rank`` exits before it enters.  A barrier member, or the root
        # of a reduce (rank 0), would wait on its own enter in one block,
        # so the instance becomes one block per receiver: its senders in
        # member order, then itself, reading the slots before it.  A scan
        # or bcast exit never reads its own enter, nor does a reduce
        # member other than the root: one plain block.  Either way the
        # blocks hold the instance's ``pairs`` pair constraints, no edge.
        trace = _collective_trace(op, [0.0] * 3, [1.0] * 3)
        log = trace.logs[rank]
        swapped = EventLog.from_arrays(log.timestamps, log.etypes[::-1], log.a, log.b, log.c, log.d)
        trace = Trace({**trace.logs, rank: swapped})
        schedule = assert_blocks_match_dense(trace)
        lo, need = schedule.b_lo, schedule.b_need
        slot = np.arange(lo.size)
        assert schedule.n_edges == 0
        assert int((need - lo).sum() - ((lo <= slot) & (slot < need)).sum()) == pairs
        if op is CollectiveOp.BARRIER or (op is CollectiveOp.REDUCE and rank == 0):
            receivers = [0, 1, 2] if op is CollectiveOp.BARRIER else [0]
            order = [r for x in receivers for r in [*(m for m in (0, 1, 2) if m != x), x]]
            assert schedule.b_rank.tolist() == order
            assert (need - lo).tolist() == [0, 0, 2] * len(receivers)
        else:
            assert schedule.n_blocks == 1 and schedule.b_rank.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_pair_lmin_takes_the_matrix_path(self, seed):
        trace = random_trace(seed)
        nr = len(trace.ranks)
        matrix = np.random.default_rng(seed + 7).uniform(0.0, 2e-3, size=(nr, nr))
        assert trace.compiled_schedule().n_blocks > 0
        assert_blocks_match_dense(trace, lmin=matrix)
        assert_blocks_match_dense(trace, lmin=lambda s, d: 1e-4 * (s + 2 * d) - 2e-4)

    @given(
        st.sampled_from([CollectiveOp.BARRIER, CollectiveOp.ALLREDUCE, CollectiveOp.SCAN,
                         CollectiveOp.BCAST, CollectiveOp.SCATTER, CollectiveOp.REDUCE,
                         CollectiveOp.GATHER]),
        st.lists(st.tuples(_STAMPS, _STAMPS), min_size=1, max_size=5),
        st.sampled_from([0.0, -0.0, 1.0, "matrix"]),
    )
    def test_ties_and_nans_match_dense(self, op, stamps, lmin):
        enters, exits = zip(*stamps)
        trace = _collective_trace(op, enters, exits, rounds=2)
        if lmin == "matrix":
            lmin = np.array([[-0.0, 0.0, 1.0, -1.0, 0.0][(i + j) % 5] for j in range(5)
                             for i in range(5)]).reshape(5, 5)
        assert_blocks_match_dense(trace, lmin=lmin)

    def test_dropped_member_is_caught_by_lamport_and_vector(self, monkeypatch):
        # benchmarks/check_oracles.py's tenth mutant, against the integer
        # kernels alone: rank 2's enter is the only late one.
        from repro.sync.collectives_map import CollectiveBlocks

        real = schedule_module.collective_constraints

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

        events = {0: [], 1: [], 2: []}
        events[2] += [(EventType.ENTER, 1, 0, 0, 0)] * 3
        for rank in events:
            events[rank] += [(etype, int(CollectiveOp.BARRIER), 0, 3, 0)
                             for etype in (EventType.COLL_ENTER, EventType.COLL_EXIT)]
        assert_logical_clocks_match_reference(_trace_of(events))
        monkeypatch.setattr(schedule_module, "collective_constraints", dropped)
        trace = _trace_of(events)
        schedule = trace.compiled_schedule()
        for kernel, reference in (
            (lamport_kernel, lamport_clocks_reference),
            (vector_kernel, vector_clocks_reference),
        ):
            got, want = kernel(schedule), reference(trace)
            assert not all(np.array_equal(got[r], want[r]) for r in trace.ranks), kernel.__name__


def _stamped_trace(rows: dict[int, list[tuple]]) -> Trace:
    """``{rank: [(t, etype, a, b, c, d), ...]}`` -> a trace with those stamps."""
    logs = {}
    for rank, events in rows.items():
        log = EventLog()
        for t, etype, *cols in events:
            log.append(t, etype, *cols)
        logs[rank] = log
    return Trace(logs)


_S, _R, _E = EventType.SEND, EventType.RECV, EventType.ENTER

#: Traces that drive the forward pass's skip path, where a receive whose
#: input floor does not bind is landed only if its send moved, and the
#: ``l_min`` each is corrected under.
SKIP_PATH_CASES = {
    # Rank 1's reversed receive jumps and glides its two sends forward;
    # rank 2's receives of them have floors that bind only after the
    # move (9.5) or not even then (20.0).
    "relay": ({
        0: [(10.0, _S, 1, 0, 0, 0)],
        1: [(9.0, _R, 0, 0, 0, 0), (9.1, _E, 1), (9.2, _S, 2, 0, 0, 1), (9.3, _S, 2, 0, 0, 2)],
        2: [(9.5, _R, 1, 0, 0, 1), (20.0, _R, 1, 0, 0, 2), (20.1, _E, 1)],
    }, 1e-6),
    # Rank 0 jumps, then sends itself nine messages 1.005 us long: l_min
    # = 1 us binds none on the input stamps, but under γ = 0.99 every
    # receive glides 1 % less far than its send, and each binds.  The
    # ten receives are one step, and the own sends move only inside it,
    # after the step's check of its sources: the own-rank rule lands them.
    "self-message": ({
        0: [(2.0, _R, 1, 0, 0, 0)] + [
            row for k in range(1, 10)
            for row in ((2.0 + 0.1 * k, _S, 0, 0, 0, k), (2.0 + 0.1 * k + 1.005e-6, _R, 0, 0, 0, k))
        ],
        1: [(3.0, _S, 0, 0, 0, 0)],
    }, 1e-6),
    # Rank 2's messages have a NaN l_min: a NaN floor never binds, inside
    # rank 1's glide (9.05) or above the receive's stamp (12.0 > 9.2).
    "nan-floor": ({
        0: [(10.0, _S, 1, 0, 0, 0)],
        1: [(9.0, _R, 0, 0, 0, 0), (9.05, _R, 2, 0, 0, 1), (9.1, _E, 1), (9.2, _R, 2, 0, 0, 2)],
        2: [(9.07, _S, 1, 0, 0, 1), (12.0, _S, 1, 0, 0, 2)],
    }, lambda s, d: float("nan") if s == 2 else 1e-6),
}


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
        trace = random_trace(seed)
        deps = build_dependencies(trace, include_collectives=False)
        assert_dependency_clc_matches_reference(trace, deps, lmin=1e-6)

    def test_bit_identical_custom_dependency_dict(self):
        # An explicit constraint set that build_dependencies would never
        # produce.
        trace = random_trace(3)
        deps = build_dependencies(trace, include_collectives=False)
        lens = {r: len(trace.logs[r]) for r in trace.ranks}
        deps.setdefault((1, lens[1] - 1), []).append((0, 0))
        deps.setdefault((3, lens[3] - 1), []).extend([(0, 0), (2, 0)])
        assert_dependency_clc_matches_reference(trace, deps, lmin=1e-6)

    @pytest.mark.parametrize("case", sorted(SKIP_PATH_CASES))
    @pytest.mark.parametrize("gamma", [1.0, 0.99])
    @pytest.mark.parametrize("window", [0.0, None])
    def test_skip_path_bit_identical(self, case, gamma, window):
        rows, lmin = SKIP_PATH_CASES[case]
        trace = _stamped_trace(rows)
        assert_clc_matches_reference(trace, lmin=lmin, gamma=gamma, window=window)
        assert_naive_matches_reference(trace, lmin=lmin)

    @pytest.mark.parametrize("case, lands", [("relay", 3), ("self-message", 10), ("nan-floor", 1)])
    def test_skip_path_lands_what_can_bind(self, case, lands):
        # relay: the reversed receive and both receives of a moved send;
        # self-message: every receive; nan-floor: the reversed one.
        rows, lmin = SKIP_PATH_CASES[case]
        trace = _stamped_trace(rows)
        schedule = trace.compiled_schedule()
        orig = schedule.flatten({r: trace.logs[r].timestamps for r in trace.ranks})
        assert forward_pass(schedule, orig, schedule.edge_lmin(lmin), 0.99)[5] == lands

    def test_dependency_target_with_one_moved_source(self):
        # Rank 2's last event waits for rank 0's unmoved send and rank 1's
        # moved one; its input floor does not bind, so the pass lands it
        # for the second source and reads the first at its input stamp.
        trace = _stamped_trace(SKIP_PATH_CASES["relay"][0])
        deps = build_dependencies(trace, include_collectives=False)
        deps[(2, 2)] = [(0, 0), (1, 2)]
        assert_dependency_clc_matches_reference(trace, deps, lmin=1e-6)
        schedule = CompiledSchedule.from_dependencies(trace, deps)
        orig = schedule.flatten({r: trace.logs[r].timestamps for r in trace.ranks})
        assert forward_pass(schedule, orig, schedule.edge_lmin(1e-6), 0.99)[5] == 4

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_streamed_lands_what_inmemory_lands(self, seed, tmp_path):
        # Both forward drivers read every collective instance as blocks:
        # they land the same dependents, and the compiled edge table
        # holds the messages only.
        from repro import TelemetryRecorder
        from repro.sync.streaming import streaming_clc_correct
        from repro.tracing.store import write_sharded_trace

        trace = random_trace(seed)
        inmem, streamed = TelemetryRecorder(), TelemetryRecorder()
        ControlledLogicalClock(telemetry=inmem).correct(trace, lmin=1e-6)
        shards = write_sharded_trace(trace, tmp_path / "s", shard_events=7)
        streaming_clc_correct(shards, tmp_path / "out", lmin=1e-6, telemetry=streamed)
        assert inmem.counters["sync.clc.lands"] == streamed.counters["sync.stream.lands"]
        assert inmem.counters["sync.schedule.edges"] == len(trace.messages(strict=False))

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
        # Lamport and vector over the message-plus-collective relation.
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
        rounds, max_queue = bsp_rounds(trace.compiled_schedule())
        assert rounds == 1
        assert max_queue == 4  # everything completes in the first round

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_round_count_bounded_by_dependency_chains(self, seed):
        trace = random_trace(seed)
        schedule = trace.compiled_schedule()
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
