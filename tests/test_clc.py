"""Tests for the controlled logical clock (repro.sync.clc)."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import examples
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SynchronizationError
from repro.sync.clc import ClcStats, ControlledLogicalClock, amortize_segment
from repro.sync.collectives_map import logical_messages
from repro.sync.violations import scan_collectives, scan_messages
from repro.telemetry import TelemetryRecorder
from repro.tracing.events import CollectiveOp, EventLog, EventType
from repro.tracing.trace import Trace


def violated_trace(lmin=1e-6):
    """Rank 0 sends at 10.0; rank 1's clock runs early: recv at 9.5."""
    log0 = EventLog()
    log0.append(9.0, EventType.ENTER, 1)
    log0.append(10.0, EventType.SEND, 1, 0, 0, 0)
    log0.append(11.0, EventType.EXIT, 1)
    log1 = EventLog()
    log1.append(8.0, EventType.ENTER, 1)
    log1.append(9.5, EventType.RECV, 0, 0, 0, 0)
    log1.append(10.5, EventType.EXIT, 1)
    log1.append(11.5, EventType.ENTER, 2)
    return Trace({0: log0, 1: log1})


class TestForwardCorrection:
    def test_restores_clock_condition(self):
        trace = violated_trace()
        lmin = 1e-6
        result = ControlledLogicalClock().correct(trace, lmin=lmin)
        rep = scan_messages(result.trace.messages(), lmin=lmin)
        assert rep.violated == 0
        assert result.jumps == 1
        assert result.max_jump == pytest.approx(0.5 + lmin, rel=1e-6)

    def test_receive_moved_to_send_plus_lmin(self):
        trace = violated_trace()
        result = ControlledLogicalClock(gamma=1.0, amortization_window=0).correct(
            trace, lmin=1e-6
        )
        recv_ts = result.trace.logs[1].timestamps[1]
        assert recv_ts == pytest.approx(10.0 + 1e-6)

    def test_following_events_dragged_forward(self):
        trace = violated_trace()
        result = ControlledLogicalClock(gamma=1.0, amortization_window=0).correct(
            trace, lmin=1e-6
        )
        ts = result.trace.logs[1].timestamps
        # Original gaps after the receive: 1.0 and 1.0; preserved at gamma=1.
        assert ts[2] - ts[1] == pytest.approx(1.0)
        assert ts[3] - ts[2] == pytest.approx(1.0)

    def test_gamma_lets_clock_glide_back(self):
        """With gamma < 1, post-jump events approach the original
        timestamps instead of staying shifted."""
        log0 = EventLog()
        log0.append(10.0, EventType.SEND, 1, 0, 0, 0)
        log1 = EventLog()
        log1.append(9.0, EventType.RECV, 0, 0, 0, 0)
        for k in range(1, 200):
            log1.append(9.0 + k * 1.0, EventType.ENTER, 1)
        trace = Trace({0: log0, 1: log1})
        result = ControlledLogicalClock(gamma=0.9, amortization_window=0).correct(
            trace, lmin=0.0
        )
        shift = result.trace.logs[1].timestamps - trace.logs[1].timestamps
        assert shift[0] == pytest.approx(1.0)
        assert shift[-1] == pytest.approx(0.0, abs=1e-9)  # fully recovered
        assert np.all(np.diff(shift) <= 1e-12)  # monotone decay

    def test_never_moves_events_backward(self):
        trace = violated_trace()
        result = ControlledLogicalClock().correct(trace, lmin=1e-6)
        for rank in trace.ranks:
            shift = result.trace.logs[rank].timestamps - trace.logs[rank].timestamps
            assert np.all(shift >= -1e-15)

    def test_clean_trace_untouched(self):
        log0 = EventLog()
        log0.append(1.0, EventType.SEND, 1, 0, 0, 0)
        log1 = EventLog()
        log1.append(1.5, EventType.RECV, 0, 0, 0, 0)
        trace = Trace({0: log0, 1: log1})
        result = ControlledLogicalClock().correct(trace, lmin=1e-6)
        assert result.jumps == 0
        assert result.corrected_events == 0
        np.testing.assert_array_equal(
            result.trace.logs[1].timestamps, trace.logs[1].timestamps
        )

    def test_local_order_preserved(self):
        trace = violated_trace()
        result = ControlledLogicalClock().correct(trace, lmin=1e-6)
        for rank in trace.ranks:
            ts = result.trace.logs[rank].timestamps
            assert np.all(np.diff(ts) >= 0)

    def test_gamma_validation(self):
        with pytest.raises(SynchronizationError):
            ControlledLogicalClock(gamma=0.0)
        with pytest.raises(SynchronizationError):
            ControlledLogicalClock(gamma=1.5)
        with pytest.raises(SynchronizationError):
            ControlledLogicalClock(amortization_window=-1.0)


class TestCollectiveCorrection:
    def test_collective_violation_repaired(self):
        logs = {}
        # Rank 1's clock is early: its exit (1.0) precedes rank 0's enter (2.0).
        for rank, (e, x) in enumerate([(2.0, 3.0), (0.5, 1.0)]):
            log = EventLog()
            log.append(e, EventType.COLL_ENTER, int(CollectiveOp.BARRIER), 0, 2, 0)
            log.append(x, EventType.COLL_EXIT, int(CollectiveOp.BARRIER), 0, 2, 0)
            logs[rank] = log
        trace = Trace(logs)
        before, _ = scan_collectives(trace, lmin=1e-7)
        assert before.violated > 0
        result = ControlledLogicalClock().correct(trace, lmin=1e-7)
        after, _ = scan_collectives(result.trace, lmin=1e-7)
        assert after.violated == 0

    def test_collectives_can_be_ignored(self):
        logs = {}
        for rank, (e, x) in enumerate([(2.0, 3.0), (0.5, 1.0)]):
            log = EventLog()
            log.append(e, EventType.COLL_ENTER, int(CollectiveOp.BARRIER), 0, 2, 0)
            log.append(x, EventType.COLL_EXIT, int(CollectiveOp.BARRIER), 0, 2, 0)
            logs[rank] = log
        trace = Trace(logs)
        result = ControlledLogicalClock(include_collectives=False).correct(
            trace, lmin=1e-7
        )
        after, _ = scan_collectives(result.trace, lmin=1e-7)
        assert after.violated > 0  # untouched by design


class TestBackwardAmortization:
    def make_trace_with_preamble(self, n_pre=20, gap=0.01):
        """Rank 1 has many local events before a violated receive."""
        log0 = EventLog()
        log0.append(10.0, EventType.SEND, 1, 0, 0, 0)
        log1 = EventLog()
        for k in range(n_pre):
            log1.append(9.0 - (n_pre - k) * gap, EventType.ENTER, 1)
        log1.append(9.0, EventType.RECV, 0, 0, 0, 0)
        return Trace({0: log0, 1: log1})

    def test_preceding_events_ramped_forward(self):
        trace = self.make_trace_with_preamble()
        with_amort = ControlledLogicalClock(gamma=1.0, amortization_window=1.0).correct(
            trace, lmin=0.0
        )
        without = ControlledLogicalClock(gamma=1.0, amortization_window=0).correct(
            trace, lmin=0.0
        )
        shift_with = with_amort.trace.logs[1].timestamps - trace.logs[1].timestamps
        shift_without = without.trace.logs[1].timestamps - trace.logs[1].timestamps
        # Without amortization nothing before the receive moves.
        assert np.all(shift_without[:-1] == 0)
        # With it, events inside the window move, increasingly toward
        # the jump, and order is preserved.
        assert shift_with[:-1].max() > 0
        ts = with_amort.trace.logs[1].timestamps
        assert np.all(np.diff(ts) >= -1e-15)

    def test_ramp_is_monotone_toward_jump(self):
        trace = self.make_trace_with_preamble()
        result = ControlledLogicalClock(gamma=1.0, amortization_window=0.5).correct(
            trace, lmin=0.0
        )
        shift = result.trace.logs[1].timestamps - trace.logs[1].timestamps
        inside = shift[:-1][shift[:-1] > 0]
        assert np.all(np.diff(inside) >= -1e-12)

    def test_send_cap_respected(self):
        """A send in the amortization window must not be pushed past its
        receive minus l_min (no new violations)."""
        lmin = 0.1
        log0 = EventLog()
        log0.append(8.95, EventType.SEND, 1, 0, 0, 1)  # 0 -> 1 (pre-window send)
        log0.append(10.0, EventType.SEND, 1, 0, 0, 0)
        log1 = EventLog()
        log1.append(8.5, EventType.ENTER, 1)
        log1.append(8.8, EventType.SEND, 0, 0, 0, 2)  # 1 -> 0 send inside window
        log1.append(9.0, EventType.RECV, 0, 0, 0, 0)  # violated (send at 10.0)
        log0b = EventLog()
        # rank 0 also receives rank 1's message shortly after it was sent.
        log0.append(10.5, EventType.RECV, 1, 0, 0, 2)
        log1.append(9.3, EventType.RECV, 0, 0, 0, 1)
        trace = Trace({0: log0, 1: log1})
        result = ControlledLogicalClock(gamma=1.0, amortization_window=5.0).correct(
            trace, lmin=lmin
        )
        rep = scan_messages(result.trace.messages(), lmin=lmin)
        assert rep.violated == 0


def dense_amortize(times, ks, js, window, caps):
    """The former ``(jumps, events)`` matrix formulation, kept as oracle.

    Every ramp is evaluated at every event of the log and both reverse
    scans visit every event; :func:`amortize_segment` must reproduce it
    bit for bit while touching only the events inside the windows.
    """
    n = times.size
    anchors = times[ks] - js
    ramp = js[:, None] * (1.0 - (anchors[:, None] - times[None, :]) / window)
    np.maximum(ramp, 0.0, out=ramp)
    np.minimum(ramp, js[:, None], out=ramp)
    for row, k in enumerate(ks.tolist()):
        ramp[row, k:] = 0.0
    allowed = ramp.max(axis=0)
    if not allowed.any():
        return times
    if caps is not None:
        np.minimum(allowed, np.maximum(caps - times, 0.0), out=allowed)
    tl = times.tolist()
    al = allowed.tolist()
    for i in range(n - 2, -1, -1):
        limit = al[i + 1] + (tl[i + 1] - tl[i])
        if al[i] > limit:
            al[i] = limit
        if al[i] < 0.0:
            al[i] = 0.0
    out = times + np.asarray(al, dtype=np.float64)
    if caps is not None:
        np.minimum(out, np.maximum(caps, times), out=out)
    ol = out.tolist()
    for i in range(n - 2, -1, -1):
        if ol[i] > ol[i + 1] >= tl[i]:
            ol[i] = ol[i + 1]
    return np.asarray(ol, dtype=np.float64)


@st.composite
def amortization_cases(draw):
    """``(times, ks, js, window, caps)`` of one rank after a forward pass.

    Small pools make the interesting coincidences likely: zero gaps,
    NTP back-steps (non-monotone logs), jumps at index 0/1 and at the
    same event, repeated jump sizes, windows from narrower than one gap
    to wider than the log (overlapping and nested ramps), and send caps
    below, at and above the event they bound.
    """
    n = draw(st.integers(1, 40))
    gap = st.sampled_from([0.0, 1e-9, 1e-3, 0.25, 1.0])
    times = np.cumsum(draw(st.lists(gap, min_size=n, max_size=n)))
    for at in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        times[at:] -= draw(st.sampled_from([1e-3, 0.6, 3.0]))
    nj = draw(st.integers(1, 5))
    index = st.integers(0, n - 1) | st.sampled_from([0, min(1, n - 1)])
    ks = np.array(draw(st.lists(index, min_size=nj, max_size=nj)), dtype=np.int64)
    size = st.sampled_from([1e-9, 0.3, 0.3, 2.0, 7.5])
    js = np.array(draw(st.lists(size, min_size=nj, max_size=nj)))
    window = draw(st.sampled_from([1e-9, 0.1, 1.0, 5.0, 1e3]))
    caps = None
    if draw(st.booleans()):
        slack = st.sampled_from([-0.1, 0.0, 1e-9, 0.05, 1.0, np.inf])
        caps = times + np.array(draw(st.lists(slack, min_size=n, max_size=n)))
    return times, ks, js, window, caps


class TestAmortizeSegment:
    @examples(300)
    @given(case=amortization_cases())
    def test_matches_dense_bit_for_bit(self, case):
        times, ks, js, window, caps = case
        want = dense_amortize(times, ks, js, window, caps)
        got, _ = amortize_segment(times, (ks, js, times[ks]), window, caps)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "times, ks, js, window",
        [
            # Event 1 is reached by no ramp and sits between two that
            # are: event 0's advance is limited by the gap to its
            # unmoved neighbour, not by event 2's advance.
            ([0.0, 1.0, 2.0, 3.0], [1, 3], [2.0, 0.3], 1.0),
            # 0.07 + (0.9 - 0.07) rounds one ulp above 0.9: the summed
            # output is re-clamped against the unmoved neighbour's time.
            ([0.07, 0.9, 1.5], [1], [5.0], 100.0),
            # Nested windows, same jump size twice, jump at index 0.
            ([0.0, 0.5, 1.0, 1.5, 2.0, 2.5], [0, 3, 5, 5], [1.0, 0.4, 0.4, 3.0], 2.0),
            # Back-step inside the window of a later jump.
            ([0.0, 1.0, 2.0, 0.5, 1.5, 2.5], [5], [4.0], 3.0),
        ],
    )
    def test_pinned_cases_match_dense(self, times, ks, js, window):
        times = np.array(times)
        ks = np.array(ks)
        js = np.array(js)
        want = dense_amortize(times, ks, js, window, None)
        got, _ = amortize_segment(times, (ks, js, times[ks]), window)
        assert (want != times).any()
        assert got.tobytes() == want.tobytes()

    @examples(300)
    @given(case=amortization_cases(), data=st.data())
    def test_any_split_with_carries_equals_one_segment(self, case, data):
        times, ks, js, window, caps = case
        n = times.size
        whole, _ = amortize_segment(times, (ks, js, times[ks]), window, caps)
        cuts = data.draw(st.lists(st.integers(0, n), max_size=4))
        bounds = sorted({0, n, *cuts})
        parts, carry = [], None
        for a, b in reversed(list(zip(bounds[:-1], bounds[1:]))):
            out, carry = amortize_segment(
                times[a:b], (ks - a, js, times[ks]), window,
                None if caps is None else caps[a:b], carry,
            )
            parts.append(out)
        assert np.concatenate(parts[::-1]).tobytes() == whole.tobytes()

    def test_cost_follows_the_window(self):
        """One jump with a 5-event window at the end of a 10k-event log
        evaluates and scans those events only, and returns the input
        itself when no ramp reaches anything."""
        times = np.arange(10_000, dtype=np.float64)
        ks = np.array([9_999])
        js = np.array([0.5])
        rec = TelemetryRecorder()
        out, _ = amortize_segment(times, (ks, js, times[ks]), 5.0, telemetry=rec)
        want = dense_amortize(times, ks, js, 5.0, None)
        assert out.tobytes() == want.tobytes()
        assert np.flatnonzero(out != times).tolist() == [9_994, 9_995, 9_996, 9_997, 9_998]
        assert rec.counters["sync.clc.amortize_pairs"] <= 6
        assert rec.counters["sync.clc.amortize_scanned"] == 5
        head = times[:100]
        same, carry = amortize_segment(head, (ks, js, times[ks]), 5.0)
        assert same is head
        assert carry == (0.0, 0.0, 0.0)


class TestClcStats:
    @given(
        st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=40),
        st.lists(st.floats(0.0, 1e-4), min_size=40, max_size=40),
        st.lists(st.integers(0, 40), max_size=6),
    )
    def test_any_split_into_segments_is_the_whole_rank(self, gaps, shifts, cuts):
        """Fed shard by shard (empty shards included) the accumulator
        reports what it reports for the whole log — the interval across
        every boundary is counted once — and a new rank starts afresh."""
        original = np.cumsum(gaps)
        corrected = original + np.asarray(shifts[: original.size])
        other = (np.array([0.0, 5.0]), np.array([4.0, 5.0]))
        whole, pieces = ClcStats(), ClcStats()
        for stats in (whole, pieces):
            stats.add(*other)
        whole.add(original, corrected)
        bounds = [0, *sorted(min(c, original.size) for c in cuts), original.size]
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            pieces.add(original[lo:hi], corrected[lo:hi], continues=k > 0)
        for field in ("corrected_events", "max_shift", "interval_distortion",
                      "max_interval_growth"):
            assert getattr(pieces, field) == getattr(whole, field), field

    @staticmethod
    def full_pass(segments) -> tuple:
        """The four statistics by the formula that reads every event and
        interval: ``(original, corrected, continues)`` segments in order."""
        count, fields, last = 0, [0.0, 0.0, 0.0], None

        def intervals(o, c):
            if o.size > 1:
                change = np.abs(np.diff(c) - np.diff(o))
                fields[2] = max(fields[2], float(change.max()))
                rel = change / np.maximum(np.diff(o), 1e-6)
                fields[1] = max(fields[1], float(rel.max()))

        for o, c, continues in segments:
            last = last if continues else None
            if not o.size:
                continue
            shift = c - o
            count += int(np.count_nonzero(shift > 1e-15))
            fields[0] = max(fields[0], float(shift.max()))
            if last is not None:
                intervals(np.append(last[0], o[0]), np.append(last[1], c[0]))
            last = (o[-1], c[-1])
            intervals(o, c)
        return (count, *fields)

    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-7, 1e308, -1e308, 1.7e308,
                                  float("inf"), -float("inf"), float("nan")]),
                 min_size=1, max_size=12),
        st.lists(st.sampled_from([0.0, 0.0, 0.0, 1e-9, 2.0, -1.0, 1e308, float("inf"),
                                  float("nan")]), min_size=12, max_size=12),
        st.lists(st.integers(0, 12), max_size=3),
    )
    @example([1e308, 1e308, 1.5e308], [0.0, 1e-9, 0.0] + [0.0] * 9, [])
    @example([-1e308, 0.0, 1e308], [0.0, 0.0, 0.0] + [0.0] * 9, [1])
    @example([1.0, float("nan"), 2.0], [0.0, 0.0, 1.0] + [0.0] * 9, [2])
    @example([1.0, float("inf"), float("inf")], [1.0, 0.0, 0.0] + [0.0] * 9, [])
    def test_reads_only_moved_events_with_the_full_pass_result(self, stamps, shifts, cuts):
        """Extreme, NaN and infinite stamps, whole and split with
        ``continues=True``: the moved-events formula reports what
        reading every event and interval reports, bit for bit."""
        original = np.array(stamps)
        corrected = original + np.asarray(shifts[: original.size])
        bounds = [0, *sorted(min(c, original.size) for c in cuts), original.size]
        split = [(original[lo:hi], corrected[lo:hi], k > 0)
                 for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        with np.errstate(all="ignore"):
            for segments in ([(original, corrected, False)], split):
                stats = ClcStats()
                for o, c, continues in segments:
                    stats.add(o, c, continues=continues)
                got = (stats.corrected_events, stats.max_shift, stats.interval_distortion,
                       stats.max_interval_growth)
                want = self.full_pass(segments)
                assert [repr(x) for x in got] == [repr(x) for x in want]


class TestClcProperty:
    @examples(15)
    @given(seed=st.integers(0, 2**16), rounds=st.integers(2, 8))
    def test_random_traces_fully_repaired(self, seed, rounds):
        """Against arbitrary sparse traffic with badly drifting clocks,
        the corrected trace always satisfies the clock condition and
        keeps every rank's event order."""
        from repro.cluster import inter_node, xeon_cluster
        from repro.mpi import MpiWorld
        from repro.workloads import SparseConfig, sparse_worker

        preset = xeon_cluster()
        world = MpiWorld(
            preset,
            inter_node(preset.machine, 4),
            timer="mpi_wtime",  # the nastiest clocks
            seed=seed,
            duration_hint=30.0,
        )
        run = world.run(
            sparse_worker(SparseConfig(rounds=rounds), seed=seed), measure_offsets=False
        )
        lmin = 1e-7
        result = ControlledLogicalClock().correct(run.trace, lmin=lmin)
        assert scan_messages(result.trace.messages(), lmin=lmin).violated == 0
        coll_rep, _ = scan_collectives(result.trace, lmin=lmin)
        assert coll_rep.violated == 0
        for rank in result.trace.ranks:
            ts = result.trace.logs[rank].timestamps
            assert np.all(np.diff(ts) >= -1e-15)
            shift = ts - run.trace.logs[rank].timestamps
            assert np.all(shift >= -1e-15)
