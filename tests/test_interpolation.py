"""Tests for offset alignment and linear interpolation (repro.sync.interpolation)."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import examples
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SynchronizationError
from repro.sync.interpolation import (
    ClockCorrection,
    align_offsets,
    identity_correction,
    linear_interpolation,
    piecewise_interpolation,
)
from repro.sync.offset import OffsetMeasurement
from repro.tracing.events import EventLog, EventType
from repro.tracing.trace import Trace


def meas(worker, w, o):
    return OffsetMeasurement(worker=worker, worker_time=w, offset=o, rtt=1e-5, repeats=10)


class TestClockCorrection:
    def test_identity_maps_unchanged(self):
        corr = identity_correction()
        ts = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(corr.apply_rank(5, ts), ts)

    def test_master_always_identity(self):
        corr = ClockCorrection({0: (np.array([0.0]), np.array([99.0]))}, master=0)
        np.testing.assert_array_equal(corr.apply_rank(0, np.array([1.0])), [1.0])

    def test_single_knot_constant_offset(self):
        corr = ClockCorrection({1: (np.array([10.0]), np.array([0.5]))})
        np.testing.assert_allclose(corr.apply_rank(1, np.array([0.0, 100.0])), [0.5, 100.5])

    def test_two_knot_equation3(self):
        # Eq. 3: m(t) = t + (o2-o1)/(w2-w1) * (t-w1) + o1
        w1, o1, w2, o2 = 0.0, 1e-3, 100.0, 3e-3
        corr = ClockCorrection({1: (np.array([w1, w2]), np.array([o1, o2]))})
        for t in (0.0, 37.0, 100.0, 150.0, -10.0):
            expected = t + (o2 - o1) / (w2 - w1) * (t - w1) + o1
            assert corr.apply_rank(1, np.array([t]))[0] == pytest.approx(expected)

    def test_extrapolation_uses_end_slopes(self):
        w = np.array([0.0, 10.0, 20.0])
        o = np.array([0.0, 1.0, 1.0])  # slope 0.1 then 0
        corr = ClockCorrection({1: (w, o)})
        assert corr.offset_model(1, -10.0) == pytest.approx(-1.0)
        assert corr.offset_model(1, 30.0) == pytest.approx(1.0)

    def test_drift_rate(self):
        corr = ClockCorrection({1: (np.array([0.0, 100.0]), np.array([0.0, 1e-4]))})
        assert corr.drift_rate(1) == pytest.approx(1e-6)
        assert corr.drift_rate(0) == 0.0

    def test_rejects_malformed_knots(self):
        with pytest.raises(SynchronizationError):
            ClockCorrection({1: (np.array([1.0, 0.5]), np.array([0.0, 0.0]))})
        with pytest.raises(SynchronizationError):
            ClockCorrection({1: (np.array([]), np.array([]))})

    def test_apply_to_trace(self):
        log0 = EventLog()
        log0.append(1.0, EventType.ENTER, a=1)
        log1 = EventLog()
        log1.append(1.0, EventType.ENTER, a=1)
        trace = Trace({0: log0, 1: log1})
        corr = ClockCorrection({1: (np.array([0.0]), np.array([0.25]))})
        out = corr.apply(trace)
        assert out.logs[1][0].timestamp == pytest.approx(1.25)
        assert out.logs[0][0].timestamp == pytest.approx(1.0)
        assert "correction" in out.meta


class TestBuilders:
    def test_align_offsets(self):
        corr = align_offsets({1: meas(1, 5.0, 1e-3), 2: meas(2, 5.0, -1e-3)})
        assert corr.offset_model(1, 1000.0) == pytest.approx(1e-3)
        assert corr.offset_model(2, 1000.0) == pytest.approx(-1e-3)

    def test_align_requires_measurements(self):
        with pytest.raises(SynchronizationError):
            align_offsets({})

    def test_linear_interpolation_matches_eq3(self):
        init = {1: meas(1, 0.0, 1e-3)}
        final = {1: meas(1, 100.0, 2e-3)}
        corr = linear_interpolation(init, final)
        assert corr.offset_model(1, 50.0) == pytest.approx(1.5e-3)

    def test_linear_interpolation_rank_mismatch(self):
        with pytest.raises(SynchronizationError):
            linear_interpolation({1: meas(1, 0.0, 0.0)}, {2: meas(2, 1.0, 0.0)})

    def test_linear_interpolation_order_check(self):
        with pytest.raises(SynchronizationError):
            linear_interpolation({1: meas(1, 10.0, 0.0)}, {1: meas(1, 5.0, 0.0)})

    def test_piecewise_needs_two_sets(self):
        with pytest.raises(SynchronizationError):
            piecewise_interpolation([{1: meas(1, 0.0, 0.0)}])

    def test_piecewise_interpolates_between_knots(self):
        sets = [
            {1: meas(1, 0.0, 0.0)},
            {1: meas(1, 10.0, 1e-3)},
            {1: meas(1, 20.0, 0.0)},
        ]
        corr = piecewise_interpolation(sets)
        assert corr.offset_model(1, 5.0) == pytest.approx(0.5e-3)
        assert corr.offset_model(1, 15.0) == pytest.approx(0.5e-3)

    def test_piecewise_beats_linear_on_bent_drift(self):
        """The Doleschal-style option: for a drift that bends mid-run,
        the mid-point knot removes residual the two-point line keeps."""
        truth = lambda t: 1e-3 * np.sin(t / 20.0)  # bent offset curve
        sets = [{1: meas(1, t, truth(t))} for t in (0.0, 31.4, 62.8)]
        pw = piecewise_interpolation(sets)
        lin = linear_interpolation(sets[0], sets[-1])
        ts = np.linspace(0, 62.8, 100)
        resid_pw = np.abs(pw.offset_model(1, ts) - truth(ts)).max()
        resid_lin = np.abs(lin.offset_model(1, ts) - truth(ts)).max()
        assert resid_pw < resid_lin


class TestExactnessProperty:
    @examples(50)
    @given(
        rate=st.floats(min_value=-1e-4, max_value=1e-4),
        offset0=st.floats(min_value=-1.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_linear_interpolation_exact_for_constant_drift(self, rate, offset0, t):
        """The paper's premise: for truly constant drifts Eq. 3 is exact.

        Worker clock w(T) = T (worker is its own time base); the master-
        minus-worker offset at worker time t is o(t) = offset0 + rate*t.
        Interpolating from measurements at t=0 and t=1000 must recover
        o(t) exactly for every t.
        """
        o = lambda wt: offset0 + rate * wt
        corr = linear_interpolation(
            {1: meas(1, 0.0, o(0.0))}, {1: meas(1, 1000.0, o(1000.0))}
        )
        assert corr.offset_model(1, t) == pytest.approx(o(t), abs=1e-9)

    @examples(30)
    @given(seed=st.integers(0, 2**16))
    def test_correction_preserves_local_order(self, seed):
        """Applying any affine correction must keep a rank's event order."""
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.uniform(0, 100, size=20))
        corr = linear_interpolation(
            {1: meas(1, 0.0, float(rng.uniform(-1e-3, 1e-3)))},
            {1: meas(1, 100.0, float(rng.uniform(-1e-3, 1e-3)))},
        )
        out = corr.apply_rank(1, ts)
        assert np.all(np.diff(out) >= 0)


def _per_event(w: np.ndarray, o: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The per-event formula: every event finds its segment among all the
    knots (end segments extended) and computes that segment's slope."""
    idx = np.clip(np.searchsorted(w, t, side="right") - 1, 0, w.size - 2)
    return o[idx] + (o[idx + 1] - o[idx]) / (w[idx + 1] - w[idx]) * (t - w[idx])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestBitwise:
    """The segment-slope evaluation against the per-event formula, bit for bit."""

    KNOTS = {
        1: (np.array([2.5]), np.array([1e-3])),
        2: (np.array([-1.0, 7.0]), np.array([3e-4, -2e-4])),
        3: (np.array([0.0, 1.0, 2.5, 4.0]), np.array([1e-3, -5e-4, 2e-4, 2e-4])),
        4: (np.array([-3.0, 0.5, 1e3]), np.array([0.0, 1e-6, -1.0])),
    }
    EDGES = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -1e300, 1e300, 5e-324])

    def times(self, w: np.ndarray) -> np.ndarray:
        """Before the first knot, on every knot and just beside it, between
        knots, past the last, and the IEEE edge values."""
        between = (w[:-1] + w[1:]) / 2 if w.size > 1 else w[:0]
        return np.concatenate([
            [w[0] - 10.0, w[0] - 1e-12], w, np.nextafter(w, -np.inf), np.nextafter(w, np.inf),
            between, [w[-1] + 1e-12, w[-1] + 10.0], self.EDGES,
        ])

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_per_event_formula(self, rank):
        corr = ClockCorrection(self.KNOTS)
        w, o = self.KNOTS[rank]
        t = self.times(w)
        with np.errstate(invalid="ignore"):
            want = np.full_like(t, o[0]) if w.size == 1 else _per_event(w, o, t)
            assert _bits(corr.offset_model(rank, t)) == _bits(want)
            assert _bits(corr.apply_rank(rank, t)) == _bits(t + want)
            for x, y in zip(t, want):  # scalar input
                got = corr.offset_model(rank, float(x))
                assert isinstance(got, float) and _bits(got) == _bits(y)
                assert _bits(corr.apply_rank(rank, x)) == _bits(x + y)

    @pytest.mark.parametrize("rank", [0, 9])
    def test_master_and_rank_without_knots(self, rank):
        corr = ClockCorrection(self.KNOTS, master=0)
        t = self.times(np.array([0.0, 1.0]))
        assert _bits(corr.offset_model(rank, t)) == _bits(np.zeros_like(t))
        assert _bits(corr.apply_rank(rank, t)) == _bits(t + 0.0)  # -0.0 maps to +0.0
        assert corr.offset_model(rank, -0.0) == 0.0
        assert _bits(corr.apply_rank(rank, -0.0)) == _bits(0.0)

    @examples(50)
    @given(
        knots=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6, unique=True),
        offsets=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        t=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
    )
    def test_random_knots(self, knots, offsets, t):
        w = np.sort(np.array(knots))
        if w.size > 1 and not np.all(np.diff(w) > 0):
            return
        o = np.array(offsets[: w.size])
        t = np.array(t, dtype=np.float64)
        corr = ClockCorrection({1: (w, o)})
        with np.errstate(all="ignore"):
            want = np.full_like(t, o[0]) if w.size == 1 else _per_event(w, o, t)
            assert _bits(corr.offset_model(1, t)) == _bits(want)
            assert _bits(corr.apply_rank(1, t)) == _bits(t + want)
