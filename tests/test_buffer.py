"""Tests for the per-rank trace buffer (repro.tracing.buffer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tracing.buffer import TraceBuffer
from repro.tracing.events import EventType


class TestTraceBuffer:
    def test_records_into_log(self):
        buf = TraceBuffer()
        buf.append(1.0, EventType.SEND, 1, 2, 3, 4)
        assert len(buf.log) == 1
        assert buf.log[0].d == 4

    def test_active_flag_default(self):
        buf = TraceBuffer()
        assert buf.active is True
        buf.active = False
        assert buf.active is False

    def test_cost_passthrough(self):
        # The flag gates the caller, not the append: an inactive buffer
        # still charges what it records.
        buf = TraceBuffer(record_cost=5e-8)
        assert buf.append(1.0, EventType.ENTER) == pytest.approx(5e-8)
        buf.active = False
        assert buf.append(2.0, EventType.ENTER) == pytest.approx(5e-8)

    def test_append_returns_record_cost(self):
        buf = TraceBuffer(record_cost=1e-7, flush_cost=1e-3)
        cost = buf.append(1.0, EventType.ENTER)
        assert cost == pytest.approx(1e-7)
        assert len(buf) == 1

    def test_capacity_triggers_flush(self):
        buf = TraceBuffer(capacity=3, record_cost=1e-7, flush_cost=1e-3)
        costs = [buf.append(float(i), EventType.ENTER) for i in range(7)]
        # Flushes after records 3 and 6.
        assert costs[2] == pytest.approx(1e-7 + 1e-3)
        assert costs[5] == pytest.approx(1e-7 + 1e-3)
        assert costs[6] == pytest.approx(1e-7)
        assert buf.flushes == 2

    def test_unbounded_never_flushes(self):
        buf = TraceBuffer(capacity=0, record_cost=0.0, flush_cost=1e-3)
        for i in range(100):
            assert buf.append(float(i), EventType.ENTER) == 0.0
        assert buf.flushes == 0

    def test_records_survive_flush(self):
        buf = TraceBuffer(capacity=2)
        for i in range(5):
            buf.append(float(i), EventType.ENTER, a=i)
        assert len(buf.log) == 5

    def test_rejects_negative_params(self):
        with pytest.raises(ConfigurationError):
            TraceBuffer(capacity=-1)
        with pytest.raises(ConfigurationError):
            TraceBuffer(record_cost=-1.0)

    @pytest.mark.parametrize("capacity", [0, 1, 3, 4, 7])
    @pytest.mark.parametrize("prefill", [0, 1, 2])
    def test_append_batch_equals_scalar_appends(self, capacity, prefill):
        """One append_batch == N appends: cost, flushes, fill, contents.

        Dyadic costs make the total exactly representable, so the sum
        of the scalar costs and the batched total must be equal as
        floats, not just approximately.
        """
        record_cost, flush_cost = 2.0**-25, 2.0**-8
        scalar = TraceBuffer(capacity, record_cost, flush_cost)
        batched = TraceBuffer(capacity, record_cost, flush_cost)
        prefill = min(prefill, max(capacity - 1, 0))
        for i in range(prefill):
            scalar.append(float(i), EventType.ENTER, a=i)
            batched.append(float(i), EventType.ENTER, a=i)

        n = 11
        ts = [float(prefill + i) for i in range(n)]
        ets = [EventType.SEND] * n
        a = list(range(n))
        b = [7] * n
        c = [64] * n
        d = list(range(100, 100 + n))
        scalar_cost = sum(
            scalar.append(ts[i], ets[i], a[i], b[i], c[i], d[i]) for i in range(n)
        )
        batch_cost = batched.append_batch(ts, ets, a, b, c, d)

        assert batch_cost == scalar_cost
        assert batched.flushes == scalar.flushes
        assert batched._since_flush == scalar._since_flush
        assert len(batched) == len(scalar)
        for col in ("timestamps", "etypes", "a", "b", "c", "d"):
            assert np.array_equal(
                getattr(batched.log, col), getattr(scalar.log, col)
            ), f"column {col} diverged"
