"""Tests for latency/deviation measurement and reports (repro.analysis)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.deviation import measure_deviation
from repro.analysis.latency import measure_collective_latency, measure_latency
from repro.analysis.reports import ascii_table, format_series, sparkline
from repro.cluster import inter_chip, inter_core, inter_node, xeon_cluster
from repro.errors import ConfigurationError
from repro.units import USEC


class TestMeasureLatency:
    """Table II sanity: measured means sit just above the model floors,
    ordered inter-node > inter-chip > inter-core."""

    @pytest.fixture(scope="class")
    def rows(self):
        preset = xeon_cluster()
        m = preset.machine
        return {
            "node": measure_latency(preset, inter_node(m, 2), repeats=300, seed=0),
            "chip": measure_latency(preset, inter_chip(m), repeats=300, seed=0),
            "core": measure_latency(preset, inter_core(m, 2), repeats=300, seed=0),
        }

    def test_means_above_floors(self, rows):
        for stats in rows.values():
            assert stats.summary.mean >= stats.floor

    def test_means_near_paper_values(self, rows):
        # Floors are the Table II values; software overheads add < 1 us.
        assert rows["node"].summary.mean == pytest.approx(4.29 * USEC, abs=1.2 * USEC)
        assert rows["chip"].summary.mean == pytest.approx(0.86 * USEC, abs=0.8 * USEC)
        assert rows["core"].summary.mean == pytest.approx(0.47 * USEC, abs=0.8 * USEC)

    def test_ordering(self, rows):
        assert (rows["node"].summary.mean > rows["chip"].summary.mean
                > rows["core"].summary.mean)

    def test_std_small_relative_to_mean(self, rows):
        for stats in rows.values():
            assert stats.summary.std_of_mean < 0.1 * stats.summary.mean

    def test_sample_count(self, rows):
        assert rows["node"].summary.n == 300


class TestCollectiveLatency:
    def test_allreduce_above_message_latency(self):
        preset = xeon_cluster()
        msg = measure_latency(preset, inter_node(preset.machine, 4), repeats=200, seed=1)
        coll = measure_collective_latency(
            preset, inter_node(preset.machine, 4), repeats=100, seed=1
        )
        # Table II: 12.86 us vs 4.29 us — collective costs ~2-4x a message.
        assert coll.summary.mean > 1.5 * msg.summary.mean
        assert coll.summary.mean < 8 * msg.summary.mean


class TestLatencyBootstrap:
    """``measure_latency(..., bootstrap=N)`` (docs/methodology.md) adds a
    percentile bootstrap interval that a seed fixes bit for bit."""

    def _measure(self, bootstrap):
        preset = xeon_cluster()
        return measure_latency(
            preset, inter_node(preset.machine, 2), repeats=100, seed=4, bootstrap=bootstrap
        ).summary

    def test_interval_present_and_bit_identical(self):
        first, again = self._measure(200), self._measure(200)
        assert first.bootstrap_lower is not None and first.bootstrap_upper is not None
        assert first.bootstrap_lower <= first.mean <= first.bootstrap_upper
        assert (first.bootstrap_lower, first.bootstrap_upper) == (
            again.bootstrap_lower, again.bootstrap_upper
        )

    def test_absent_without_bootstrap(self):
        summary = self._measure(0)
        assert summary.bootstrap_lower is None and summary.bootstrap_upper is None


class TestMeasureDeviation:
    def test_probe_series_shape(self):
        preset = xeon_cluster()
        series = measure_deviation(
            preset, inter_node(preset.machine, 3), timer="tsc",
            duration=30.0, probe_interval=5.0, repeats=4, seed=0,
        )
        assert set(series) == {1, 2}
        for s in series.values():
            assert s.times.size == 6
            assert np.all(np.diff(s.times) > 0)

    def test_aligned_starts_at_zero(self):
        preset = xeon_cluster()
        series = measure_deviation(
            preset, inter_node(preset.machine, 2), timer="tsc",
            duration=20.0, probe_interval=5.0, seed=1,
        )
        assert series[1].aligned()[0] == 0.0

    def test_interpolated_endpoints_zero(self):
        preset = xeon_cluster()
        series = measure_deviation(
            preset, inter_node(preset.machine, 2), timer="tsc",
            duration=20.0, probe_interval=5.0, seed=1,
        )
        resid = series[1].interpolated()
        assert resid[0] == pytest.approx(0.0, abs=1e-12)
        assert resid[-1] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_clock_tiny_residual(self):
        preset = xeon_cluster()
        series = measure_deviation(
            preset, inter_node(preset.machine, 2), timer="global",
            duration=20.0, probe_interval=5.0, seed=2,
        )
        # Residual bounded by measurement error (~network jitter scale).
        assert series[1].max_abs("aligned") < 0.5 * USEC

    def test_first_exceeding(self):
        preset = xeon_cluster()
        series = measure_deviation(
            preset, inter_node(preset.machine, 4), timer="mpi_wtime",
            duration=120.0, probe_interval=5.0, seed=0,
        )
        # MPI_Wtime drifts at ppm scale: among three workers, at least
        # one pair crosses 2 us well within two minutes.
        crossings = [
            s.first_exceeding(2e-6, corrected="aligned") for s in series.values()
        ]
        assert any(t is not None and t <= 120.0 for t in crossings)
        assert all(s.first_exceeding(1e6) is None for s in series.values())

    def test_validation(self):
        preset = xeon_cluster()
        with pytest.raises(ConfigurationError):
            measure_deviation(
                preset, inter_node(preset.machine, 2), timer="tsc",
                duration=-1.0,
            )
        with pytest.raises(ConfigurationError):
            measure_deviation(
                preset, inter_node(preset.machine, 1), timer="tsc", duration=30.0
            )


class TestReports:
    def test_ascii_table(self):
        text = ascii_table(
            ["name", "mean"], [["inter node", "4.29"], ["inter chip", "0.86"]],
            title="Table II",
        )
        lines = text.splitlines()
        assert lines[0] == "Table II"
        assert "name" in lines[1] and "mean" in lines[1]
        assert "inter node" in lines[3]
        # Rule separates header from rows.
        assert set(lines[2]) <= {"-", "+"}

    def test_sparkline_bounds(self):
        line = sparkline(np.linspace(0, 1, 200), width=40)
        assert len(line) == 40
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_constant(self):
        assert set(sparkline(np.zeros(10))) == {" "}

    def test_sparkline_empty(self):
        assert sparkline(np.array([])) == ""

    def test_format_series(self):
        text = format_series("w1", np.arange(3.0), np.array([0.0, 1e-6, 2e-6]))
        assert "max +2.00 us" in text
        assert "final +2.00 us" in text
