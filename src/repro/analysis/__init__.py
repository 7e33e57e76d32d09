"""Measurement drivers and experiment harnesses.

* :mod:`repro.analysis.latency` — in-simulation latency benchmarks
  (Table II);
* :mod:`repro.analysis.deviation` — repeated-probe clock-deviation
  series under a correction scheme (Figs. 4-6 and the intra-node study);
* :mod:`repro.analysis.experiments` — one driver per paper table/figure,
  returning structured results;
* :mod:`repro.analysis.runner` — deterministic parallel grid execution
  (batches handed to a process pool in grid order) with result caching;
* :mod:`repro.analysis.reports` — ASCII rendering shared by benches,
  examples, and EXPERIMENTS.md.

Every measurement reports through :class:`repro.stats.SampleSummary`
(confidence intervals, repetition counts); see ``docs/methodology.md``.
"""

from repro.analysis.latency import LatencyStats, measure_collective_latency, measure_latency
from repro.analysis.deviation import DeviationSeries, measure_deviation
from repro.analysis.runner import derive_seed, run_grid, seed_grid
from repro.analysis.profile import RegionProfile, region_profile
from repro.analysis.reports import ascii_table, ci_cell, format_series
from repro.analysis.timeline import render_message_arrows, render_timeline
from repro.analysis.waitstates import WaitStateReport, barrier_waits, late_sender

__all__ = [
    "LatencyStats",
    "measure_latency",
    "measure_collective_latency",
    "DeviationSeries",
    "measure_deviation",
    "ascii_table",
    "ci_cell",
    "format_series",
    "RegionProfile",
    "region_profile",
    "render_timeline",
    "render_message_arrows",
    "WaitStateReport",
    "late_sender",
    "barrier_waits",
    "run_grid",
    "derive_seed",
    "seed_grid",
]
