"""Cycle-counter clocks perturbed by dynamic frequency scaling.

Section II of the paper: *"Clocks based on cycle counters use the
processor clock signal to increment an internal counter on each tick.
The step size ... may change over time, as state-of-the-art power
management may dynamically slow down or accelerate the signal.  As a
consequence, remote cycle counters are very hard to synchronize and
therefore only useful to compare events happening on the same CPU
chip."*

A cycle counter converted to time by dividing by the *nominal* frequency
acquires an enormous rate error whenever DVFS switches the actual
frequency: running at 2.0 GHz on a nominal 3.0 GHz part makes "time" run
33 % slow.  We model DVFS as a semi-Markov process over a small set of
frequency levels with exponentially distributed dwell times, yielding a
piecewise-constant drift rate with rate steps many orders of magnitude
above anything NTP or thermal wander produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clocks.drift import CompositeDrift, ConstantDrift, DriftModel, PiecewiseConstantDrift
from repro.errors import ConfigurationError

__all__ = ["DvfsParams", "build_cycle_counter_drift"]


@dataclass(frozen=True)
class DvfsParams:
    """Dynamic voltage/frequency scaling behaviour of one chip.

    Attributes
    ----------
    nominal_ghz:
        Frequency the counter-to-seconds conversion assumes.
    levels_ghz:
        Frequencies the governor may select (including nominal).
    level_weights:
        Steady-state selection probabilities (normalized internally).
    mean_dwell:
        Mean dwell time in one frequency level, seconds.
    """

    nominal_ghz: float = 3.0
    levels_ghz: tuple[float, ...] = (3.0, 2.33, 2.0)
    level_weights: tuple[float, ...] = (0.6, 0.25, 0.15)
    mean_dwell: float = 30.0

    def __post_init__(self) -> None:
        if self.nominal_ghz <= 0 or any(f <= 0 for f in self.levels_ghz):
            raise ConfigurationError("frequencies must be positive")
        if len(self.levels_ghz) != len(self.level_weights):
            raise ConfigurationError("levels_ghz and level_weights lengths differ")
        if self.mean_dwell <= 0:
            raise ConfigurationError("mean_dwell must be positive")


def build_cycle_counter_drift(
    params: DvfsParams,
    rng: np.random.Generator,
    duration: float,
    base_rate_spread: float = 2.0e-6,
    initial_offset_spread: float = 5.0,
) -> DriftModel:
    """Draw one chip's DVFS-perturbed cycle-counter drift.

    The returned model is the sum of a small fixed oscillator offset and
    the (huge) DVFS steps: rate on a segment at frequency ``f`` is
    ``f / nominal - 1``.
    """
    weights = np.asarray(params.level_weights, dtype=np.float64)
    weights = weights / weights.sum()
    levels = np.asarray(params.levels_ghz, dtype=np.float64)

    times = [0.0]
    t = 0.0
    while t < duration:
        t += float(rng.exponential(params.mean_dwell))
        times.append(t)
    breakpoints = np.asarray(times, dtype=np.float64)
    chosen = rng.choice(levels.size, size=breakpoints.size, p=weights)
    rates = levels[chosen] / params.nominal_ghz - 1.0

    dvfs = PiecewiseConstantDrift(breakpoints, rates)
    base = ConstantDrift(
        rate=float(rng.normal(0.0, base_rate_spread)),
        initial_offset=float(rng.uniform(-initial_offset_spread, initial_offset_spread)),
    )
    return CompositeDrift([base, dvfs])
