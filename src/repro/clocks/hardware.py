"""Hardware clock (timestamp-counter) drift builders.

Section II of the paper considers three hardware clocks, all 64-bit
special-purpose registers driven by dedicated oscillators:

* **Intel TSC** — timestamp counter register, ticks at the nominal core
  frequency (constant-rate on the studied Xeons);
* **IBM TB** — PowerPC time base register, ticks at the time-base
  frequency (a fixed fraction of the bus clock);
* **IBM RTC** — real-time clock counting seconds and nanoseconds.

Their defining property (Fig. 4c) is an *approximately* constant drift:
no NTP discipline touches them, so the only error sources are the
oscillator's frequency offset (ppm-scale, fixed per board), slow random
wander (ppb-scale, thermal/ageing), and an optional periodic thermal
component.  These builders return :class:`~repro.clocks.drift.CompositeDrift`
instances assembled from those three ingredients.

The magnitudes below follow the paper's curves: inter-node deviations of
hardware clocks grow near-linearly at a few ppm (Fig. 4c reaches
milliseconds over an hour before interpolation), while the *nonlinear*
residual left after linear interpolation reaches tens of microseconds
over an hour (Fig. 5a/5b) — enough to exceed the 4.29 us inter-node
latency "already after a few minutes".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clocks.drift import (
    CompositeDrift,
    ConstantDrift,
    DriftModel,
    OrnsteinUhlenbeckDrift,
    RandomWalkDrift,
    SinusoidalDrift,
)

__all__ = [
    "OscillatorParams",
    "TSC_PARAMS",
    "TIMEBASE_PARAMS",
    "RTC_PARAMS",
    "build_oscillator_drift",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Statistical description of one family of hardware oscillators.

    Attributes
    ----------
    rate_spread:
        Std. dev. of the fixed frequency offset across boards
        (dimensionless; 1e-6 = 1 ppm).
    wander_sigma:
        Std. dev. of the drift-rate random-walk increment per
        ``wander_step`` seconds (1e-9 = 1 ppb / step).
    wander_step:
        Random-walk sampling interval, seconds.
    thermal_amplitude:
        Amplitude of the sinusoidal drift-rate modulation (HVAC cycles).
    thermal_period:
        Period of the thermal cycle, seconds.
    initial_offset_spread:
        Scale of the uniform initial offset between boards, seconds.
        Hardware counters start at power-on, so raw offsets are huge;
        what matters to the study is only that they are unknown.
    fast_sigma / fast_tau:
        Stationary std and correlation time of the mean-reverting fast
        rate fluctuation (:class:`OrnsteinUhlenbeckDrift`) — the
        short-horizon wobble behind Fig. 6.  ``fast_sigma=0`` disables.
    """

    rate_spread: float = 2.0e-6
    wander_sigma: float = 1.0e-9
    wander_step: float = 10.0
    thermal_amplitude: float = 4.0e-9
    thermal_period: float = 1200.0
    initial_offset_spread: float = 5.0
    fast_sigma: float = 0.0
    fast_tau: float = 60.0


#: Intel timestamp counter register (Xeon cluster, Fig. 4c / 5a / 6).
TSC_PARAMS = OscillatorParams(
    rate_spread=1.8e-6,
    wander_sigma=1.4e-9,
    wander_step=10.0,
    thermal_amplitude=4.0e-9,
    thermal_period=1100.0,
    fast_sigma=2.0e-8,
    fast_tau=60.0,
)

#: IBM time base register (PowerPC cluster "MareNostrum", Fig. 5b).
TIMEBASE_PARAMS = OscillatorParams(
    rate_spread=2.2e-6,
    wander_sigma=1.4e-9,
    wander_step=10.0,
    thermal_amplitude=6.0e-9,
    thermal_period=1500.0,
    fast_sigma=1.5e-8,
    fast_tau=80.0,
)

#: IBM real-time clock (seconds + nanoseconds register).
RTC_PARAMS = OscillatorParams(
    rate_spread=2.0e-6,
    wander_sigma=1.2e-9,
    wander_step=10.0,
    thermal_amplitude=5.0e-9,
    thermal_period=1300.0,
)


def build_oscillator_drift(
    params: OscillatorParams,
    rng: np.random.Generator,
    duration: float,
) -> DriftModel:
    """Draw one concrete oscillator from a parameter family.

    Each call consumes randomness from ``rng`` to fix this board's
    frequency offset, initial offset, wander path, and thermal phase; the
    returned model is then deterministic.

    Parameters
    ----------
    params:
        Family statistics (e.g. :data:`TSC_PARAMS`).
    rng:
        Per-board random stream.
    duration:
        True-time horizon the wander path must cover, seconds.
    """
    base_rate = float(rng.normal(0.0, params.rate_spread))
    initial_offset = float(rng.uniform(-params.initial_offset_spread, params.initial_offset_spread))
    components: list[DriftModel] = [ConstantDrift(rate=base_rate, initial_offset=initial_offset)]
    if params.wander_sigma > 0.0:
        components.append(
            RandomWalkDrift(
                rng=rng,
                sigma=params.wander_sigma,
                step=params.wander_step,
                duration=max(duration, params.wander_step),
            )
        )
    if params.thermal_amplitude > 0.0:
        components.append(
            SinusoidalDrift(
                amplitude=params.thermal_amplitude,
                period=params.thermal_period,
                phase_time=float(rng.uniform(0.0, params.thermal_period)),
            )
        )
    if params.fast_sigma > 0.0:
        components.append(
            OrnsteinUhlenbeckDrift(
                rng=rng,
                sigma=params.fast_sigma,
                tau=params.fast_tau,
                step=min(params.fast_tau / 10.0, 10.0),
                duration=max(duration, 10.0),
            )
        )
    if len(components) == 1:
        return components[0]
    return CompositeDrift(components)
