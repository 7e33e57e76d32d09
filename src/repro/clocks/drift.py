"""Drift models: deterministic offset-vs-true-time functions.

A *drift model* describes the error of a clock as a function of ideal
("true") time.  If the true time is ``t``, a clock governed by drift model
``d`` reads ``t + d.offset_at(t)`` (before quantization and read noise,
which are applied by :class:`repro.clocks.base.Clock`).

The paper (Section II, Figure 1) characterizes clocks by their *offset*
(value difference at one instant) and *drift* (rate of change of the
offset).  Crucially, the study's subject is that drift is **not constant**:
NTP slews it abruptly (Fig. 4a/4b), temperature and power management bend
it slowly (Fig. 5).  Each of those mechanisms has a model class here, and
:class:`CompositeDrift` sums them.

All models are

* **deterministic** — any randomness is fixed at construction time, so an
  experiment can evaluate the same model repeatedly (e.g. once per probe
  and once per trace event) and get consistent values;
* **vectorized** — ``offset_at`` accepts scalars or numpy arrays of true
  time and evaluates in O(n log k) for k internal breakpoints.
"""

from __future__ import annotations

from typing import Protocol, Sequence, Union, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DriftModel",
    "ConstantDrift",
    "LinearRampDrift",
    "PiecewiseConstantDrift",
    "SinusoidalDrift",
    "RandomWalkDrift",
    "CompositeDrift",
]

ArrayLike = Union[float, np.ndarray]


@runtime_checkable
class DriftModel(Protocol):
    """Protocol for clock-error functions.

    Implementations must be pure: two calls with the same argument return
    the same value.
    """

    def offset_at(self, t: ArrayLike) -> ArrayLike:
        """Accumulated clock error (seconds) at true time ``t`` (seconds)."""
        ...

    def rate_at(self, t: ArrayLike) -> ArrayLike:
        """Instantaneous drift rate (d offset / d t) at true time ``t``."""
        ...


def _as_array(t: ArrayLike) -> tuple[np.ndarray, bool]:
    """Coerce to float64 ndarray; report whether the input was scalar."""
    arr = np.asarray(t, dtype=np.float64)
    return arr, arr.ndim == 0


def _ret(values: np.ndarray, scalar: bool) -> ArrayLike:
    return float(values) if scalar else values


class ConstantDrift:
    """The textbook model: fixed initial offset and fixed drift rate.

    ``offset_at(t) = initial_offset + rate * t``

    This is the model that linear offset interpolation (paper Eq. 3)
    corrects *exactly*; its purpose here is mostly as a baseline and as a
    component of composites.

    Parameters
    ----------
    rate:
        Drift rate, dimensionless (1e-6 = 1 ppm).
    initial_offset:
        Clock error at true time 0, in seconds.
    """

    __slots__ = ("rate", "initial_offset")

    def __init__(self, rate: float = 0.0, initial_offset: float = 0.0) -> None:
        self.rate = float(rate)
        self.initial_offset = float(initial_offset)

    def offset_at(self, t: ArrayLike) -> ArrayLike:
        if type(t) is float or type(t) is int:  # scalar fast path (hot)
            return self.initial_offset + self.rate * t
        arr, scalar = _as_array(t)
        return _ret(self.initial_offset + self.rate * arr, scalar)

    def rate_at(self, t: ArrayLike) -> ArrayLike:
        if type(t) is float or type(t) is int:
            return self.rate
        arr, scalar = _as_array(t)
        return _ret(np.full_like(arr, self.rate), scalar)

    def __repr__(self) -> str:
        return f"ConstantDrift(rate={self.rate:g}, initial_offset={self.initial_offset:g})"


class LinearRampDrift:
    """Drift rate that changes linearly with time (oscillator ageing).

    ``rate(t) = rate0 + accel * t`` hence
    ``offset_at(t) = offset0 + rate0 * t + accel * t**2 / 2``.

    Quartz ageing and slow monotone temperature trends produce exactly
    this gentle curvature; it is the simplest model that defeats two-point
    linear interpolation (the residual is the parabola's sagitta,
    ``accel * T**2 / 8`` over an interval of length ``T``).
    """

    __slots__ = ("rate0", "accel", "initial_offset")

    def __init__(self, rate0: float = 0.0, accel: float = 0.0, initial_offset: float = 0.0) -> None:
        self.rate0 = float(rate0)
        self.accel = float(accel)
        self.initial_offset = float(initial_offset)

    def offset_at(self, t: ArrayLike) -> ArrayLike:
        arr, scalar = _as_array(t)
        return _ret(self.initial_offset + self.rate0 * arr + 0.5 * self.accel * arr * arr, scalar)

    def rate_at(self, t: ArrayLike) -> ArrayLike:
        arr, scalar = _as_array(t)
        return _ret(self.rate0 + self.accel * arr, scalar)

    def __repr__(self) -> str:
        return (
            f"LinearRampDrift(rate0={self.rate0:g}, accel={self.accel:g}, "
            f"initial_offset={self.initial_offset:g})"
        )


class PiecewiseConstantDrift:
    """Drift rate that is constant on intervals and jumps at breakpoints.

    This is the workhorse model: NTP slews, DVFS frequency steps, and the
    sampled random-walk wander all reduce to a piecewise-constant rate,
    i.e. a continuous, piecewise-*linear* offset curve — precisely the
    "phases of roughly constant drift interrupted by sudden drift
    adjustments" the paper observes in Fig. 4.

    Parameters
    ----------
    breakpoints:
        Strictly increasing true times ``[t_0, t_1, ..., t_{k-1}]`` at
        which the rate changes; ``rates[i]`` applies on
        ``[t_i, t_{i+1})`` and ``rates[0]`` also applies for ``t < t_0``
        (extended leftward), ``rates[-1]`` for ``t >= t_{k-1}``.
    rates:
        Drift rate per segment; ``len(rates) == len(breakpoints)``.
    initial_offset:
        Offset at ``t = breakpoints[0]``.
    """

    __slots__ = ("breakpoints", "rates", "initial_offset", "_cum")

    def __init__(
        self,
        breakpoints: Sequence[float],
        rates: Sequence[float],
        initial_offset: float = 0.0,
    ) -> None:
        bp = np.asarray(breakpoints, dtype=np.float64)
        rt = np.asarray(rates, dtype=np.float64)
        if bp.ndim != 1 or bp.size == 0:
            raise ConfigurationError("breakpoints must be a non-empty 1-D sequence")
        if rt.shape != bp.shape:
            raise ConfigurationError(
                f"rates shape {rt.shape} must match breakpoints shape {bp.shape}"
            )
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ConfigurationError("breakpoints must be strictly increasing")
        self.breakpoints = bp
        self.rates = rt
        self.initial_offset = float(initial_offset)
        # Accumulated offset at each breakpoint: cum[i] = offset(bp[i]).
        seg = np.diff(bp) * rt[:-1]
        self._cum = self.initial_offset + np.concatenate(([0.0], np.cumsum(seg)))

    def _segment(self, t: float) -> int:
        """Segment index for a scalar time (clipped like the vector path)."""
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        if idx < 0:
            return 0
        last = self.breakpoints.size - 1
        return last if idx > last else idx

    def offset_at(self, t: ArrayLike) -> ArrayLike:
        if type(t) is float or type(t) is int:  # scalar fast path (hot)
            i = self._segment(t)
            return float(self._cum[i]) + float(self.rates[i]) * (
                t - float(self.breakpoints[i])
            )
        arr, scalar = _as_array(t)
        # Segment index: largest i with bp[i] <= t, clipped to [0, k-1]
        # so times before the first breakpoint extrapolate with rates[0].
        idx = np.searchsorted(self.breakpoints, arr, side="right") - 1
        idx = np.clip(idx, 0, self.breakpoints.size - 1)
        out = self._cum[idx] + self.rates[idx] * (arr - self.breakpoints[idx])
        return _ret(out, scalar)

    def rate_at(self, t: ArrayLike) -> ArrayLike:
        if type(t) is float or type(t) is int:
            return float(self.rates[self._segment(t)])
        arr, scalar = _as_array(t)
        idx = np.searchsorted(self.breakpoints, arr, side="right") - 1
        idx = np.clip(idx, 0, self.breakpoints.size - 1)
        return _ret(self.rates[idx], scalar)

    def __repr__(self) -> str:
        return (
            f"PiecewiseConstantDrift(<{self.breakpoints.size} segments>, "
            f"initial_offset={self.initial_offset:g})"
        )


class SinusoidalDrift:
    """Periodic drift-rate modulation (machine-room temperature cycles).

    ``rate(t) = amplitude * sin(2*pi*(t - phase_time)/period)`` with the
    offset chosen so that ``offset_at(0) == 0``:

    ``offset_at(t) = -A*T/(2*pi) * (cos(w*(t-p)) - cos(-w*p))``.

    Temperature-induced frequency wander of a quartz oscillator over an
    HVAC cycle is the canonical source; the paper attributes the *curvy*
    residuals of Fig. 5 to "varying temperature and flexible power
    management".
    """

    __slots__ = ("amplitude", "period", "phase_time")

    def __init__(self, amplitude: float, period: float, phase_time: float = 0.0) -> None:
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase_time = float(phase_time)

    def offset_at(self, t: ArrayLike) -> ArrayLike:
        if type(t) is float or type(t) is int:  # scalar fast path (hot)
            import math

            w = 2.0 * math.pi / self.period
            scale = self.amplitude / w
            return -scale * (
                math.cos(w * (t - self.phase_time)) - math.cos(-w * self.phase_time)
            )
        arr, scalar = _as_array(t)
        w = 2.0 * np.pi / self.period
        scale = self.amplitude / w
        out = -scale * (np.cos(w * (arr - self.phase_time)) - np.cos(-w * self.phase_time))
        return _ret(out, scalar)

    def rate_at(self, t: ArrayLike) -> ArrayLike:
        arr, scalar = _as_array(t)
        w = 2.0 * np.pi / self.period
        return _ret(self.amplitude * np.sin(w * (arr - self.phase_time)), scalar)

    def __repr__(self) -> str:
        return (
            f"SinusoidalDrift(amplitude={self.amplitude:g}, period={self.period:g}, "
            f"phase_time={self.phase_time:g})"
        )


class RandomWalkDrift(PiecewiseConstantDrift):
    """Sampled random-walk drift rate (flicker/random-walk FM noise).

    The rate performs a Gaussian random walk sampled every ``step``
    seconds over ``[0, duration]``; beyond ``duration`` the last rate is
    held.  This is the standard phenomenological model for oscillator
    instability that is "predictable to some degree" but, per the paper,
    must be treated as non-deterministic by generic tools.

    Parameters
    ----------
    rng:
        Source of randomness (fixed at construction; the model itself is
        then deterministic).
    sigma:
        Standard deviation of the rate increment per step (dimensionless
        rate units, e.g. 1e-9 = 1 ppb per step).
    step:
        Sampling interval of the walk, seconds.
    duration:
        Horizon covered by distinct segments, seconds.
    rate0:
        Starting rate.  The walk starts at offset 0 (a clock's initial
        offset is its :class:`ConstantDrift` component's).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        sigma: float,
        step: float = 10.0,
        duration: float = 4000.0,
        rate0: float = 0.0,
    ) -> None:
        if step <= 0 or duration <= 0:
            raise ConfigurationError("step and duration must be positive")
        n = max(1, int(np.ceil(duration / step)))
        increments = rng.normal(0.0, sigma, size=n)
        rates = rate0 + np.concatenate(([0.0], np.cumsum(increments)))[:n]
        breakpoints = np.arange(n, dtype=np.float64) * step
        super().__init__(breakpoints, rates)


class OrnsteinUhlenbeckDrift(PiecewiseConstantDrift):
    """Mean-reverting drift-rate fluctuation (fast thermal noise).

    The rate follows a discretized Ornstein-Uhlenbeck process with
    stationary standard deviation ``sigma`` and correlation time ``tau``:
    unlike the random walk (whose integrated offset wanders as
    ``T^1.5``), the OU rate's *offset* fluctuation grows only like
    ``sqrt(T)`` for ``T >> tau`` — this is the short-horizon wobble that
    makes even a hardware clock's residual exceed the message latency on
    a 300 s run (paper Fig. 6) without blowing up the hour-scale
    residual of Fig. 5.

    Parameters
    ----------
    rng:
        Source of randomness (consumed at construction).
    sigma:
        Stationary std of the rate fluctuation (dimensionless).
    tau:
        Correlation time of the fluctuation, seconds.
    step:
        Sampling interval, seconds (should be << tau).
    duration:
        Horizon covered; the last rate is held beyond it.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        sigma: float,
        tau: float = 60.0,
        step: float = 5.0,
        duration: float = 4000.0,
    ) -> None:
        if tau <= 0 or step <= 0 or duration <= 0:
            raise ConfigurationError("tau, step and duration must be positive")
        n = max(1, int(np.ceil(duration / step)))
        decay = np.exp(-step / tau)
        innovation_std = sigma * np.sqrt(max(1.0 - decay * decay, 0.0))
        noise = rng.normal(0.0, innovation_std, size=n)
        rates = np.empty(n)
        rates[0] = float(rng.normal(0.0, sigma))
        for k in range(1, n):
            rates[k] = rates[k - 1] * decay + noise[k]
        breakpoints = np.arange(n, dtype=np.float64) * step
        super().__init__(breakpoints, rates)


class CompositeDrift:
    """Sum of several drift components.

    A realistic node clock is e.g. ``ConstantDrift(base ppm) +
    RandomWalkDrift(wander) + SinusoidalDrift(thermal)``; an NTP clock is
    ``NTPDiscipline`` wrapped around such a composite.
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[DriftModel]) -> None:
        if not components:
            raise ConfigurationError("CompositeDrift needs at least one component")
        self.components = tuple(components)

    def offset_at(self, t: ArrayLike) -> ArrayLike:
        if type(t) is float or type(t) is int:  # scalar fast path (hot)
            total = 0.0
            for c in self.components:
                total += float(c.offset_at(t))
            return total
        arr, scalar = _as_array(t)
        out = np.zeros_like(arr)
        for c in self.components:
            out = out + c.offset_at(arr)
        return _ret(out, scalar)

    def rate_at(self, t: ArrayLike) -> ArrayLike:
        if type(t) is float or type(t) is int:
            total = 0.0
            for c in self.components:
                total += float(c.rate_at(t))
            return total
        arr, scalar = _as_array(t)
        out = np.zeros_like(arr)
        for c in self.components:
            out = out + c.rate_at(arr)
        return _ret(out, scalar)

    def __repr__(self) -> str:
        return f"CompositeDrift({list(self.components)!r})"
