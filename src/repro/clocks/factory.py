"""Assembly of per-machine clock ensembles.

A :class:`TimerSpec` describes one timer *technology* (which drift family,
what resolution/overhead/jitter, and at which level of the hierarchy a
distinct physical clock exists).  A :class:`ClockEnsemble` instantiates
that spec over a concrete :class:`~repro.cluster.topology.Machine`:

* ``scope="chip"`` — hardware counters (TSC, TB, ITC): one clock per
  chip; cores of a chip share it, and chips of one node share the node's
  oscillator (same board-level clock generator) apart from a small
  per-chip offset and rate epsilon.  This reproduces the paper's
  intra-node finding (deviations are pure noise, ~0.1 us) while leaving
  room for the Itanium preset where inter-chip offsets are large enough
  to break OpenMP semantics (Fig. 3/8).
* ``scope="node"`` — system clocks (``gettimeofday``, ``MPI_Wtime``):
  one clock per node, NTP-disciplined.
* ``scope="global"`` — a perfectly global clock (Blue Gene-style), used
  as ground truth in tests and baselines.

All randomness is drawn from named :class:`~repro.rng.RngFabric` streams,
so an ensemble is fully determined by ``(machine, spec, seed, duration)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.clocks.base import Clock
from repro.clocks.cycle import DvfsParams, build_cycle_counter_drift
from repro.clocks.drift import CompositeDrift, ConstantDrift, DriftModel
from repro.clocks.hardware import (
    RTC_PARAMS,
    TIMEBASE_PARAMS,
    TSC_PARAMS,
    OscillatorParams,
    build_oscillator_drift,
)
from repro.clocks.software import (
    GETTIMEOFDAY_OPTERON_PARAMS,
    GETTIMEOFDAY_XEON_PARAMS,
    MPI_WTIME_XEON_PARAMS,
    SoftwareClockParams,
    build_software_drift,
)
from repro.cluster.topology import Location, Machine
from repro.errors import ConfigurationError
from repro.rng import RngFabric

__all__ = ["TimerSpec", "timer_spec", "ClockEnsemble", "TIMER_TECHNOLOGIES"]

DriftBuilder = Callable[[np.random.Generator, float], DriftModel]


@dataclass(frozen=True)
class TimerSpec:
    """Description of one timer technology.

    Attributes
    ----------
    name:
        Technology label ("tsc", "gettimeofday", ...).
    scope:
        Where a distinct physical clock lives: "chip", "node" or "global".
    resolution:
        Reading quantization, seconds.
    read_overhead:
        True-time cost of one read, seconds.
    read_jitter:
        Exponential scale of read-delay noise, seconds.
    drift_builder:
        ``(rng, duration) -> DriftModel`` drawing one physical clock.
        Ignored for scope "global".
    chip_offset_spread / chip_rate_spread:
        For scope "chip": per-chip deviation from the node oscillator —
        uniform offset scale (seconds) and normal rate spread
        (dimensionless).
    """

    name: str
    scope: str
    resolution: float
    read_overhead: float
    read_jitter: float
    drift_builder: Optional[DriftBuilder] = None
    chip_offset_spread: float = 3.0e-8
    chip_rate_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.scope not in ("chip", "node", "global"):
            raise ConfigurationError(f"unknown clock scope {self.scope!r}")
        if self.scope != "global" and self.drift_builder is None:
            raise ConfigurationError(f"spec {self.name!r} needs a drift_builder")


def _hw_builder(params: OscillatorParams) -> DriftBuilder:
    return lambda rng, duration: build_oscillator_drift(params, rng, duration)


def _sw_builder(params: SoftwareClockParams) -> DriftBuilder:
    return lambda rng, duration: build_software_drift(params, rng, duration)


def _cycle_builder(params: DvfsParams) -> DriftBuilder:
    return lambda rng, duration: build_cycle_counter_drift(params, rng, duration)


def _base_specs() -> dict[str, TimerSpec]:
    return {
        "tsc": TimerSpec(
            name="tsc",
            scope="chip",
            resolution=1.0 / 3.0e9,
            read_overhead=3.5e-8,
            read_jitter=1.5e-8,
            drift_builder=_hw_builder(TSC_PARAMS),
        ),
        "timebase": TimerSpec(
            name="timebase",
            scope="chip",
            resolution=1.0 / 14.318e6,
            read_overhead=3.0e-8,
            read_jitter=1.0e-8,
            drift_builder=_hw_builder(TIMEBASE_PARAMS),
        ),
        "rtc": TimerSpec(
            name="rtc",
            scope="chip",
            resolution=1.0e-9,
            read_overhead=8.0e-8,
            read_jitter=2.0e-8,
            drift_builder=_hw_builder(RTC_PARAMS),
        ),
        "gettimeofday": TimerSpec(
            name="gettimeofday",
            scope="node",
            resolution=1.0e-6,
            read_overhead=2.5e-7,
            read_jitter=8.0e-8,
            drift_builder=_sw_builder(GETTIMEOFDAY_XEON_PARAMS),
        ),
        "mpi_wtime": TimerSpec(
            name="mpi_wtime",
            scope="node",
            resolution=1.0e-6,
            read_overhead=4.0e-7,
            read_jitter=1.0e-7,
            drift_builder=_sw_builder(MPI_WTIME_XEON_PARAMS),
        ),
        "cycle": TimerSpec(
            name="cycle",
            scope="chip",
            resolution=1.0 / 3.0e9,
            read_overhead=1.0e-8,
            read_jitter=5.0e-9,
            drift_builder=_cycle_builder(DvfsParams()),
        ),
        "global": TimerSpec(
            name="global",
            scope="global",
            resolution=0.0,
            read_overhead=5.0e-8,
            read_jitter=0.0,
        ),
    }


#: Names accepted by :func:`timer_spec`.
TIMER_TECHNOLOGIES = tuple(sorted(_base_specs().keys()))


def timer_spec(technology: str, machine_kind: str = "xeon") -> TimerSpec:
    """Return the preset spec for a timer technology on a machine kind.

    ``machine_kind`` adapts platform-dependent details:

    * ``"opteron"`` swaps ``gettimeofday`` to the Jaguar preset
      (Fig. 5c's worst case);
    * ``"itanium"`` uses the ITC with *large* inter-chip offsets and a
      per-chip rate epsilon — the configuration behind Fig. 3/8;
    * ``"powerpc"`` leaves the base specs as-is (use "timebase" there).
    """
    specs = _base_specs()
    if technology not in specs:
        raise ConfigurationError(
            f"unknown timer technology {technology!r}; expected one of {TIMER_TECHNOLOGIES}"
        )
    spec = specs[technology]
    if machine_kind == "opteron" and technology == "gettimeofday":
        spec = replace(spec, drift_builder=_sw_builder(GETTIMEOFDAY_OPTERON_PARAMS))
    if machine_kind == "itanium" and technology in ("tsc", "cycle"):
        spec = replace(
            spec,
            resolution=1.0 / 1.6e9,
            read_jitter=3.0e-8,
            chip_offset_spread=6.0e-7,
            chip_rate_spread=2.0e-9,
        )
    return spec


class ClockEnsemble:
    """Concrete clocks for every location of one machine.

    Parameters
    ----------
    machine:
        Topology over which clocks are instantiated.
    spec:
        Timer technology (see :func:`timer_spec`).
    fabric:
        Deterministic randomness source.
    duration:
        True-time horizon drift paths must cover, seconds.

    Notes
    -----
    Clocks are instantiated lazily per scope unit and cached, so a
    62-node machine of which an experiment touches 4 nodes only pays for
    4 drift paths.  Processes/threads that share a physical clock share
    the same :class:`Clock` *instance* — including its monotonicity
    state, exactly like two threads reading one TSC register.
    """

    def __init__(
        self,
        machine: Machine,
        spec: TimerSpec,
        fabric: RngFabric,
        duration: float,
    ) -> None:
        self.machine = machine
        self.spec = spec
        self.fabric = fabric
        self.duration = float(duration)
        self._clocks: dict[tuple[int, int], Clock] = {}
        self._node_bases: dict[int, DriftModel] = {}
        self._global: Optional[Clock] = None

    # ------------------------------------------------------------------
    def clock_for(self, loc: Location) -> Clock:
        """The clock a process pinned at ``loc`` reads."""
        self.machine.validate(loc)
        if self.spec.scope == "global":
            return self._global_clock()
        if self.spec.scope == "node":
            key = (loc.node, -1)
        else:  # chip scope
            key = (loc.node, loc.chip)
        clock = self._clocks.get(key)
        if clock is None:
            clock = self._build(key)
            self._clocks[key] = clock
        return clock

    # ------------------------------------------------------------------
    def _global_clock(self) -> Clock:
        if self._global is None:
            self._global = Clock(
                drift=ConstantDrift(0.0, 0.0),
                resolution=self.spec.resolution,
                read_overhead=self.spec.read_overhead,
                read_jitter=self.spec.read_jitter,
                rng=self.fabric.generator("clock-jitter", "global"),
                name=f"{self.spec.name}@global",
            )
        return self._global

    def _node_base(self, node: int) -> DriftModel:
        base = self._node_bases.get(node)
        if base is None:
            rng = self.fabric.generator("clock-drift", self.spec.name, node)
            base = self.spec.drift_builder(rng, self.duration)
            self._node_bases[node] = base
        return base

    def _build(self, key: tuple[int, int]) -> Clock:
        node, chip = key
        drift = self._node_base(node)
        if chip >= 0:
            # Per-chip deviation from the node oscillator.
            rng = self.fabric.generator("clock-chip", self.spec.name, node, chip)
            chip_offset = float(
                rng.uniform(-self.spec.chip_offset_spread, self.spec.chip_offset_spread)
            )
            chip_rate = (
                float(rng.normal(0.0, self.spec.chip_rate_spread))
                if self.spec.chip_rate_spread > 0.0
                else 0.0
            )
            if chip_offset != 0.0 or chip_rate != 0.0:
                drift = CompositeDrift([drift, ConstantDrift(chip_rate, chip_offset)])
        label = f"{self.spec.name}@n{node}" + (f"c{chip}" if chip >= 0 else "")
        return Clock(
            drift=drift,
            resolution=self.spec.resolution,
            read_overhead=self.spec.read_overhead,
            read_jitter=self.spec.read_jitter,
            rng=self.fabric.generator("clock-jitter", self.spec.name, node, chip),
            name=label,
        )
