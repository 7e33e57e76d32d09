"""Parallel Ocean Program (POP) surrogate.

The paper traced POP from SPEC MPI2007 (mref data set): ~9000 timestep
iterations in roughly 25 minutes on 32 processes, with only iterations
3500-5500 traced ("partial tracing ... of pivotal points of long-running
applications").

What matters for clock-condition statistics is POP's communication
structure, which this surrogate reproduces:

* a 2-D logically-rectangular domain decomposition (periodic in x — the
  global ocean — bounded in y);
* per timestep: enter/exit of the step region, halo exchange with the
  four neighbours (eight point-to-point events per rank), and the
  barotropic solver's global reductions (allreduces);
* mild per-rank load imbalance plus OS jitter, which spreads the true
  event times the same way real wait states do.

Untraced iterations can be "fast-forwarded" (compute only, no messages):
the surrogate then costs simulation effort proportional to the traced
window while still spanning the full wall-clock interval over which the
clocks drift — the quantity the experiment actually studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PopConfig", "pop_worker"]

#: Region ids recorded as ENTER/EXIT pairs (a real instrumented POP
#: records user functions too; these sub-phases give the trace a
#: realistic mix of region and message events for Fig. 7's back row).
STEP_REGION = 101
BAROCLINIC_REGION = 102
HALO_REGION = 103
BAROTROPIC_REGION = 104
HALO_TAG_X = 11
HALO_TAG_Y = 12


@dataclass(frozen=True)
class PopConfig:
    """Run shape of the POP surrogate.

    Attributes
    ----------
    steps:
        Total timesteps (paper: 9000).
    step_time:
        Nominal compute time per step, seconds (paper: ~25 min / 9000).
    trace_window:
        ``(first, last)`` step indices with tracing on (paper:
        (3500, 5500)); ``None`` traces everything.
    grid:
        Process grid ``(px, py)``; ``px * py`` must equal the job size.
    halo_bytes:
        Bytes per halo face message.
    reductions_per_step:
        Allreduces per step (barotropic CG iterations).
    imbalance:
        Relative std-dev of per-rank, per-step compute time.
    fast_forward:
        Skip messages outside the trace window (see module docs).
    row_reductions:
        Perform one of the barotropic reductions on a per-row
        sub-communicator (real POP splits row/column communicators for
        its solver).  Default off to keep the recorded Fig. 7 numbers
        stable; turn on for communicator-rich traces.
    """

    steps: int = 9000
    step_time: float = 0.165
    trace_window: tuple[int, int] | None = (3500, 5500)
    grid: tuple[int, int] = (8, 4)
    halo_bytes: int = 4096
    reductions_per_step: int = 2
    imbalance: float = 0.02
    fast_forward: bool = True
    row_reductions: bool = False

    def __post_init__(self) -> None:
        if self.steps <= 0 or self.step_time <= 0:
            raise ConfigurationError("steps and step_time must be positive")
        if self.trace_window is not None:
            lo, hi = self.trace_window
            if not 0 <= lo < hi <= self.steps:
                raise ConfigurationError(f"trace window {self.trace_window} out of range")


def pop_worker(config: PopConfig, seed: int = 0):
    """Build the POP surrogate worker for ``MpiWorld.run``."""

    def worker(ctx):
        px, py = config.grid
        if px * py != ctx.size:
            raise ConfigurationError(
                f"grid {config.grid} needs {px * py} ranks, job has {ctx.size}"
            )
        x, y = ctx.rank % px, ctx.rank // px
        # Periodic in x (global ocean), bounded in y.
        east = y * px + (x + 1) % px
        west = y * px + (x - 1) % px
        north = (y + 1) * px + x if y + 1 < py else None
        south = (y - 1) * px + x if y - 1 >= 0 else None
        rng = np.random.default_rng((seed << 8) ^ ctx.rank)

        row_comm = None
        if config.row_reductions:
            # Split once, before tracing starts (like MPI_Cart_sub at
            # model initialization).
            row_comm = yield from ctx.split(color=y, key=x)

        lo, hi = config.trace_window if config.trace_window else (0, config.steps)
        ctx.set_tracing(False)
        for step in range(config.steps):
            in_window = lo <= step < hi
            if step == lo:
                ctx.set_tracing(True)
            elif step == hi:
                ctx.set_tracing(False)
            if config.fast_forward and not in_window:
                yield from ctx.compute(config.step_time)
                continue

            yield from ctx.enter_region(STEP_REGION)
            # Baroclinic (3-D) phase: the bulk of the compute.
            yield from ctx.enter_region(BAROCLINIC_REGION)
            work = config.step_time * float(
                rng.normal(1.0, config.imbalance)
            )
            yield from ctx.compute(max(work, 0.0))
            yield from ctx.exit_region(BAROCLINIC_REGION)

            # Halo exchange: send all four faces, then receive them.
            yield from ctx.enter_region(HALO_REGION)
            yield from ctx.send(east, tag=HALO_TAG_X, nbytes=config.halo_bytes)
            yield from ctx.send(west, tag=HALO_TAG_X, nbytes=config.halo_bytes)
            if north is not None:
                yield from ctx.send(north, tag=HALO_TAG_Y, nbytes=config.halo_bytes)
            if south is not None:
                yield from ctx.send(south, tag=HALO_TAG_Y, nbytes=config.halo_bytes)
            yield from ctx.recv(src=west, tag=HALO_TAG_X)
            yield from ctx.recv(src=east, tag=HALO_TAG_X)
            if south is not None:
                yield from ctx.recv(src=south, tag=HALO_TAG_Y)
            if north is not None:
                yield from ctx.recv(src=north, tag=HALO_TAG_Y)
            yield from ctx.exit_region(HALO_REGION)

            # Barotropic (2-D) solver: global reductions per CG sweep
            # (optionally one on the row communicator, like POP's
            # distributed dot products).
            yield from ctx.enter_region(BAROTROPIC_REGION)
            for k in range(config.reductions_per_step):
                if row_comm is not None and k == 0:
                    yield from row_comm.allreduce(nbytes=8, value=1.0)
                else:
                    yield from ctx.allreduce(nbytes=8, value=1.0)
            yield from ctx.exit_region(BAROTROPIC_REGION)
            yield from ctx.exit_region(STEP_REGION)
        ctx.set_tracing(False)
        return config.steps

    worker.batch_key = ("pop", config, seed)
    return worker
