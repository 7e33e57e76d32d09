"""Sweep3D surrogate: pipelined wavefront sweeps.

Sweep3D (the ASCI deterministic S_n transport benchmark) is the
canonical *pipelined* communication pattern: a 2-D process grid sweeps
wavefronts from each corner; every cell waits for its upstream
neighbours, computes, and feeds its downstream neighbours.  The pattern
matters for this library because it produces long *happened-before
chains* — the quantity that governs the replay-parallel CLC's round
count — and dense Late Sender chains for wait-state analysis, both of
which the stencil (POP) and strided (SMG2000) surrogates lack.

Per sweep direction (one of the four corners), each rank:

1. receives from its upstream x- and y-neighbours (if any),
2. computes its block of angles,
3. sends to its downstream neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Sweep3dConfig", "sweep3d_worker"]

SWEEP_REGION = 401
SWEEP_TAG = 41

#: The four sweep corners as (x direction, y direction).
DIRECTIONS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


@dataclass(frozen=True)
class Sweep3dConfig:
    """Run shape of the Sweep3D surrogate.

    Attributes
    ----------
    iterations:
        Outer source iterations; each performs all four corner sweeps.
    grid:
        Process grid ``(px, py)``; must match the job size.
    cell_time:
        Compute time per rank per sweep, seconds.
    msg_bytes:
        Bytes per pipeline message (angle-block boundary data).
    imbalance:
        Relative std-dev of per-rank cell time.
    """

    iterations: int = 4
    grid: tuple[int, int] = (4, 2)
    cell_time: float = 2.0e-4
    msg_bytes: int = 1024
    imbalance: float = 0.05

    def __post_init__(self) -> None:
        if self.iterations <= 0 or self.cell_time <= 0:
            raise ConfigurationError("iterations and cell_time must be positive")
        px, py = self.grid
        if px <= 0 or py <= 0:
            raise ConfigurationError(f"invalid grid {self.grid}")


def sweep3d_worker(config: Sweep3dConfig, seed: int = 0):
    """Build the Sweep3D surrogate worker for ``MpiWorld.run``."""

    def worker(ctx):
        px, py = config.grid
        if px * py != ctx.size:
            raise ConfigurationError(
                f"grid {config.grid} needs {px * py} ranks, job has {ctx.size}"
            )
        x, y = ctx.rank % px, ctx.rank // px
        rng = np.random.default_rng((seed << 8) ^ (ctx.rank + 3))

        for _ in range(config.iterations):
            yield from ctx.enter_region(SWEEP_REGION)
            for dx, dy in DIRECTIONS:
                up_x = x - dx
                up_y = y - dy
                down_x = x + dx
                down_y = y + dy
                # Wait for upstream wavefront data.
                if 0 <= up_x < px:
                    yield from ctx.recv(src=y * px + up_x, tag=SWEEP_TAG)
                if 0 <= up_y < py:
                    yield from ctx.recv(src=up_y * px + x, tag=SWEEP_TAG)
                work = config.cell_time * float(rng.normal(1.0, config.imbalance))
                yield from ctx.compute(max(work, 0.0))
                # Feed downstream.
                if 0 <= down_x < px:
                    yield from ctx.send(
                        y * px + down_x, tag=SWEEP_TAG, nbytes=config.msg_bytes
                    )
                if 0 <= down_y < py:
                    yield from ctx.send(
                        down_y * px + x, tag=SWEEP_TAG, nbytes=config.msg_bytes
                    )
            yield from ctx.exit_region(SWEEP_REGION)
        return config.iterations

    worker.batch_key = ("sweep3d", config, seed)
    return worker
