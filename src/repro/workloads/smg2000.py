"""ASC SMG2000 surrogate: semicoarsening multigrid V-cycles.

The paper configured SMG2000 with a 16x16x8 per-process problem and five
solver iterations, then *"emulated a longer run ... by inserting sleep
statements immediately before and after the main computational phase so
that it was carried out ten minutes after initialization and ten minutes
before finalization"*, stretching the interpolation interval to ~20
minutes.

SMG2000's signature — the reason the paper picked it — is a *"complex
communication pattern and ... a large number of non-nearest-neighbor
point-to-point communication operations"*: semicoarsening doubles the
communication stride at every grid level.  The surrogate reproduces
exactly that: processes form a 1-D chain (the coarsening direction);
each V-cycle descends levels ``0..L-1`` exchanging with partners at
stride ``2**level`` (and back up), with residual-norm allreduces between
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Smg2000Config", "smg2000_worker"]

CYCLE_REGION = 201
#: Each grid level's smooth+exchange is instrumented as its own region
#: (region id = LEVEL_REGION_BASE + level), like hypre's per-level
#: routines appear in a real instrumented SMG2000 trace.
LEVEL_REGION_BASE = 210
LEVEL_TAG_BASE = 300


@dataclass(frozen=True)
class Smg2000Config:
    """Run shape of the SMG2000 surrogate.

    Attributes
    ----------
    cycles:
        Solver iterations (paper: 5 V-cycles).
    levels:
        Grid levels per cycle; ``None`` uses ``floor(log2(size))``.
    smooth_time:
        Compute time per level per direction, seconds.
    msg_bytes:
        Bytes per level exchange.
    pre_sleep / post_sleep:
        Idle stretches before/after the solve (paper: 600 s each).
    imbalance:
        Relative std-dev of per-rank smoothing time.
    """

    cycles: int = 5
    levels: int | None = None
    smooth_time: float = 0.02
    msg_bytes: int = 2048
    pre_sleep: float = 600.0
    post_sleep: float = 600.0
    imbalance: float = 0.03

    def __post_init__(self) -> None:
        if self.cycles <= 0 or self.smooth_time <= 0:
            raise ConfigurationError("cycles and smooth_time must be positive")
        if self.pre_sleep < 0 or self.post_sleep < 0:
            raise ConfigurationError("sleeps must be non-negative")


def smg2000_worker(config: Smg2000Config, seed: int = 0):
    """Build the SMG2000 surrogate worker for ``MpiWorld.run``."""

    def worker(ctx):
        n = ctx.size
        levels = config.levels
        if levels is None:
            levels = max(1, int(np.floor(np.log2(max(n, 2)))))
        rng = np.random.default_rng((seed << 8) ^ (ctx.rank + 1))

        ctx.set_tracing(False)
        yield from ctx.sleep(config.pre_sleep)
        ctx.set_tracing(True)

        for cycle in range(config.cycles):
            yield from ctx.enter_region(CYCLE_REGION)
            # Downward sweep: exchanges at growing stride (coarsening).
            for level in range(levels):
                yield from _level_exchange(ctx, config, rng, level, n)
            # Upward sweep: strides shrink again (interpolation).
            for level in range(levels - 1, -1, -1):
                yield from _level_exchange(ctx, config, rng, level, n)
            # Residual norm.
            yield from ctx.allreduce(nbytes=8, value=1.0)
            yield from ctx.exit_region(CYCLE_REGION)

        ctx.set_tracing(False)
        yield from ctx.sleep(config.post_sleep)
        return config.cycles

    worker.batch_key = ("smg2000", config, seed)
    return worker


def _level_exchange(ctx, config: Smg2000Config, rng, level: int, n: int):
    """Smooth, then exchange with the two partners at stride 2**level.

    Partners wrap modulo the job size; at coarse levels this reaches
    *far* across the machine — the non-nearest-neighbour traffic that
    distinguishes SMG2000 from stencil codes.
    """
    stride = 1 << level
    up = (ctx.rank + stride) % n
    down = (ctx.rank - stride) % n
    yield from ctx.enter_region(LEVEL_REGION_BASE + level)
    work = config.smooth_time * float(rng.normal(1.0, config.imbalance))
    yield from ctx.compute(max(work, 0.0))
    tag = LEVEL_TAG_BASE + level
    if up != ctx.rank:
        yield from ctx.send(up, tag=tag, nbytes=config.msg_bytes)
        yield from ctx.send(down, tag=tag, nbytes=config.msg_bytes)
        yield from ctx.recv(src=down, tag=tag)
        yield from ctx.recv(src=up, tag=tag)
    yield from ctx.exit_region(LEVEL_REGION_BASE + level)

