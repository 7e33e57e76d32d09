"""Randomized sparse communication pattern (stress/property testing).

Generates a deterministic random schedule of point-to-point rounds and
occasional collectives, the same on every rank (so matching always
closes), with randomized compute between rounds.  Used by property
tests to exercise matching, violation scanning, and the CLC on traces
with no regular structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SparseConfig", "sparse_worker"]

SPARSE_TAG = 21


@dataclass(frozen=True)
class SparseConfig:
    """Shape of the random pattern.

    Attributes
    ----------
    rounds:
        Communication rounds.
    density:
        Probability that an ordered rank pair exchanges a message in a
        given round.
    collective_every:
        Insert an allreduce every k rounds (0 disables).
    compute_scale:
        Mean compute time between rounds, seconds.
    """

    rounds: int = 20
    density: float = 0.15
    collective_every: int = 5
    compute_scale: float = 1e-4

    def __post_init__(self) -> None:
        if self.rounds <= 0 or not 0.0 <= self.density <= 1.0:
            raise ConfigurationError("invalid sparse workload config")


def sparse_worker(config: SparseConfig, seed: int = 0):
    """Build the sparse worker; the schedule is a pure function of
    ``(seed, size)`` so every rank derives the identical plan."""

    def worker(ctx):
        n = ctx.size
        plan_rng = np.random.default_rng(seed)  # same plan on every rank
        my_rng = np.random.default_rng((seed << 8) ^ (ctx.rank + 17))
        for rnd in range(config.rounds):
            pairs = plan_rng.random((n, n)) < config.density
            np.fill_diagonal(pairs, False)
            yield from ctx.compute(float(my_rng.exponential(config.compute_scale)))
            # Post all sends of this round first (eager), then receives:
            # deadlock-free for arbitrary patterns.
            for dst in range(n):
                if pairs[ctx.rank, dst]:
                    yield from ctx.send(dst, tag=SPARSE_TAG, nbytes=64)
            for src in range(n):
                if pairs[src, ctx.rank]:
                    yield from ctx.recv(src=src, tag=SPARSE_TAG)
            if config.collective_every and (rnd + 1) % config.collective_every == 0:
                yield from ctx.allreduce(nbytes=8, value=1)
        return config.rounds

    worker.batch_key = ("sparse", config, seed)
    return worker
