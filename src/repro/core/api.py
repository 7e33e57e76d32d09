"""The :class:`TracingSession` façade.

Bundles platform selection, placement, timer choice, tracing, and
synchronization behind a handful of calls::

    from repro import RunOptions, TracingSession
    from repro.workloads import PopConfig, pop_worker

    session = TracingSession(platform="xeon", nprocs=8, timer="tsc",
                             options=RunOptions(seed=42))
    run = session.trace(pop_worker(PopConfig(steps=100, step_time=1e-3,
                                             trace_window=None, grid=(4, 2))))
    report = session.synchronize(run)
    print(report.summary())

Everything the façade does is also reachable through what it wraps: the
:class:`~repro.mpi.runtime.MpiWorld` it exposes as ``session.world``
and :func:`~repro.core.correct.correct_trace`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.jitter import OsJitterModel
from repro.cluster.machines import (
    ClusterPreset,
    itanium_node,
    opteron_cluster,
    powerpc_cluster,
    xeon_cluster,
)
from repro.cluster.pinning import Pinning, resolve_placement
from repro.core.correct import CorrectionResult, correct_trace
from repro.errors import ConfigurationError
from repro.mpi.runtime import MpiWorld, RunResult
from repro.options import RunOptions

__all__ = ["TracingSession", "PLATFORMS"]

#: Platform name -> preset factory.
PLATFORMS: dict[str, Callable[[], ClusterPreset]] = {
    "xeon": xeon_cluster,
    "powerpc": powerpc_cluster,
    "opteron": opteron_cluster,
    "itanium": itanium_node,
}


class TracingSession:
    """One experiment context: platform + placement + timer + seed.

    Parameters
    ----------
    platform:
        One of :data:`PLATFORMS` ("xeon", "powerpc", "opteron",
        "itanium") or a :class:`ClusterPreset`.
    nprocs:
        Job size.
    placement:
        "spread" (one process per node, Table I inter-node style) or
        "scheduler" (packed, scheduler-chosen, the Fig. 7 scenario), or
        an explicit :class:`Pinning`.
    timer:
        Timer technology; ``None`` uses the platform's paper default.
    duration_hint:
        Upper bound on the run's true-time length, seconds.
    jitter:
        OS-noise model; defaults to a modest compute-node profile.
    options:
        A :class:`repro.options.RunOptions`, the session's only run
        configuration; ``seed`` (the root seed for all randomness,
        default 0), ``engine``, and ``telemetry`` configure every
        :meth:`trace` run of the session, and :meth:`synchronize` hands
        ``options.telemetry`` to :func:`correct_trace`.
    """

    def __init__(
        self,
        platform: str | ClusterPreset = "xeon",
        nprocs: int = 4,
        placement: str | Pinning = "spread",
        timer: Optional[str] = None,
        duration_hint: float = 3700.0,
        jitter: Optional[OsJitterModel] = None,
        *,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.options = options or RunOptions()
        seed = self.options.resolved_seed(0)
        if isinstance(platform, str):
            if platform not in PLATFORMS:
                raise ConfigurationError(
                    f"unknown platform {platform!r}; options: {sorted(PLATFORMS)}"
                )
            platform = PLATFORMS[platform]()
        self.preset = platform
        self.seed = seed
        pin = resolve_placement(placement, self.preset.machine, nprocs, seed)
        self.world = MpiWorld(
            self.preset,
            pin,
            timer=timer,
            seed=seed,
            duration_hint=duration_hint,
            jitter=jitter if jitter is not None else OsJitterModel.compute_node(),
        )

    # ------------------------------------------------------------------
    @property
    def pinning(self) -> Pinning:
        return self.world.pinning

    def trace(self, worker, **run_kwargs) -> RunResult:
        """Run ``worker`` under tracing with offset measurements.

        The session's :class:`~repro.options.RunOptions` (engine,
        telemetry) apply unless ``run_kwargs`` overrides ``options=``.
        """
        run_kwargs.setdefault("options", self.options)
        return self.world.run(worker, tracing=True, measure_offsets=True, **run_kwargs)

    def lmin_matrix(self) -> np.ndarray:
        """Pairwise minimum-latency floors for the session's placement."""
        n = self.pinning.nranks
        mat = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    mat[i, j] = self.world.min_latency(i, j)
        return mat

    def synchronize(self, run: RunResult, **correct_kwargs) -> CorrectionResult:
        """Correct and verify a traced run: :func:`correct_trace` with the
        session's latency floors and telemetry."""
        correct_kwargs.setdefault("telemetry", self.options.telemetry)
        return correct_trace(run, lmin=self.lmin_matrix(), **correct_kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TracingSession(platform={self.preset.machine.name!r}, "
            f"nprocs={self.pinning.nranks}, timer={self.world.spec.name!r}, "
            f"seed={self.seed})"
        )
