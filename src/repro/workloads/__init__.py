"""Synthetic application workloads.

Stand-ins for the paper's evaluation codes, matched on the property the
study depends on — the *communication pattern* and run length:

* :mod:`repro.workloads.pingpong` — latency measurement kernels
  (Table II);
* :mod:`repro.workloads.pop` — Parallel Ocean Program surrogate: 2-D
  stencil halo exchange + global reductions, partial tracing window;
* :mod:`repro.workloads.smg2000` — semicoarsening multigrid surrogate:
  long-range non-nearest-neighbour exchanges in V-cycles, sleep-padded
  like the paper's emulated long run;
* :mod:`repro.workloads.sparse` — randomized sparse point-to-point
  pattern for stress/property tests;
* :mod:`repro.workloads.sweep3d` — pipelined wavefront sweeps (long
  happened-before chains, dense Late Sender chains).

All builders return a ``worker(ctx)`` generator suitable for
:meth:`repro.mpi.runtime.MpiWorld.run`.  Each worker also carries a
``batch_key``: it opts the worker into the batch engine
(:func:`repro.sim.batch.run_batch`) and keys that engine's plan cache.
The key promises that control flow, sends and receives depend only on
rank, size and the key, and that clock readings shape only the return
value.  The batch engine records its plan by running the worker itself,
with every received payload an empty mapping, so nothing else is
needed to run a workload batched.

The :data:`WORKLOADS` registry maps each workload name to a builder
with the uniform signature ``(nprocs, scale, seed) -> BuiltWorkload``;
:func:`build_workload` is the dispatching front door the CLI uses, so
adding a workload here makes it runnable via ``repro simulate
--workload <name>`` without touching the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.workloads.pingpong import collective_timing_worker, pingpong_worker
from repro.workloads.pop import PopConfig, pop_worker
from repro.workloads.smg2000 import Smg2000Config, smg2000_worker
from repro.workloads.sparse import SparseConfig, sparse_worker
from repro.workloads.sweep3d import Sweep3dConfig, sweep3d_worker

__all__ = [
    "pingpong_worker",
    "collective_timing_worker",
    "PopConfig",
    "pop_worker",
    "Smg2000Config",
    "smg2000_worker",
    "SparseConfig",
    "sparse_worker",
    "Sweep3dConfig",
    "sweep3d_worker",
    "BuiltWorkload",
    "WORKLOADS",
    "build_workload",
    "most_square_grid",
    "simulate_workload",
]


def most_square_grid(nprocs: int) -> tuple[int, int]:
    """Most-square 2-D factorization ``px * py == nprocs``, ``px >= py``."""
    if nprocs < 1:
        raise ConfigurationError(f"nprocs must be >= 1, got {nprocs}")
    py = int(nprocs**0.5)
    while nprocs % py:
        py -= 1
    return (nprocs // py, py)


@dataclass(frozen=True)
class BuiltWorkload:
    """A ready-to-run workload plus the run knobs it wants.

    ``duration_hint`` is the true-time horizon the drift paths must
    cover; ``tracing_initially`` is False for workloads that open their
    own tracing window mid-run (POP, SMG2000).
    """

    name: str
    worker: Callable
    duration_hint: float
    tracing_initially: bool = True


def _build_sparse(nprocs: int, scale: float, seed: int) -> BuiltWorkload:
    cfg = SparseConfig(rounds=max(int(100 * scale), 5))
    return BuiltWorkload("sparse", sparse_worker(cfg, seed=seed), 120.0)


def _build_pop(nprocs: int, scale: float, seed: int) -> BuiltWorkload:
    steps = max(int(9000 * scale), 20)
    cfg = PopConfig(
        steps=steps,
        step_time=0.165 * 9000 / steps,
        trace_window=(int(steps * 3500 / 9000), int(steps * 5500 / 9000)),
        grid=most_square_grid(nprocs),
    )
    return BuiltWorkload(
        "pop",
        pop_worker(cfg, seed=seed),
        cfg.steps * cfg.step_time * 1.2 + 60.0,
        tracing_initially=False,
    )


def _build_smg2000(nprocs: int, scale: float, seed: int) -> BuiltWorkload:
    cfg = Smg2000Config(cycles=max(int(5 * max(scale * 10, 0.2)), 1))
    return BuiltWorkload(
        "smg2000",
        smg2000_worker(cfg, seed=seed),
        cfg.pre_sleep + cfg.post_sleep + 240.0,
        tracing_initially=False,
    )


def _build_sweep3d(nprocs: int, scale: float, seed: int) -> BuiltWorkload:
    cfg = Sweep3dConfig(
        iterations=max(int(200 * scale), 2), grid=most_square_grid(nprocs)
    )
    px, py = cfg.grid
    hint = cfg.iterations * 4 * (px + py) * cfg.cell_time * 20.0 + 60.0
    return BuiltWorkload("sweep3d", sweep3d_worker(cfg, seed=seed), hint)


def _build_pingpong(nprocs: int, scale: float, seed: int) -> BuiltWorkload:
    repeats = max(int(5000 * scale), 10)
    return BuiltWorkload(
        "pingpong", pingpong_worker(repeats=repeats), max(repeats * 1e-4, 10.0)
    )


def _build_collective_timing(nprocs: int, scale: float, seed: int) -> BuiltWorkload:
    repeats = max(int(1000 * scale), 5)
    return BuiltWorkload(
        "collective_timing",
        collective_timing_worker(repeats=repeats),
        max(repeats * 1e-3, 10.0),
    )


#: Workload name -> builder ``(nprocs, scale, seed) -> BuiltWorkload``.
WORKLOADS: dict[str, Callable[[int, float, int], BuiltWorkload]] = {
    "sparse": _build_sparse,
    "pop": _build_pop,
    "smg2000": _build_smg2000,
    "sweep3d": _build_sweep3d,
    "pingpong": _build_pingpong,
    "collective_timing": _build_collective_timing,
}


def build_workload(
    name: str, nprocs: int = 8, scale: float = 0.02, seed: int = 0
) -> BuiltWorkload:
    """Build workload ``name`` at ``scale`` for a ``nprocs``-rank job."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {', '.join(sorted(WORKLOADS))}"
        ) from None
    return builder(nprocs, scale, seed)


def simulate_workload(
    name: str,
    nprocs: int = 8,
    scale: float = 0.02,
    seed: int = 0,
    platform: str = "xeon",
    placement: str = "scheduler",
    timer: str | None = None,
    *,
    options=None,
):
    """Run a built-in workload exactly the way ``repro simulate`` does.

    One shared construction — a :class:`~repro.core.api.TracingSession`
    with the workload's duration hint and the CLI's OS-jitter model — so
    every consumer (the CLI, the correction service of
    :mod:`repro.service`, scripts) produces bit-identical traces for the
    same arguments.  Returns the :class:`~repro.mpi.runtime.RunResult`.

    ``placement`` is ``"spread"`` (one process per node) or
    ``"scheduler"`` (packed, the CLI default); ``options`` is a
    :class:`~repro.options.RunOptions` consulted for engine, telemetry,
    and out-of-core spilling.
    """
    from repro.cluster.jitter import OsJitterModel
    from repro.core.api import TracingSession
    from repro.options import RunOptions

    built = build_workload(name, nprocs, scale, seed)
    session = TracingSession(
        platform, nprocs, placement, timer,
        duration_hint=built.duration_hint,
        jitter=OsJitterModel(rate=10.0, mean_delay=5e-6),
        options=(options or RunOptions()).replace(seed=seed),
    )
    return session.trace(built.worker, tracing_initially=built.tracing_initially)
