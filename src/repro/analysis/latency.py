"""In-simulation latency measurement (Table II).

Runs the ping-pong / collective kernels of
:mod:`repro.workloads.pingpong` under a given pinning and reports the
quantities Table II lists per placement (inter-node / inter-chip /
inter-core message latency and the inter-node collective latency) as a
full :class:`repro.stats.SampleSummary`: mean, median, a Student t
confidence interval at a configurable level, an optional deterministic
bootstrap interval, and — when ``runs > 1`` or a
:class:`repro.stats.StoppingRule` asks for repetitions — the run-to-run
variance across independent simulations (distinct derived seeds).

Note that these are *measured through the simulated clocks*, exactly
like the paper's numbers: the reported mean includes clock read
overheads and send/receive software overheads on top of the wire floor,
and the spread reflects network jitter, OS noise and timer quantization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machines import ClusterPreset
from repro.cluster.pinning import Pinning
from repro.mpi.runtime import MpiWorld
from repro.options import RunOptions
from repro.rng import stable_hash32
from repro.stats import DEFAULT_LEVEL, SampleSummary, StoppingRule, collect_runs, summarize
from repro.workloads.pingpong import collective_timing_worker, pingpong_worker

__all__ = ["LatencyStats", "measure_latency", "measure_collective_latency"]


@dataclass(frozen=True)
class LatencyStats:
    """One latency measurement; the numbers (seconds) and their
    uncertainty are on ``summary`` (``.mean``, ``.median``, ``.std``,
    ``.std_of_mean``, ``.n``, ``.runs``, ``.ci_lower`` / ``.ci_upper``)."""

    label: str
    floor: float  # the model's l_min for this placement
    summary: SampleSummary

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label}: {self.summary.describe(unit_scale=1e6, unit='us')}"


def _measure(
    worker_factory,
    preset: ClusterPreset,
    pinning: Pinning,
    repeats: int,
    nbytes: int,
    seed: int,
    timer: str | None,
    label: str,
    engine: str,
    duration_scale: float,
    runs: int,
    level: float,
    bootstrap: int,
    stopping: StoppingRule | None,
) -> LatencyStats:
    """Shared repetition loop behind both measurement entry points.

    Run 0 uses the base seed itself (a single-run measurement is
    bit-identical to pre-1.7 output); later runs derive independent
    seeds from ``(seed, label, run)``.
    """
    floor = preset.latency.min_latency(pinning[0], pinning[1], nbytes)

    def one_run(run_index: int) -> np.ndarray:
        run_seed = seed if run_index == 0 else stable_hash32(
            ("seed", int(seed)), "latency", label, run_index
        )
        world = MpiWorld(
            preset,
            pinning,
            timer=timer,
            seed=run_seed,
            duration_hint=max(repeats * duration_scale, 10.0),
        )
        result = world.run(
            worker_factory(repeats=repeats, nbytes=nbytes),
            tracing=False,
            measure_offsets=False,
            options=RunOptions(engine=engine),
        )
        return np.asarray(result.results[0], dtype=np.float64)

    run_samples = collect_runs(one_run, runs=runs, stopping=stopping, level=level)
    summary = summarize(
        run_samples, level=level, bootstrap=bootstrap,
        seed=stable_hash32(("seed", int(seed)), "latency-bootstrap", label),
    )
    return LatencyStats(label=label, floor=floor, summary=summary)


def measure_latency(
    preset: ClusterPreset,
    pinning: Pinning,
    repeats: int = 1000,
    seed: int = 0,
    timer: str | None = None,
    label: str | None = None,
    engine: str = "reference",
    runs: int = 1,
    level: float = DEFAULT_LEVEL,
    bootstrap: int = 0,
    stopping: StoppingRule | None = None,
) -> LatencyStats:
    """One-way latency of a zero-byte message between ranks 0 and 1 of
    ``pinning``.

    ``runs`` independent simulations (distinct derived seeds) are pooled
    into one :class:`~repro.stats.SampleSummary`; a ``stopping`` rule
    instead adds runs until the CI is tight enough (see
    :func:`repro.stats.collect_runs`).  ``bootstrap`` > 0 adds a
    deterministic percentile bootstrap interval with that many
    resamples.
    """
    return _measure(
        pingpong_worker, preset, pinning, repeats, 0, seed, timer,
        label or pinning.label or "latency", engine,
        duration_scale=1e-4, runs=runs, level=level, bootstrap=bootstrap,
        stopping=stopping,
    )


def measure_collective_latency(
    preset: ClusterPreset,
    pinning: Pinning,
    repeats: int = 200,
    seed: int = 0,
    timer: str | None = None,
    label: str | None = None,
    engine: str = "reference",
    runs: int = 1,
    level: float = DEFAULT_LEVEL,
    bootstrap: int = 0,
    stopping: StoppingRule | None = None,
) -> LatencyStats:
    """Completion latency of an 8-byte allreduce over all ranks of ``pinning``.

    Repetition semantics match :func:`measure_latency`.
    """
    return _measure(
        collective_timing_worker, preset, pinning, repeats, 8, seed,
        timer, label or "collective", engine,
        duration_scale=1e-3, runs=runs, level=level, bootstrap=bootstrap,
        stopping=stopping,
    )
