"""Unified run configuration: the frozen :class:`RunOptions` dataclass.

``RunOptions`` is the one way to configure a run; every simulator and
grid entry point (``TracingSession``, ``MpiWorld.run``, ``run_grid``,
the experiment drivers) takes it as ``options=`` and nothing else, so a
new concern is one new field here rather than a keyword on every
signature.  Correction entry points take a recorder as ``telemetry=``.

>>> from repro import RunOptions, TracingSession
>>> opts = RunOptions(engine="batch", seed=7)
>>> session = TracingSession(nprocs=4, options=opts)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.stats import StoppingRule

__all__ = ["ENGINES", "RunOptions"]

#: Engines accepted by ``RunOptions.engine`` / ``world.run``.
ENGINES = ("reference", "batch")


@dataclass(frozen=True)
class RunOptions:
    """Everything that configures *how* a run executes.

    Parameters
    ----------
    engine:
        ``"reference"`` (generator event loop) or ``"batch"`` (vectorized
        fast path with automatic fallback; see ``RunResult.fallback_reason``).
    jobs:
        Worker processes for grid fan-out (``None`` = serial).
    cache:
        A :class:`repro.cache.ResultCache`, or ``None`` to disable caching.
    seed:
        Master seed.  ``None`` means "use the entry point's historical
        default" (0 for sessions and most figures, 1 for fig8, 11 for the
        waitstate study), so a bare ``RunOptions()`` changes nothing.
    telemetry:
        A :class:`repro.telemetry.TelemetryRecorder`, or ``None`` for the
        shared zero-overhead null sink.
    trace_dir:
        Directory for an out-of-core sharded trace.  When set, the run
        spills events to a :class:`repro.tracing.store.ShardedTraceWriter`
        instead of materializing the full log, and ``RunResult.trace``
        is a :class:`repro.tracing.store.ChunkedTrace`.
    shard_events:
        Events per shard for ``trace_dir`` (default
        :data:`repro.tracing.store.DEFAULT_SHARD_EVENTS`).  Requires
        ``trace_dir``.
    stopping:
        A :class:`repro.stats.StoppingRule`, or ``None`` for a fixed
        repetition count.  Measurement drivers (Table II, fig7, fig8)
        consult it to add independent runs until the confidence interval
        of each reported mean undercuts the rule's relative-width
        target; see ``docs/methodology.md``.

    Instances are frozen; derive variants with :meth:`replace`.
    """

    engine: str = "reference"
    jobs: Optional[int] = None
    cache: Any = None
    seed: Optional[int] = None
    telemetry: Any = None
    trace_dir: Any = None
    shard_events: Optional[int] = None
    stopping: Optional[StoppingRule] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of {', '.join(ENGINES)}"
            )
        if self.jobs is not None and (not isinstance(self.jobs, int) or self.jobs < 1):
            raise ConfigurationError(f"jobs must be a positive int or None, got {self.jobs!r}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an int or None, got {self.seed!r}")
        if self.shard_events is not None:
            if not isinstance(self.shard_events, int) or self.shard_events < 1:
                raise ConfigurationError(
                    f"shard_events must be a positive int or None, got {self.shard_events!r}"
                )
            if self.trace_dir is None:
                raise ConfigurationError(
                    "shard_events requires trace_dir (it sizes the on-disk shards)"
                )
        if self.stopping is not None and not isinstance(self.stopping, StoppingRule):
            raise ConfigurationError(
                f"stopping must be a repro.stats.StoppingRule or None, "
                f"got {self.stopping!r}"
            )

    def replace(self, **changes) -> "RunOptions":
        """Return a copy with ``changes`` applied (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    def resolved_seed(self, default: int = 0) -> int:
        """The seed to use, falling back to the caller's historical default."""
        return default if self.seed is None else self.seed

