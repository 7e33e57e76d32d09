"""Job orchestration: clocks + network + tracing around an application.

:class:`MpiWorld` assembles everything a run needs (engine, transport,
clock ensemble, per-rank tracers) from a cluster preset, a pinning, and
a timer technology, and executes an application generator on every rank
the way Scalasca executes a traced job:

1. offset measurement against rank 0 during ``MPI_Init``;
2. the application;
3. offset measurement during ``MPI_Finalize``.

The returned :class:`RunResult` bundles the trace, both measurement
sets (the inputs to linear offset interpolation, Eq. 3), per-rank
return values, and engine statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.clocks.factory import ClockEnsemble, TimerSpec, timer_spec
from repro.cluster.jitter import OsJitterModel
from repro.cluster.machines import ClusterPreset
from repro.cluster.pinning import Pinning
from repro.errors import ConfigurationError
from repro.mpi.comm import MpiContext
from repro.options import RunOptions
from repro.rng import RngFabric
from repro.sim.engine import Engine, Transport
from repro.sync.offset import OffsetMeasurement, measurement_protocol, measurements_to_meta
from repro.telemetry import ensure_telemetry
from repro.tracing.buffer import TraceBuffer
from repro.tracing.instrument import Tracer
from repro.tracing.trace import Trace

__all__ = ["MpiWorld", "RunResult"]

Worker = Callable[[MpiContext], Any]


@dataclass
class RunResult:
    """Everything a finished run produced."""

    trace: Optional[Trace]
    init_offsets: Optional[dict[int, OffsetMeasurement]]
    final_offsets: Optional[dict[int, OffsetMeasurement]]
    results: dict[int, Any] = field(default_factory=dict)
    duration: float = 0.0
    events_processed: int = 0
    #: Measurement sets taken during collectives (Doleschal-style
    #: periodic synchronization); empty unless the world was configured
    #: with ``periodic_sync_every > 0``.
    periodic_offsets: list[dict[int, OffsetMeasurement]] = field(default_factory=list)
    #: Which execution path produced this result: ``"reference"`` (the
    #: discrete-event engine) or ``"batch"`` (the vectorized fast path of
    #: :mod:`repro.sim.batch`).  Both paths are bit-identical; this field
    #: exists so tests and oracles can assert the fast path engaged.
    engine: str = "reference"
    #: Post-run RNG stream positions (``{"network": state, "clocks":
    #: {rank: (jitter_rng_state | None, last_reading)}}``) — the
    #: ``batch_matches_engine`` oracle compares these to prove the fast
    #: path consumed every stream exactly as far as the engine did.
    rng_states: dict = field(default_factory=dict)
    #: When ``engine="batch"`` was requested but the vectorized fast path
    #: declined the workload, the machine-readable reason code from
    #: :class:`repro.sim.batch.BatchFallback` (e.g. ``"wildcard_recv"``,
    #: ``"congestion"``).  ``None`` when the fast path engaged or the
    #: reference engine was requested directly.  Recorded even with
    #: telemetry off, and round-trips through the runner and cache.
    fallback_reason: Optional[str] = None

    def all_measurement_sets(self) -> list[dict[int, OffsetMeasurement]]:
        """init + periodic + final, in run order (piecewise-ready)."""
        return [ms for ms in (self.init_offsets, *self.periodic_offsets, self.final_offsets) if ms]


class MpiWorld:
    """A configured cluster job, ready to :meth:`run` applications.

    Parameters
    ----------
    preset:
        Platform (machine + latency model + timer presets).
    pinning:
        Rank placement (defines both latencies and clock sharing).
    timer:
        Timer technology name (resolved against the preset's machine
        kind) or an explicit :class:`TimerSpec`.
    seed:
        Root seed; every random stream of the run derives from it.
    duration_hint:
        True-time horizon drift paths must cover, seconds.  Runs longer
        than the hint still work (models extrapolate), but the hint
        should normally be an upper bound.
    jitter:
        OS-noise model applied to application compute phases.
    send_overhead / recv_overhead:
        Per-message CPU costs charged by the transport.
    trace_buffer_capacity / record_cost / flush_cost:
        Trace-buffer behaviour (see :class:`TraceBuffer`).
    """

    def __init__(
        self,
        preset: ClusterPreset,
        pinning: Pinning,
        timer: str | TimerSpec | None = None,
        seed: int = 0,
        duration_hint: float = 3700.0,
        jitter: Optional[OsJitterModel] = None,
        send_overhead: float = 1.0e-7,
        recv_overhead: float = 1.0e-7,
        trace_buffer_capacity: int = 0,
        record_cost: float = 3.0e-8,
        flush_cost: float = 5.0e-3,
        mpi_regions: bool = False,
        periodic_sync_every: int = 0,
        periodic_sync_repeats: int = 3,
        congestion_alpha: float = 0.0,
        congestion_capacity: int = 16,
    ) -> None:
        if pinning.machine is not preset.machine and pinning.machine != preset.machine:
            raise ConfigurationError("pinning was built for a different machine")
        self.preset = preset
        self.pinning = pinning
        if timer is None:
            timer = preset.default_timer
        self.spec = timer if isinstance(timer, TimerSpec) else timer_spec(timer, preset.kind)
        self.fabric = RngFabric(seed)
        self.duration_hint = float(duration_hint)
        self.jitter = jitter if jitter is not None else OsJitterModel.quiet()
        self.send_overhead = send_overhead
        self.recv_overhead = recv_overhead
        self.trace_buffer_capacity = trace_buffer_capacity
        self.record_cost = record_cost
        self.flush_cost = flush_cost
        self.mpi_regions = mpi_regions
        self.periodic_sync_every = periodic_sync_every
        self.periodic_sync_repeats = periodic_sync_repeats
        #: Optional load-dependent latency inflation (Section III.c's
        #: "network load"); see :class:`repro.sim.engine.Transport`.
        self.congestion_alpha = congestion_alpha
        self.congestion_capacity = congestion_capacity
        self.ensemble = ClockEnsemble(preset.machine, self.spec, self.fabric, self.duration_hint)

    # ------------------------------------------------------------------
    def run(
        self,
        worker: Worker,
        tracing: bool = True,
        measure_offsets: bool = True,
        sync_repeats: int = 10,
        tracing_initially: bool = True,
        until: Optional[float] = None,
        *,
        options: Optional[RunOptions] = None,
    ) -> RunResult:
        """Execute ``worker`` on every rank.

        Parameters
        ----------
        worker:
            ``worker(ctx)`` generator run by each rank.
        tracing:
            Attach tracers and build a :class:`Trace`.
        measure_offsets:
            Run the Cristian protocol at init and finalize (the
            Scalasca scheme).  Without it, interpolation has no inputs.
        sync_repeats:
            Exchanges per worker per measurement (min-RTT wins).
        tracing_initially:
            Initial recording state; workloads may toggle via
            ``ctx.set_tracing`` (partial tracing).
        until:
            Optional true-time cap for the event loop.
        options:
            A :class:`repro.options.RunOptions`, the run's only
            configuration; ``engine``, ``telemetry`` and
            ``trace_dir``/``shard_events`` are consulted here (seeding
            is fixed at world construction).  ``engine="reference"``
            runs the discrete-event engine; ``"batch"`` tries the
            vectorized fast path of :mod:`repro.sim.batch` and falls
            back to the reference engine whenever bit-identity cannot
            be guaranteed.  Both produce identical results; check
            ``RunResult.engine`` for the path actually taken and
            ``RunResult.fallback_reason`` for why a fallback happened.
            With ``trace_dir`` set, trace events spill into a
            :class:`repro.tracing.store.ShardedTraceWriter` as they are
            recorded (out-of-core generation: no rank ever holds more
            than one shard), and ``RunResult.trace`` is a
            :class:`repro.tracing.store.ChunkedTrace` over that
            directory.
        """
        options = options or RunOptions()
        tele = ensure_telemetry(options.telemetry)
        trace_sink = None
        if options.trace_dir is not None:
            from repro.tracing.store import DEFAULT_SHARD_EVENTS, ShardedTraceWriter

            trace_sink = ShardedTraceWriter(
                options.trace_dir,
                shard_events=options.shard_events or DEFAULT_SHARD_EVENTS,
                run_id="run",
            )
        fallback_reason = None
        if options.engine == "batch" and tracing and trace_sink is not None:
            # The batch planner emits whole timelines at once; spilling
            # per shard requires the incremental engine path.
            fallback_reason = "trace_sink"
            tele.count("sim.batch.fallback.trace_sink")
        elif options.engine == "batch":
            from repro.sim.batch import BatchFallback, run_batch

            try:
                with tele.span("sim.batch.run", nranks=self.pinning.nranks):
                    result = run_batch(
                        self,
                        worker,
                        tracing=tracing,
                        measure_offsets=measure_offsets,
                        sync_repeats=sync_repeats,
                        tracing_initially=tracing_initially,
                        until=until,
                        telemetry=tele,
                    )
                if tele.enabled:
                    tele.count("sim.batch.engaged")
                    tele.count("sim.batch.events", result.events_processed)
                return result
            except BatchFallback as fb:
                # Run the reference engine below; results identical.  The
                # reason survives on the result even with telemetry off.
                fallback_reason = fb.code
                tele.count(f"sim.batch.fallback.{fb.code}")
        engine = Engine(
            Transport(
                self.preset.latency,
                self.fabric.generator("network"),
                send_overhead=self.send_overhead,
                recv_overhead=self.recv_overhead,
                congestion_alpha=self.congestion_alpha,
                congestion_capacity=self.congestion_capacity,
            )
        )
        nranks = self.pinning.nranks
        tracers: dict[int, Tracer] = {}
        costs = dict(capacity=self.trace_buffer_capacity,
                     record_cost=self.record_cost, flush_cost=self.flush_cost)
        for rank in range(nranks):
            loc = self.pinning[rank]
            tracer = None
            if tracing:
                if trace_sink is not None:
                    from repro.tracing.store import SpillingTraceBuffer

                    buffer = SpillingTraceBuffer(trace_sink, rank, **costs)
                else:
                    buffer = TraceBuffer(**costs)
                tracer = Tracer(buffer, active=tracing_initially)
                tracers[rank] = tracer
            ctx = MpiContext(
                rank=rank,
                size=nranks,
                location=loc,
                jitter_model=self.jitter,
                jitter_rng=self.fabric.generator("jitter", rank),
                tracer=tracer,
                mpi_regions=self.mpi_regions,
            )
            ctx.periodic_sync_every = self.periodic_sync_every
            ctx.periodic_sync_repeats = self.periodic_sync_repeats
            if rank == 0:
                master_ctx = ctx
            engine.add_process(
                rank,
                self._main(ctx, worker, measure_offsets, sync_repeats),
                loc,
                self.ensemble.clock_for(loc),
            )
        with tele.span("sim.engine.run", nranks=nranks):
            final_time = engine.run(until=until)
        if tele.enabled:
            # Aggregate once per run — never per event — so the loop
            # itself stays telemetry-free.
            tele.count("sim.engine.events", engine.events_processed)
            tele.count("sim.engine.messages_matched", engine._next_match_id)
            tele.gauge_max("sim.engine.queue_depth_high_water", engine.queue_high_water)
            tele.gauge_max("sim.engine.peak_in_flight", engine.transport.peak_in_flight)

        init_offsets = final_offsets = None
        results: dict[int, Any] = {}
        for rank in range(nranks):
            app_result, init_off, final_off = engine.result_of(rank)
            results[rank] = app_result
            if rank == 0:
                init_offsets, final_offsets = init_off, final_off

        trace = None
        if tracing:
            meta = self._trace_meta(
                final_time, init_offsets, final_offsets, master_ctx.periodic_series
            )
            if trace_sink is not None:
                from repro.tracing.store import ChunkedTrace, ShardedTraceReader

                for tracer in tracers.values():
                    tracer.buffer.drain()
                trace_sink.finish(meta=meta)
                trace = ChunkedTrace(ShardedTraceReader(trace_sink.directory))
            else:
                trace = Trace({r: t.log for r, t in tracers.items()}, meta=meta)

        return RunResult(
            trace=trace,
            init_offsets=init_offsets,
            final_offsets=final_offsets,
            results=results,
            duration=final_time,
            events_processed=engine.events_processed,
            periodic_offsets=list(master_ctx.periodic_series),
            engine="reference",
            rng_states=self._rng_states(engine.transport.rng),
            fallback_reason=fallback_reason,
        )

    # ------------------------------------------------------------------
    # Shared by both engines (the loop above and repro.sim.batch.run_batch).
    def _trace_meta(self, duration, init_offsets, final_offsets, periodic) -> dict:
        """A finished run's trace metadata; its key order is in the trace bytes."""
        return {
            "machine": self.preset.machine.name,
            "timer": self.spec.name,
            "locations": [(loc.node, loc.chip, loc.core) for loc in self.pinning.locations],
            "duration": duration,
            **measurements_to_meta(init_offsets, final_offsets, periodic),
        }

    def _rng_states(self, network) -> dict:
        """``RunResult.rng_states``: where ``network`` and each clock stream stopped."""
        clocks = [self.ensemble.clock_for(loc) for loc in self.pinning.locations]
        return {
            "network": network.bit_generator.state,
            "clocks": {
                rank: (
                    clock.rng.bit_generator.state if clock.rng is not None else None,
                    clock._last,
                )
                for rank, clock in enumerate(clocks)
            },
        }

    def _main(self, ctx: MpiContext, worker: Worker, measure: bool, repeats: int):
        """Init measurement -> application -> finalize measurement."""
        init_off = None
        if measure:
            init_off = yield from measurement_protocol(ctx, repeats=repeats)
        result = yield from worker(ctx)
        final_off = None
        if measure:
            final_off = yield from measurement_protocol(ctx, repeats=repeats)
        return (result, init_off, final_off)

    def min_latency(self, rank_a: int, rank_b: int, nbytes: int = 0) -> float:
        """``l_min`` between two ranks under the current pinning."""
        return self.preset.latency.min_latency(
            self.pinning[rank_a], self.pinning[rank_b], nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MpiWorld(machine={self.preset.machine.name!r}, timer={self.spec.name!r}, "
            f"nranks={self.pinning.nranks})"
        )
