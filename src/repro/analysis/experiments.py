"""One driver per paper table/figure.

Every function returns a small result object holding the numbers the
corresponding table or figure reports; the benchmark harness prints them
via :mod:`repro.analysis.reports` and EXPERIMENTS.md records them next
to the paper's values.

Durations and event counts are scaled down from the paper's runs where
noted (the defaults keep a full regeneration in minutes of wall time on
a laptop), but every scale knob is a parameter, so full-size runs are a
function call away.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.deviation import DeviationSeries, measure_deviation
from repro.analysis.latency import (
    LatencyStats,
    measure_collective_latency,
    measure_latency,
)
from repro.analysis.runner import derive_seed, run_grid
from repro.cluster.jitter import OsJitterModel
from repro.cluster.machines import (
    opteron_cluster,
    powerpc_cluster,
    xeon_cluster,
)
from repro.cluster.pinning import (
    Pinning,
    inter_chip,
    inter_core,
    inter_node,
)
from repro.core.api import TracingSession
from repro.core.correct import correct_trace
from repro.errors import ConfigurationError
from repro.mpi.runtime import MpiWorld
from repro.openmp.team import OmpTeamConfig, run_parallel_for_benchmark
from repro.options import RunOptions
from repro.stats import DEFAULT_LEVEL, SampleSummary, StoppingRule, summarize
from repro.sync.clc import ControlledLogicalClock
from repro.sync.interpolation import linear_interpolation
from repro.sync.violations import (
    PompRegionReport,
    lmin_matrix_from_trace,
    scan_pomp,
)
from repro.tracing.events import EventType
from repro.workloads.pop import PopConfig, pop_worker
from repro.workloads.smg2000 import Smg2000Config, smg2000_worker

__all__ = [
    "table1_pinnings",
    "table2_latencies",
    "fig3_barrier_violation",
    "fig4_timer_deviation",
    "fig4_all_panels",
    "fig5_interpolated_deviation",
    "fig6_short_run",
    "fig7_app_violations",
    "fig8_openmp_violations",
    "intranode_noise",
    "ext_openmp_correction",
    "ext_waitstate_accuracy",
]


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
@dataclass
class Table1Result:
    pinnings: dict[str, Pinning]

    def rows(self) -> list[tuple[str, str]]:
        return [(name, pin.describe()) for name, pin in self.pinnings.items()]


def table1_pinnings() -> Table1Result:
    """The three deliberate Xeon placements of Table I (4 ranks each)."""
    machine = xeon_cluster().machine
    return Table1Result(
        pinnings={
            "inter node": inter_node(machine, 4),
            "inter chip": inter_chip(machine),
            "inter core": inter_core(machine),
        }
    )


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
@dataclass
class Table2Result:
    rows: list[LatencyStats]

    def by_label(self) -> dict[str, LatencyStats]:
        return {r.label: r for r in self.rows}


def _table2_row(
    kind: str, seed: int, repeats: int, engine: str = "reference",
    runs: int = 1, level: float = DEFAULT_LEVEL,
    stopping: StoppingRule | None = None,
) -> LatencyStats:
    """One Table II measurement — a standalone job for :func:`run_grid`."""
    preset = xeon_cluster()
    machine = preset.machine
    common = dict(repeats=repeats, seed=seed, engine=engine, runs=runs,
                  level=level, stopping=stopping)
    if kind == "inter_node":
        return measure_latency(
            preset, inter_node(machine, 4),
            label="Inter node message latency", **common,
        )
    if kind == "inter_chip":
        return measure_latency(
            preset, inter_chip(machine),
            label="Inter chip message latency", **common,
        )
    if kind == "inter_core":
        return measure_latency(
            preset, inter_core(machine),
            label="Inter core message latency", **common,
        )
    if kind == "collective":
        return measure_collective_latency(
            preset, inter_node(machine, 4),
            label="Inter node collective latency", **common,
        )
    raise ConfigurationError(f"unknown Table II row kind {kind!r}")


def table2_latencies(
    repeats: int = 1000,
    coll_repeats: int = 200,
    *,
    runs: int = 1,
    level: float = DEFAULT_LEVEL,
    options: RunOptions | None = None,
) -> Table2Result:
    """Measured message and collective latencies per placement (Table II).

    The four placements are independent simulations; ``options.jobs`` /
    ``options.cache`` fan them out / memoize them via
    :func:`repro.analysis.runner.run_grid`.  ``options.engine`` selects
    the simulation path; both are bit-identical, and cache keys ignore
    it, so switching engines still hits prior entries.  Every row is a
    :class:`~repro.analysis.latency.LatencyStats` carrying a
    :class:`~repro.stats.SampleSummary` (CI at ``level``, repetition
    counts); ``runs`` pools that many independent simulations per row,
    and ``options.stopping`` instead adds runs per row until the rule's
    relative CI-width target is met (see ``docs/methodology.md``).
    """
    options = options or RunOptions()
    seed = options.resolved_seed(0)
    row = dict(seed=seed, repeats=repeats, engine=options.engine, runs=runs,
               level=level, stopping=options.stopping)
    grid = [
        dict(row, kind="inter_node"),
        dict(row, kind="inter_chip"),
        dict(row, kind="inter_core"),
        dict(row, kind="collective", repeats=coll_repeats),
    ]
    return Table2Result(
        rows=run_grid(_table2_row, grid, options=options)
    )


# ----------------------------------------------------------------------
# Fig. 3 — an observed OpenMP barrier violation
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    """One concrete barrier-semantics violation, Fig. 3 style.

    ``timeline`` maps thread id -> (barrier_enter_ts, barrier_exit_ts)
    for the violating region instance; ``offender`` is the thread whose
    recorded exit precedes another thread's recorded enter.
    """

    instance: int
    timeline: dict[int, tuple[float, float]]
    offender: int
    victim: int
    overlap_gap: float  # how far (s) the offender's exit precedes the victim's enter

    @property
    def found(self) -> bool:
        return self.instance >= 0


def fig3_barrier_violation(seed: int = 1, threads: int = 4, regions: int = 200) -> Fig3Result:
    """Reproduce Fig. 3: a thread apparently leaving a barrier before
    another thread entered it, on the Itanium SMP node."""
    trace = run_parallel_for_benchmark(
        OmpTeamConfig(threads=threads, regions=regions), seed=seed
    )
    report = scan_pomp(trace)
    for inst in sorted(report.instances):
        if not report.instances[inst]["barrier"]:
            continue
        enters: dict[int, float] = {}
        exits: dict[int, float] = {}
        for tid in trace.ranks:
            log = trace.logs[tid]
            for i in range(len(log)):
                ev = log[i]
                if ev.d != inst:
                    continue
                if ev.etype == EventType.OMP_BARRIER_ENTER:
                    enters[tid] = ev.timestamp
                elif ev.etype == EventType.OMP_BARRIER_EXIT:
                    exits[tid] = ev.timestamp
        for i, ti in exits.items():
            for j, tj in enters.items():
                if i != j and ti < tj:
                    return Fig3Result(
                        instance=inst,
                        timeline={t: (enters[t], exits[t]) for t in sorted(enters)},
                        offender=i,
                        victim=j,
                        overlap_gap=tj - ti,
                    )
    return Fig3Result(instance=-1, timeline={}, offender=-1, victim=-1, overlap_gap=0.0)


# ----------------------------------------------------------------------
# Figs. 4, 5, 6 — deviation curves
# ----------------------------------------------------------------------
#: Paper panel -> (timer, run length): Fig. 4a short, 4b medium, 4c long.
FIG4_PANELS: dict[str, tuple[str, float]] = {
    "a": ("mpi_wtime", 300.0),
    "b": ("gettimeofday", 1800.0),
    "c": ("tsc", 3600.0),
}

#: Fig. 5 panel -> (cluster preset factory, timer), all 3600 s.
FIG5_PANELS = {
    "a": (xeon_cluster, "tsc"),
    "b": (powerpc_cluster, "timebase"),
    "c": (opteron_cluster, "gettimeofday"),
}


@dataclass
class DeviationResult:
    """Deviation series of one panel plus its context.

    ``runs`` and ``residual_summary`` are populated by the multi-run
    drivers (:func:`fig4_all_panels` with ``runs > 1``): the series
    shown are those of run 0 (bit-compatible with a single-run call),
    while ``residual_summary`` summarizes the peak aligned residual
    across all independent runs with a confidence interval.
    """

    label: str
    timer: str
    duration: float
    series: dict[int, DeviationSeries]
    lmin: float  # inter-node message latency floor of the platform
    runs: int = 1
    residual_summary: SampleSummary | None = None

    def max_residual(self, corrected: str) -> float:
        return max(s.max_abs(corrected) for s in self.series.values())

    def first_crossing(self, corrected: str = "interpolated") -> float | None:
        """Earliest time any worker's residual exceeds half of l_min
        (the accuracy requirement of Section III)."""
        times = [
            t
            for s in self.series.values()
            if (t := s.first_exceeding(self.lmin / 2.0, corrected)) is not None
        ]
        return min(times) if times else None


def fig4_timer_deviation(
    panel: str = "a",
    seed: int = 0,
    nprocs: int = 4,
    probe_interval: float = 5.0,
) -> DeviationResult:
    """Fig. 4: deviations after *initial offset alignment only*.

    ``panel``: "a" (MPI_Wtime, 300 s), "b" (gettimeofday, 1800 s),
    "c" (TSC, 3600 s), all on the Xeon cluster across distinct nodes.
    """
    if panel not in FIG4_PANELS:
        raise ConfigurationError(f"unknown Fig. 4 panel {panel!r}")
    timer, duration = FIG4_PANELS[panel]
    preset = xeon_cluster()
    pin = inter_node(preset.machine, nprocs)
    series = measure_deviation(
        preset, pin, timer=timer, duration=duration,
        probe_interval=probe_interval, seed=seed,
    )
    return DeviationResult(
        label=f"Fig.4{panel} {timer} {duration:.0f}s",
        timer=timer,
        duration=duration,
        series=series,
        lmin=preset.latency.min_latency(pin[0], pin[1]),
    )


def fig4_all_panels(
    *,
    runs: int = 1,
    level: float = DEFAULT_LEVEL,
    options: RunOptions | None = None,
) -> dict[str, DeviationResult]:
    """All three Fig. 4 panels through the parallel runner.

    Panel "c" simulates an hour of drift; regenerating the whole figure
    serially is dominated by it, so the panels run as independent
    :func:`repro.analysis.runner.run_grid` jobs (and cache hits make an
    unchanged figure near-instant).  ``runs > 1`` repeats each panel
    under independent derived seeds and attaches a
    :class:`~repro.stats.SampleSummary` of the peak aligned residual
    (CI at ``level``) to each returned
    :class:`DeviationResult.residual_summary`; the series shown remain
    those of run 0.
    """
    options = options or RunOptions()
    base = options.resolved_seed(0)
    panels = tuple(FIG4_PANELS)
    grid = [
        dict(panel=p,
             seed=base if r == 0 else derive_seed(base, "fig4", p, r),
             nprocs=4, probe_interval=5.0)
        for p in panels
        for r in range(runs)
    ]
    flat = run_grid(fig4_timer_deviation, grid, options=options)
    out: dict[str, DeviationResult] = {}
    for k, p in enumerate(panels):
        group = flat[k * runs:(k + 1) * runs]
        residuals = np.array([g.max_residual("aligned") for g in group])
        out[p] = dataclasses.replace(
            group[0], runs=runs,
            residual_summary=summarize(residuals, level=level),
        )
    return out


def fig5_interpolated_deviation(
    panel: str = "a",
    seed: int = 0,
    duration: float = 3600.0,
    probe_interval: float = 5.0,
) -> DeviationResult:
    """Fig. 5: residual deviations after linear offset interpolation.

    ``panel``: "a" (Xeon TSC), "b" (PowerPC time base), "c" (Opteron
    gettimeofday), 3600 s each.
    """
    if panel not in FIG5_PANELS:
        raise ConfigurationError(f"unknown Fig. 5 panel {panel!r}")
    factory, timer = FIG5_PANELS[panel]
    preset = factory()
    pin = inter_node(preset.machine, 4)
    series = measure_deviation(
        preset, pin, timer=timer, duration=duration,
        probe_interval=probe_interval, seed=seed,
    )
    return DeviationResult(
        label=f"Fig.5{panel} {preset.machine.name}/{timer}",
        timer=timer,
        duration=duration,
        series=series,
        lmin=preset.latency.min_latency(pin[0], pin[1]),
    )


def fig6_short_run(seed: int = 0) -> DeviationResult:
    """Fig. 6: short (300 s) Xeon/TSC run — residuals after interpolation
    still slightly exceed the message latency."""
    preset = xeon_cluster()
    pin = inter_node(preset.machine, 4)
    series = measure_deviation(
        preset, pin, timer="tsc", duration=300.0, probe_interval=2.0, seed=seed,
    )
    return DeviationResult(
        label="Fig.6 xeon/tsc short",
        timer="tsc",
        duration=300.0,
        series=series,
        lmin=preset.latency.min_latency(pin[0], pin[1]),
    )


# ----------------------------------------------------------------------
# Fig. 7 — clock-condition violations in POP and SMG2000 traces
# ----------------------------------------------------------------------
@dataclass
class Fig7RunStats:
    """One traced application run, Scalasca-style corrected."""

    reversed_pct: float  # % of messages with send/recv order reversed
    message_event_pct: float  # % of message transfer events among all events
    messages: int  # p2p + logical messages checked
    events: int


@dataclass
class Fig7Result:
    app: str
    runs: list[Fig7RunStats] = field(default_factory=list)

    @property
    def mean_reversed_pct(self) -> float:
        return float(np.mean([r.reversed_pct for r in self.runs])) if self.runs else 0.0

    @property
    def mean_message_event_pct(self) -> float:
        return float(np.mean([r.message_event_pct for r in self.runs])) if self.runs else 0.0

    def reversed_summary(self, level: float = DEFAULT_LEVEL) -> SampleSummary:
        """CI of the reversed-message percentage over the repetitions."""
        return summarize(np.array([r.reversed_pct for r in self.runs]), level=level)

    def message_event_summary(self, level: float = DEFAULT_LEVEL) -> SampleSummary:
        """CI of the message-event percentage over the repetitions."""
        return summarize(np.array([r.message_event_pct for r in self.runs]), level=level)


def _grid_for(nprocs: int) -> tuple[int, int]:
    """Most-square 2-D factorization px * py == nprocs, px >= py."""
    from repro.workloads import most_square_grid

    return most_square_grid(nprocs)


def _pop_config(scale: float, nprocs: int) -> PopConfig:
    """Paper-shaped POP run, optionally scaled down.

    ``scale = 1`` is the paper's scenario: 9000 iterations, ~25 min,
    iterations 3500-5500 traced.  Smaller scales shrink the step count
    and the traced window proportionally while keeping the ~25 min of
    wall-clock drift exposure (step time grows accordingly).
    """
    steps = max(int(9000 * scale), 20)
    lo = int(steps * 3500 / 9000)
    hi = int(steps * 5500 / 9000)
    return PopConfig(
        steps=steps,
        step_time=0.165 * 9000 / steps,
        trace_window=(lo, max(hi, lo + 1)),
        grid=_grid_for(nprocs),
    )


def _smg_config(scale: float) -> Smg2000Config:
    cycles = max(int(5 * max(scale, 0.2)), 1)
    return Smg2000Config(cycles=cycles, pre_sleep=600.0, post_sleep=600.0)


def _fig7_one_run(
    app: str,
    rep_seed: int,
    nprocs: int,
    scale: float,
    timer: str,
    engine: str = "reference",
) -> Fig7RunStats:
    """One traced application run of Fig. 7 — a :func:`run_grid` job."""
    if app == "pop":
        cfg = _pop_config(scale, nprocs)
        worker = pop_worker(cfg, seed=rep_seed)
        duration_hint = cfg.steps * cfg.step_time * 1.2 + 60.0
    else:
        cfg = _smg_config(scale)
        worker = smg2000_worker(cfg, seed=rep_seed)
        duration_hint = cfg.pre_sleep + cfg.post_sleep + 240.0
    session = TracingSession(
        "xeon", nprocs, "scheduler", timer,
        duration_hint=duration_hint,
        jitter=OsJitterModel(rate=10.0, mean_delay=5e-6),
        options=RunOptions(seed=rep_seed, engine=engine),
    )
    run = session.trace(worker, tracing_initially=False)
    result = correct_trace(run, interpolation="linear", clc=False)  # l_min = 0
    trace = result.trace
    checked = result.stage("linear").total_checked
    violated = result.stage("linear").total_violated
    total_events = trace.total_events()
    msg_events = trace.event_counts()
    transfer = (
        msg_events.get(EventType.SEND, 0)
        + msg_events.get(EventType.RECV, 0)
        + msg_events.get(EventType.COLL_ENTER, 0)
        + msg_events.get(EventType.COLL_EXIT, 0)
    )
    return Fig7RunStats(
        reversed_pct=100.0 * violated / checked if checked else 0.0,
        message_event_pct=100.0 * transfer / total_events if total_events else 0.0,
        messages=checked,
        events=total_events,
    )


def fig7_app_violations(
    app: str = "pop",
    runs: int = 3,
    nprocs: int = 32,
    scale: float = 0.1,
    timer: str = "tsc",
    *,
    options: RunOptions | None = None,
) -> Fig7Result:
    """Fig. 7: percentage of reversed messages in Scalasca-style traces.

    Emulates the paper's setup: 32 processes on the Xeon cluster,
    scheduler-chosen placement, tracing via interposition, linear offset
    interpolation from measurements at init and finalize, violations
    counted over real plus logical (collective) messages, averaged over
    ``runs`` repetitions.

    The repetitions are independent simulations with explicit per-rep
    seeds, so they fan out over ``options.jobs`` worker processes with
    results identical to a serial run; ``options.cache`` memoizes
    finished repetitions.  ``options.engine="batch"`` selects the vectorized
    trace generator — bit-identical by contract, and invisible to cache
    keys, so a cached figure regenerates from either engine's entries.
    """
    if app not in ("pop", "smg2000"):
        raise ConfigurationError(f"unknown app {app!r} (use 'pop' or 'smg2000')")
    options = options or RunOptions()
    seed = options.resolved_seed(0)
    grid = [
        dict(
            app=app, rep_seed=seed * 1000 + rep, nprocs=nprocs,
            scale=scale, timer=timer, engine=options.engine,
        )
        for rep in range(runs)
    ]
    stats = run_grid(_fig7_one_run, grid, options=options)
    return Fig7Result(app=app, runs=list(stats))


# ----------------------------------------------------------------------
# Fig. 8 — OpenMP violations vs thread count
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    threads: list[int]
    reports: dict[int, list[PompRegionReport]]

    def mean_pct(self, nthreads: int, kind: str) -> float:
        return float(np.mean([r.pct(kind) for r in self.reports[nthreads]]))

    def summary(self, nthreads: int, kind: str,
                level: float = DEFAULT_LEVEL) -> SampleSummary:
        """CI of the violation percentage over this thread count's runs."""
        return summarize(
            np.array([r.pct(kind) for r in self.reports[nthreads]]), level=level
        )

    def rows(self) -> list[tuple[int, float, float, float, float]]:
        return [
            (
                n,
                self.mean_pct(n, "any"),
                self.mean_pct(n, "entry"),
                self.mean_pct(n, "exit"),
                self.mean_pct(n, "barrier"),
            )
            for n in self.threads
        ]


def _fig8_one_run(nthreads: int, run_seed: int, regions: int) -> PompRegionReport:
    """One OpenMP benchmark run + POMP scan — a :func:`run_grid` job."""
    return scan_pomp(
        run_parallel_for_benchmark(
            OmpTeamConfig(threads=nthreads, regions=regions), seed=run_seed
        )
    )


def fig8_openmp_violations(
    threads: tuple[int, ...] = (4, 8, 12, 16),
    runs: int = 3,
    regions: int = 200,
    *,
    options: RunOptions | None = None,
) -> Fig8Result:
    """Fig. 8: % of parallel regions with POMP violations vs threads.

    No offset alignment or interpolation is applied (paper's setup);
    numbers are averaged over ``runs`` seeds like the paper's three
    measurements.  The (thread count x repetition) grid fans out over
    ``options.jobs`` workers deterministically.
    """
    options = options or RunOptions()
    seed = options.resolved_seed(1)
    grid = [
        dict(nthreads=n, run_seed=seed + rep, regions=regions)
        for n in threads
        for rep in range(runs)
    ]
    flat = run_grid(_fig8_one_run, grid, options=options)
    reports: dict[int, list[PompRegionReport]] = {
        n: flat[k * runs : (k + 1) * runs] for k, n in enumerate(threads)
    }
    return Fig8Result(threads=list(threads), reports=reports)


# ----------------------------------------------------------------------
# Intra-node noise (Section IV text)
# ----------------------------------------------------------------------
@dataclass
class IntranodeResult:
    inter_chip_max: float  # max |deviation| between chips of one node
    inter_core_max: float  # max |deviation| between cores of one chip


def intranode_noise(seed: int = 0, duration: float = 300.0) -> IntranodeResult:
    """Same-SMP-node deviations: essentially noise around zero, max
    ~0.1 us (paper, Section IV) — MPI semantics survive untreated."""
    preset = xeon_cluster()
    chip_series = measure_deviation(
        preset, inter_chip(preset.machine), timer="tsc",
        duration=duration, probe_interval=2.0, seed=seed,
    )
    core_series = measure_deviation(
        preset, inter_core(preset.machine), timer="tsc",
        duration=duration, probe_interval=2.0, seed=seed,
    )
    return IntranodeResult(
        inter_chip_max=max(s.max_abs("aligned") for s in chip_series.values()),
        inter_core_max=max(s.max_abs("aligned") for s in core_series.values()),
    )


# ----------------------------------------------------------------------
# Extension studies (the paper's open questions; see DESIGN.md)
# ----------------------------------------------------------------------
@dataclass
class OmpCorrectionResult:
    """Violation percentages per scheme per thread count (means)."""

    threads: list[int]
    raw: dict[int, float]
    aligned: dict[int, float]
    linear: dict[int, float]
    clc: dict[int, float]

    def rows(self) -> list[tuple[int, float, float, float, float]]:
        return [
            (n, self.raw[n], self.aligned[n], self.linear[n], self.clc[n])
            for n in self.threads
        ]


def ext_openmp_correction(
    threads: tuple[int, ...] = (4, 8, 12, 16),
    seed: int = 2,
    runs: int = 3,
    regions: int = 120,
) -> OmpCorrectionResult:
    """Answer the paper's OpenMP open question inside the model.

    Per thread count, runs the parallel-for benchmark with offset
    measurements, then compares raw / alignment-corrected / linearly
    interpolated / POMP-CLC-corrected violation percentages (means over
    ``runs`` seeds).
    """
    result = OmpCorrectionResult(
        threads=list(threads), raw={}, aligned={}, linear={}, clc={}
    )
    for n in threads:
        raw, aligned, linear, clc = [], [], [], []
        for rep in range(runs):
            trace = run_parallel_for_benchmark(
                OmpTeamConfig(threads=n, regions=regions),
                seed=seed + rep,
                measure_offsets=True,
            )
            raw.append(scan_pomp(trace).pct("any"))
            for out, interpolation, with_clc in (
                (aligned, "align", False), (linear, "linear", False), (clc, "none", True)
            ):
                corrected = correct_trace(
                    trace, interpolation=interpolation, clc=with_clc, scan=False
                )
                out.append(scan_pomp(corrected.trace).pct("any"))
        result.raw[n] = float(np.mean(raw))
        result.aligned[n] = float(np.mean(aligned))
        result.linear[n] = float(np.mean(linear))
        result.clc[n] = float(np.mean(clc))
    return result


@dataclass
class WaitstateAccuracyResult:
    """Late Sender analysis under each correction vs. ground truth."""

    truth_total: float
    totals: dict[str, float]  # scheme -> reported total wait
    sign_flips: dict[str, int]  # scheme -> misclassified messages

    def error_pct(self, scheme: str) -> float:
        if self.truth_total == 0:
            return 0.0
        return 100.0 * abs(self.totals[scheme] - self.truth_total) / self.truth_total


def _waitstate_worker(ws_seed: int, steps: int):
    """Deliberately imbalanced ring worker for the wait-state study."""

    def worker(ctx):
        rng = np.random.default_rng((ws_seed << 8) ^ ctx.rank)
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for _ in range(steps):
            work = 2e-4 * (1.0 + 0.5 * float(rng.random()) + 0.5 * (ctx.rank % 2))
            yield from ctx.compute(work)
            yield from ctx.send(right, tag=1, nbytes=64)
            yield from ctx.recv(src=left, tag=1)
        return None

    return worker


def _waitstate_job(
    mode: str, timer: str, seed: int, nprocs: int, steps: int
):
    """One wait-state simulation — a :func:`run_grid` job.

    ``mode="truth"`` runs with perfect clocks and returns the ground-
    truth :class:`~repro.analysis.waitstates.WaitStateReport`;
    ``mode="measured"`` runs with ``timer`` and returns the reports of
    the raw / linearly interpolated / CLC-corrected analyses.
    """
    from repro.analysis.waitstates import late_sender

    preset = xeon_cluster()
    world = MpiWorld(
        preset,
        inter_node(preset.machine, nprocs),
        timer="global" if mode == "truth" else timer,
        seed=seed,
        duration_hint=60.0,
        mpi_regions=True,
    )
    run = world.run(_waitstate_worker(seed, steps))
    if mode == "truth":
        return late_sender(run.trace)

    raw = late_sender(run.trace)
    interp_trace = linear_interpolation(run.init_offsets, run.final_offsets).apply(run.trace)
    interp = late_sender(interp_trace)
    lmin = lmin_matrix_from_trace(run.trace, preset.latency)
    clc_trace = ControlledLogicalClock().correct(interp_trace, lmin=lmin).trace
    clc = late_sender(clc_trace)
    return {"raw": raw, "linear": interp, "clc": clc}


def ext_waitstate_accuracy(*, options: RunOptions | None = None) -> WaitstateAccuracyResult:
    """Quantify the paper's "false conclusions": Late Sender analysis on
    ground truth vs. raw / interpolated / CLC-corrected timestamps, for
    6 ranks, 60 steps and ``MPI_Wtime``.

    The ground-truth and measured simulations are independent worlds
    with the same seed, so they run as two :func:`run_grid` jobs.
    """
    options = options or RunOptions()
    seed = options.resolved_seed(11)
    grid = [
        dict(mode=mode, timer="mpi_wtime", seed=seed, nprocs=6, steps=60)
        for mode in ("truth", "measured")
    ]
    truth, schemes = run_grid(_waitstate_job, grid, options=options)

    return WaitstateAccuracyResult(
        truth_total=truth.total,
        totals={name: rep.total for name, rep in schemes.items()},
        sign_flips={name: rep.sign_flips(truth) for name, rep in schemes.items()},
    )
