"""The one correction entry point: :func:`correct_trace`.

Chains the paper's correction stages over one trace: linear offset
interpolation (Eq. 3) from the init/finalize offset measurements (or
piecewise over the periodic ones between them, Section III.b; alignment
only, a trace-only estimate, or nothing), then the controlled logical
clock for the violations interpolation cannot remove (Section V), with
a clock-condition scan between stages — after the CLC the trace
is violation-free by construction, and the stage reports quantify what
each stage achieved.

Every way this package corrects a trace — the ``repro sync`` CLI,
``TracingSession.synchronize``, the trace-correction service workers of
:mod:`repro.service`, and direct Python callers — goes through this one
function, so the contract "interpolation then CLC, scans between
stages, bit-identical everywhere" is enforced in exactly one place —
one stage sequence (raw scan, interpolate, scan, CLC, scan) for every
source kind: stage by stage over a trace in memory, as three fused
sweeps of the store over a sharded one (``_correct_sharded``; a stage
is not a sweep — interpolation is an elementwise map)::

    from repro import correct_trace
    result = correct_trace("run.npz", interpolation="linear", clc=True)
    print(result.summary())
    result.trace          # the corrected Trace

Offset measurements travel in the trace: every source's
``init_offsets``, ``final_offsets`` and, from a run with periodic sync,
``periodic_offsets`` are read from its metadata
(:func:`repro.sync.offset.measurements_from_meta`), so every source kind
supports every measurement-based mode, ``piecewise`` included.  Sources
it accepts:

* a :class:`~repro.tracing.trace.Trace`;
* a :class:`~repro.mpi.runtime.RunResult` (its trace is corrected);
* a path to a ``.npz`` / ``.jsonl`` trace file;
* a sharded trace directory (or
  :class:`~repro.tracing.store.ChunkedTrace`), corrected out-of-core by
  the bounded-memory sweeps of :mod:`repro.sync.streaming` — this path
  requires ``output`` (never the source directory itself) and supports
  the per-rank interpolation modes (:data:`STREAMING_INTERPOLATIONS`:
  ``none`` / ``align`` / ``linear`` / ``piecewise``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import SynchronizationError, TraceFormatError
from repro.mpi.runtime import RunResult
from repro.sync.clc import ClcResult, ControlledLogicalClock
from repro.sync.interpolation import (
    ClockCorrection,
    align_offsets,
    identity_correction,
    linear_interpolation,
    piecewise_interpolation,
)
from repro.sync.offset import measurements_from_meta
from repro.sync.violations import (
    LminSpec,
    ViolationReport,
    scan_collectives,
    scan_messages,
)
from repro.telemetry import ensure_telemetry
from repro.tracing.trace import Trace

__all__ = [
    "CorrectionResult",
    "StageReport",
    "correct_trace",
    "measurements_from_meta",
    "scan_source",
    "INTERPOLATIONS",
    "STREAMING_INTERPOLATIONS",
    "TRACE_ONLY_MODES",
]

#: Modes that derive the correction from the trace itself (no explicit
#: offset measurements needed): Duda-family error estimation over a
#: spanning tree, and Babaoglu/Drummond exchange midpoints.
TRACE_ONLY_MODES = ("hull", "regression", "minmax", "exchange")

#: Modes the bounded-memory streaming path supports: each is a per-rank
#: map built from the offset measurements in ``trace.meta`` (a sharded
#: trace is never materialized, so the trace-only modes are refused).
STREAMING_INTERPOLATIONS = ("none", "align", "linear", "piecewise")

#: Every interpolation mode :func:`correct_trace` accepts.
INTERPOLATIONS = STREAMING_INTERPOLATIONS + TRACE_ONLY_MODES


@dataclass
class StageReport:
    """Violation counts after one correction stage."""

    stage: str
    p2p: ViolationReport
    collective: ViolationReport

    @property
    def total_checked(self) -> int:
        return self.p2p.checked + self.collective.checked

    @property
    def total_violated(self) -> int:
        return self.p2p.violated + self.collective.violated

    @property
    def rate(self) -> float:
        return self.total_violated / self.total_checked if self.total_checked else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (the service's violation report rides on this)."""
        return {
            "stage": self.stage,
            "p2p": {"checked": self.p2p.checked, "violated": self.p2p.violated},
            "collective": {
                "checked": self.collective.checked,
                "violated": self.collective.violated,
            },
        }


@dataclass
class CorrectionResult:
    """Everything :func:`correct_trace` produced.

    ``trace`` is the corrected trace — a :class:`Trace` for materialized
    sources, a :class:`~repro.tracing.store.ChunkedTrace` over the
    ``output`` directory for streamed ones.  ``stages`` holds the
    violation scans in order (``raw``, the interpolation mode, ``clc``)
    when scanning was requested.
    """

    trace: object
    stages: list[StageReport]
    correction: Optional[ClockCorrection]
    clc: Optional[ClcResult]
    interpolation: str
    applied_clc: bool
    streamed: bool = False
    output: Optional[Path] = None
    timings: dict[str, float] = field(default_factory=dict)

    def stage(self, name: str) -> StageReport:
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        """JSON-ready summary (stages + CLC stats), no trace payload."""
        out = {
            "interpolation": self.interpolation,
            "clc": self.applied_clc,
            "streamed": self.streamed,
            "stages": [s.to_dict() for s in self.stages],
            "timings": dict(self.timings),
        }
        if self.clc is not None:
            out["clc_stats"] = {
                "jumps": int(self.clc.jumps),
                "max_shift": float(self.clc.max_shift),
            }
        return out

    def summary(self) -> str:
        lines = []
        for s in self.stages:
            lines.append(
                f"{s.stage:12s}: {s.total_violated}/{s.total_checked} "
                f"({100 * s.rate:.3f} %) violations"
            )
        if self.clc is not None:
            lines.append(str(self.clc))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Source normalization
# ----------------------------------------------------------------------
def _is_chunked(source) -> bool:
    from repro.tracing.store import ChunkedTrace

    return isinstance(source, ChunkedTrace)


def _normalize_source(source):
    """Resolve ``source`` to the trace (or :class:`ChunkedTrace`) it names."""
    from repro.tracing.store import ChunkedTrace, is_sharded_trace_dir

    if isinstance(source, RunResult):
        if source.trace is None:
            raise SynchronizationError(
                "run result has no trace (tracing disabled?)"
            )
        return source.trace
    if isinstance(source, (Trace, ChunkedTrace)):
        return source
    if isinstance(source, (str, Path)):
        path = Path(source)
        if is_sharded_trace_dir(path):
            return ChunkedTrace(path)
        from repro.tracing.reader import read_trace

        return read_trace(path)
    raise TraceFormatError(
        f"cannot correct a {type(source).__name__!r}: pass a Trace, a "
        "RunResult, a ChunkedTrace, or a path to a trace file / sharded "
        "trace directory"
    )


def scan_source(source, lmin: LminSpec = 0.0) -> dict[str, ViolationReport]:
    """Violation scan of any :func:`correct_trace` source.

    Returns ``{"p2p": ..., "collective": ...}``; sharded sources stream
    one shard at a time through
    :func:`repro.sync.streaming.streaming_scan_trace`.
    """
    trace = _normalize_source(source)
    if _is_chunked(trace):
        from repro.sync.streaming import streaming_scan_trace

        reports = streaming_scan_trace(trace, lmin=lmin)
        return {"p2p": reports["p2p"], "collective": reports["collective"]}
    p2p = scan_messages(trace.messages(strict=False), lmin)
    coll, _ = scan_collectives(trace, lmin)
    return {"p2p": p2p, "collective": coll}


def _scan_stage(stage: str, trace, lmin: LminSpec, telemetry) -> StageReport:
    with telemetry.span("sync.scan", stage=stage):
        reports = scan_source(trace, lmin)
    return StageReport(stage=stage, p2p=reports["p2p"], collective=reports["collective"])


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def correct_trace(
    source: Union[Trace, RunResult, str, Path, object],
    *,
    interpolation: str = "linear",
    clc: bool = True,
    gamma: float = 0.99,
    lmin: LminSpec = 0.0,
    amortization_window: Optional[float] = None,
    scan: bool = True,
    output: Union[str, Path, None] = None,
    telemetry=None,
) -> CorrectionResult:
    """Correct ``source``'s timestamps; the package's single code path.

    Parameters
    ----------
    source:
        What to correct — see the module docstring for accepted kinds.
    interpolation:
        One of :data:`INTERPOLATIONS`.  ``align`` needs init offsets in
        the trace's metadata, ``linear`` init and final ones,
        ``piecewise`` >= 2 measurement sets (init, periodic, final); the
        trace-only modes need no measurements at all; sharded sources
        support :data:`STREAMING_INTERPOLATIONS` only.
    clc:
        Apply the controlled logical clock after interpolation.
    gamma / amortization_window:
        CLC knobs (see :class:`ControlledLogicalClock`).
    lmin:
        Clock-condition floor — used for the violation scans and as the
        CLC's message-latency bound; a scalar, an ``nranks x nranks``
        matrix or a pure ``(src, dst)`` callable, for sharded sources too.
    scan:
        Scan for violations before/after each stage.  Disable to skip
        the scans (the corrected trace is identical either way).
    output:
        Optional destination: a ``.npz`` / ``.jsonl`` path for
        materialized sources, a directory for sharded ones (where it is
        *required* — the streamed result only exists on disk).
    telemetry:
        A :class:`repro.telemetry.TelemetryRecorder`, or ``None`` for the
        null sink.  It is the only run-side setting a correction takes.

    Returns
    -------
    CorrectionResult
    """
    if interpolation not in INTERPOLATIONS:
        raise SynchronizationError(f"unknown interpolation mode {interpolation!r}")
    tele = ensure_telemetry(telemetry)

    trace = _normalize_source(source)
    if _is_chunked(trace):
        _check_streamable(trace, interpolation, clc, output)
        return _correct_sharded(
            trace, interpolation, clc, gamma, lmin, amortization_window, scan, Path(output), tele
        )

    timings: dict[str, float] = {}
    clc_result = None
    with tele.span("sync.pipeline", interpolation=interpolation, clc=clc):
        stages = [_scan_stage("raw", trace, lmin, tele)] if scan else []

        start = time.perf_counter()
        with tele.span("sync.interpolate", mode=interpolation):
            correction = _build_correction(trace, interpolation, lmin)
            trace = correction.apply(trace)
        timings["interpolate"] = time.perf_counter() - start
        if scan:
            stages.append(_scan_stage(interpolation, trace, lmin, tele))

        if clc:
            start = time.perf_counter()
            with tele.span("sync.clc", gamma=gamma):
                corrector = ControlledLogicalClock(
                    gamma=gamma, amortization_window=amortization_window, telemetry=tele
                )
                clc_result = corrector.correct(trace, lmin=lmin)
            trace = clc_result.trace
            timings["clc"] = time.perf_counter() - start
            if scan:
                stages.append(_scan_stage("clc", trace, lmin, tele))

    if output is not None:
        from repro.tracing.writer import write_trace

        output = write_trace(trace, output)

    return CorrectionResult(
        trace=trace,
        stages=stages,
        correction=correction,
        clc=clc_result,
        interpolation=interpolation,
        applied_clc=clc,
        output=output,
        timings=timings,
    )


def _correct_sharded(
    chunked, interpolation, clc, gamma, lmin, amortization_window, scan, output: Path, tele
) -> CorrectionResult:
    """The same stage sequence over a sharded source, its sweeps fused.

    Interpolation is a per-rank elementwise map, so nothing forces a
    store sweep (let alone an intermediate store) per stage: one
    :class:`repro.sync.streaming.ShardSweeps` evaluates it on each shard
    it holds.  The pre-scan yields the ``raw`` and the interpolated
    verdict from one read (and, ahead of the CLC, the source row of
    every matched receive), the CLC reads the input twice more (forward
    sweep, output written once), and the ``clc`` verdict is a scan of
    what was written.
    """
    from repro.sync.streaming import ShardSweeps, streaming_scan_trace

    timings: dict[str, float] = {}
    correction = clc_result = None
    stages: list[StageReport] = []
    with tele.span("sync.pipeline", interpolation=interpolation, clc=clc):
        # Identity over a sharded trace would only copy its shards.
        if interpolation != "none":
            start = time.perf_counter()
            with tele.span("sync.interpolate", mode=interpolation):
                correction = _build_correction(chunked, interpolation, lmin)
            timings["interpolate"] = time.perf_counter() - start
        sweeps = ShardSweeps(chunked, correction, lmin, telemetry=tele)
        if scan:
            with tele.span("sync.scan", stage="raw"):
                reports = sweeps.prescan(sources=clc)
            stages = [
                StageReport(stage=name, **verdict)
                for name, verdict in zip(("raw", interpolation), reports)
            ]

        if clc:
            start = time.perf_counter()
            with tele.span("sync.clc", gamma=gamma):
                clc_result = sweeps.clc(output, gamma, amortization_window)
            trace = clc_result.trace
            timings["clc"] = time.perf_counter() - start
            if scan:
                with tele.span("sync.scan", stage="clc"):
                    verdict = streaming_scan_trace(trace, lmin=lmin, telemetry=tele)
                stages.append(StageReport(stage="clc", **verdict))
        else:
            start = time.perf_counter()
            trace = sweeps.apply(output)
            timings["interpolate"] += time.perf_counter() - start

    return CorrectionResult(
        trace=trace,
        stages=stages,
        correction=correction,
        clc=clc_result,
        interpolation=interpolation,
        applied_clc=clc,
        streamed=True,
        output=output,
        timings=timings,
    )


def _check_streamable(chunked, interpolation: str, clc: bool, output) -> None:
    """What a sharded source asks of the other arguments (it is never materialized)."""
    if interpolation not in STREAMING_INTERPOLATIONS:
        raise SynchronizationError(
            f"interpolation {interpolation!r} needs the whole trace in "
            "memory; sharded trace directories support "
            f"{', '.join(STREAMING_INTERPOLATIONS)} (materialize the trace "
            "first for the others)"
        )
    if interpolation == "none" and not clc:
        raise SynchronizationError(
            "nothing to apply to a sharded trace: interpolation 'none' "
            "without clc (use scan_source for a scan-only pass)"
        )
    if output is None:
        raise SynchronizationError(
            "correcting a sharded trace requires output= (the streamed "
            "result is written shard by shard, never materialized)"
        )
    if Path(output).resolve() == chunked.reader.directory.resolve():
        raise SynchronizationError(
            f"output {str(output)!r} is the source directory: a streamed "
            "correction reads the source shards while it writes the result, "
            "and would overwrite the only copy of the raw trace"
        )


def _build_correction(trace, interpolation: str, lmin: LminSpec) -> ClockCorrection:
    """The interpolation stage's correction.

    The measurement-based modes read only ``trace.meta`` (see
    :func:`repro.sync.offset.measurements_to_meta`), so the streaming
    path passes its :class:`ChunkedTrace` here too.
    """
    if interpolation == "none":
        return identity_correction()
    if interpolation in ("regression", "hull", "minmax"):
        from repro.sync.error_estimation import synchronize_by_spanning_tree

        return synchronize_by_spanning_tree(trace, lmin=lmin, method=interpolation)
    if interpolation == "exchange":
        from repro.sync.exchange import exchange_correction

        return exchange_correction(trace)
    init = measurements_from_meta(trace.meta, "init_offsets")
    final = measurements_from_meta(trace.meta, "final_offsets")
    if interpolation == "piecewise":  # init, periodic and final sets, in run order
        periodic = measurements_from_meta(trace.meta, "periodic_offsets") or []
        return piecewise_interpolation([ms for ms in (init, *periodic, final) if ms])
    if init is None:
        raise SynchronizationError(
            "alignment requested but no init offsets measured"
            if interpolation == "align"
            else "trace has no offset measurements in its metadata"
        )
    if interpolation == "align":
        return align_offsets(init)
    if final is None:
        raise SynchronizationError(
            "linear interpolation needs offset measurements at init and "
            "finalize; use interpolation='align' for init-only traces"
        )
    return linear_interpolation(init, final)
