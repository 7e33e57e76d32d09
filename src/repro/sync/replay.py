"""Replay-based (parallelizable) application of the CLC.

Section V cites [31]: *"the algorithm has been efficiently parallelized
so that it can be applied to traces from large numbers of processes"* —
the trick is that the CLC's forward pass has exactly the communication
structure of the original application, so it can be *replayed*: every
rank corrects its own events in order, and whenever it hits a receive
(or collective exit) it obtains the corrected send time from the
producing rank the same way the original message travelled.

:func:`replay_correct` reports that structure: the corrected trace is
computed with the shared array kernels of :mod:`repro.sync.schedule`
(identical to :class:`repro.sync.clc.ControlledLogicalClock` — the CLC
forward pass is deterministic dataflow, so every valid execution order
produces the same values), while the bulk-synchronous round loop of
:func:`repro.sync.schedule.bsp_rounds` simulates the parallel
decomposition: per round, every rank advances through its log until it
blocks on a not-yet-delivered remote value.  The value of this module is
(a) documenting the parallel decomposition and (b) reporting its round
count — the quantity that bounds wall-clock time on a real parallel
replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sync.clc import ClcResult, ControlledLogicalClock
from repro.sync.schedule import bsp_rounds
from repro.sync.violations import LminSpec
from repro.telemetry import ensure_telemetry
from repro.tracing.trace import Trace

__all__ = ["ReplayResult", "replay_correct"]


@dataclass
class ReplayResult:
    """A :class:`ClcResult` plus replay statistics."""

    clc: ClcResult
    rounds: int  # bulk-synchronous rounds needed
    max_queue: int  # peak number of values in flight between rounds


def replay_correct(
    trace: Trace,
    lmin: LminSpec = 0.0,
    gamma: float = 0.99,
    amortization_window: float | None = None,
    telemetry=None,
) -> ReplayResult:
    """Forward-pass CLC organized as a parallel replay; see module docs."""
    tele = ensure_telemetry(telemetry)
    corrector = ControlledLogicalClock(
        gamma=gamma, amortization_window=amortization_window, telemetry=tele
    )
    with tele.span("sync.replay.schedule"):
        schedule = trace.compiled_schedule()
    with tele.span("sync.replay.rounds"):
        rounds, max_queue = bsp_rounds(schedule)
    if tele.enabled:
        tele.gauge("sync.replay.rounds", rounds)
        tele.gauge_max("sync.replay.max_queue", max_queue)
    clc_result = corrector.correct_with_schedule(trace, schedule, lmin)
    clc_result.trace.meta["clc"]["replay"] = True
    return ReplayResult(clc=clc_result, rounds=rounds, max_queue=max_queue)
