"""ASCII time-line rendering of traces (the VAMPIR-view stand-in).

The paper motivates violations partly through visualization: backward
arrows in VAMPIR time-line views "confuse the user", and Fig. 3 is a
time-line screenshot.  This module renders a window of a trace as text:
one lane per rank/thread, region occupancy as bars, messages as
arrow annotations — enough to *see* a receive-before-send or a barrier
left early without a GUI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.tracing.events import EventType
from repro.tracing.trace import Trace

__all__ = ["render_timeline", "render_message_arrows", "TimelineOptions"]


@dataclass(frozen=True)
class TimelineOptions:
    """Rendering knobs."""

    width: int = 72  # characters per lane
    lane_char: str = "#"  # region occupancy
    idle_char: str = " "  # outside regions


def _window(trace: Trace, t0: float | None, t1: float | None) -> tuple[float, float]:
    ts_min = min(
        float(trace.logs[r].timestamps.min()) for r in trace.ranks if len(trace.logs[r])
    )
    ts_max = max(
        float(trace.logs[r].timestamps.max()) for r in trace.ranks if len(trace.logs[r])
    )
    lo = ts_min if t0 is None else t0
    hi = ts_max if t1 is None else t1
    if hi <= lo:
        hi = lo + 1e-9
    return lo, hi


def render_timeline(
    trace: Trace,
    t0: float | None = None,
    t1: float | None = None,
    options: TimelineOptions = TimelineOptions(),
) -> str:
    """Render region occupancy per rank over ``[t0, t1]``.

    A rank is "busy" between each matched ENTER/EXIT pair (any region
    id) and between collective/barrier enter and exit events; nesting is
    flattened (depth > 0 renders the same).
    """
    if not any(len(trace.logs[r]) for r in trace.ranks):
        raise TraceError("cannot render an empty trace")
    lo, hi = _window(trace, t0, t1)
    width = options.width
    scale = (width - 1) / (hi - lo)

    opens = {
        int(EventType.ENTER),
        int(EventType.COLL_ENTER),
        int(EventType.OMP_PAR_ENTER),
        int(EventType.OMP_BARRIER_ENTER),
    }
    closes = {
        int(EventType.EXIT),
        int(EventType.COLL_EXIT),
        int(EventType.OMP_PAR_EXIT),
        int(EventType.OMP_BARRIER_EXIT),
    }

    lines = []
    for rank in trace.ranks:
        log = trace.logs[rank]
        lane = np.zeros(width, dtype=np.int32)
        depth = 0
        last_t = lo
        for i in range(len(log)):
            et = int(log.etypes[i])
            t = float(log.timestamps[i])
            if depth > 0:
                a = int(np.clip((max(last_t, lo) - lo) * scale, 0, width - 1))
                b = int(np.clip((min(t, hi) - lo) * scale, 0, width - 1))
                lane[a : b + 1] += 1
            if et in opens:
                depth += 1
                last_t = t
            elif et in closes:
                depth = max(depth - 1, 0)
                last_t = t
        chars = "".join(
            options.lane_char if v > 0 else options.idle_char for v in lane
        )
        lines.append(f"rank {rank:>3} |{chars}|")
    header = f"timeline {lo:.6f}s .. {hi:.6f}s ({(hi - lo) * 1e6:.2f} us window)"
    return "\n".join([header] + lines)


def render_message_arrows(
    trace: Trace,
    t0: float | None = None,
    t1: float | None = None,
    limit: int = 20,
) -> str:
    """List messages in the window, flagging backward (violating) ones.

    The text analogue of VAMPIR's "arrows pointing backward in time-line
    views"; a message received before it was sent is marked
    ``<-- BACKWARD``.
    """
    lo, hi = _window(trace, t0, t1)
    msgs = trace.messages(strict=False)
    lines = []
    shown = 0
    order = np.argsort(msgs.send_ts)
    for k in order:
        s, r = float(msgs.send_ts[k]), float(msgs.recv_ts[k])
        if s < lo or s > hi:
            continue
        if shown >= limit:
            lines.append(f"... ({len(msgs)} messages total)")
            break
        flag = "  <-- BACKWARD" if r < s else ""
        lines.append(
            f"  {int(msgs.src[k]):>3} -> {int(msgs.dst[k]):>3}  "
            f"send {s:.9f}  recv {r:.9f}  dt {(r - s) * 1e6:+9.3f} us{flag}"
        )
        shown += 1
    if not lines:
        lines.append("  (no messages in window)")
    return "\n".join(lines)
