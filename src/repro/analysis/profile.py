"""Region time profiles — and why clock errors (mostly) spare them.

A classic profile — inclusive/exclusive time per code region per rank —
is built entirely from *local interval lengths* (exit minus enter on the
same clock).  Constant clock offsets cancel out of every interval, and
ppm-scale drift perturbs a one-millisecond region by only nanoseconds.
Cross-process *orderings*, by contrast, feel the full offset.  That
asymmetry is implicit throughout the paper: timestamps are "taken on
most cluster nodes ... from insufficiently synchronized local clocks",
yet tracing tools still get per-region timings right — it is the
happened-before analyses (Section III's clock condition) that break.

:func:`region_profile` computes the profile; the test suite verifies
the asymmetry quantitatively (profiles agree across timer technologies
to ppm while orderings diverge completely).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.tracing.events import EventType
from repro.tracing.trace import Trace

__all__ = ["RegionProfile", "region_profile"]

#: Event types that open/close a profiled region, paired.
_OPEN_CLOSE = {
    int(EventType.ENTER): int(EventType.EXIT),
    int(EventType.COLL_ENTER): int(EventType.COLL_EXIT),
    int(EventType.OMP_PAR_ENTER): int(EventType.OMP_PAR_EXIT),
    int(EventType.OMP_BARRIER_ENTER): int(EventType.OMP_BARRIER_EXIT),
}
_CLOSERS = set(_OPEN_CLOSE.values())


@dataclass
class RegionProfile:
    """Per-(rank, region) inclusive/exclusive times and visit counts.

    ``region`` keys are the ``a`` attribute of ENTER/EXIT events (the
    region id) and, for collectives, ``-(op + 1)`` so they can't clash
    with user region ids.
    """

    inclusive: dict[tuple[int, int], float] = field(default_factory=dict)
    exclusive: dict[tuple[int, int], float] = field(default_factory=dict)
    visits: dict[tuple[int, int], int] = field(default_factory=dict)

    def by_region(self, kind: str = "inclusive") -> dict[int, float]:
        """Aggregate a metric over ranks, per region id."""
        source = {"inclusive": self.inclusive, "exclusive": self.exclusive}[kind]
        out: dict[int, float] = {}
        for (_, region), value in source.items():
            out[region] = out.get(region, 0.0) + value
        return out

    def total_time(self) -> float:
        """Sum of inclusive times over every (rank, region) pair.

        Nested regions contribute to their own entry *and* to their
        parents' inclusive time, like any callpath-less flat profile.
        """
        return sum(self.inclusive.values())

    def rank_region(self, rank: int, region: int) -> tuple[float, float, int]:
        """(inclusive, exclusive, visits) for one rank/region pair."""
        key = (rank, region)
        return (
            self.inclusive.get(key, 0.0),
            self.exclusive.get(key, 0.0),
            self.visits.get(key, 0),
        )


def _region_key(etype: int, a: int) -> int:
    if etype in (int(EventType.COLL_ENTER), int(EventType.COLL_EXIT)):
        return -(a + 1)  # collective op id, kept clear of user region ids
    return a


def region_profile(trace: Trace) -> RegionProfile:
    """Walk each rank's enter/exit nesting and accumulate times.

    Raises :class:`TraceError` on unbalanced enter/exit nesting (a
    truncated or corrupt trace).  SEND/RECV and fork/join events inside
    a region count toward its exclusive time (they are not regions).
    """
    profile = RegionProfile()
    for rank in trace.ranks:
        log = trace.logs[rank]
        ts, et, a = log.timestamps, log.etypes, log.a
        # Stack of (region_key, enter_ts, child_time).
        stack: list[list] = []
        for i in range(len(log)):
            kind = int(et[i])
            if kind in _OPEN_CLOSE:
                stack.append([_region_key(kind, int(a[i])), float(ts[i]), 0.0])
            elif kind in _CLOSERS:
                if not stack:
                    raise TraceError(
                        f"rank {rank}: region exit at index {i} without matching enter"
                    )
                region, t_enter, child_time = stack.pop()
                expected = _region_key(kind, int(a[i]))
                if expected != region:
                    raise TraceError(
                        f"rank {rank}: mismatched region nesting at index {i} "
                        f"(open {region}, close {expected})"
                    )
                span = float(ts[i]) - t_enter
                key = (rank, region)
                profile.inclusive[key] = profile.inclusive.get(key, 0.0) + span
                profile.exclusive[key] = (
                    profile.exclusive.get(key, 0.0) + span - child_time
                )
                profile.visits[key] = profile.visits.get(key, 0) + 1
                if stack:
                    stack[-1][2] += span
        if stack:
            raise TraceError(
                f"rank {rank}: {len(stack)} region(s) never exited (truncated trace?)"
            )
    return profile
