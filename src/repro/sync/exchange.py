"""Free offset estimates from full message exchanges (Babaoglu/Drummond).

Section V: *"Babaoglu and Drummond have shown that clock synchronization
is possible at minimal cost if the application makes a full message
exchange between all processors in sufficiently short intervals."*

Every N-to-N collective already *is* such an exchange.  Its true-time
semantics bound every pairwise offset: for members i, j of one instance,

    -(exit_j - enter_i - l_min)  <=  off_i - off_j  <=  exit_i - enter_j - l_min

and the midpoint of that interval is simply the difference of the
members' own midpoints ``mid = (enter + exit) / 2``.  So each barrier,
allreduce, allgather or alltoall in a trace yields — for free, with no
probe traffic at all — one offset estimate per rank against the master,
accurate to about half the operation's duration plus half the arrival
skew.  A run with regular collectives therefore carries its own
piecewise synchronization, the property [22]/[23] exploit.

:func:`offsets_from_exchanges` extracts those estimates as standard
measurement sets, directly consumable by
:func:`repro.sync.interpolation.piecewise_interpolation`.  Every N-to-N
MPI instance the master takes part in counts, however long it ran: a
long instance is a long wait and gives a coarse midpoint, but dropping
it leaves a longer gap between knots instead (an OpenMP barrier is no
message exchange and never counts).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.interpolation import ClockCorrection, piecewise_interpolation
from repro.sync.offset import OffsetMeasurement
from repro.tracing.events import COLLECTIVE_FLAVORS, MPI_COLLECTIVES, CollectiveFlavor
from repro.tracing.trace import Trace

__all__ = ["offsets_from_exchanges", "exchange_correction"]


def offsets_from_exchanges(
    trace: Trace, master: int = 0
) -> list[dict[int, OffsetMeasurement]]:
    """One measurement set per N-to-N MPI collective instance of ``master``.

    Returns ``{worker_rank: OffsetMeasurement}`` per instance, in
    instance order.  The recorded ``rtt`` is the estimate's uncertainty
    width ``(duration_master + duration_worker)``.
    """
    exchanges = {
        op for op in MPI_COLLECTIVES if COLLECTIVE_FLAVORS[op] is CollectiveFlavor.N_TO_N
    }
    sets: list[dict[int, OffsetMeasurement]] = []
    for rec in trace.collectives():
        if rec.op not in exchanges or rec.ranks.size < 2:
            continue
        positions = {int(r): i for i, r in enumerate(rec.ranks)}
        if master not in positions:
            continue
        m_pos = positions[master]
        m_dur = float(rec.exit_ts[m_pos] - rec.enter_ts[m_pos])
        m_mid = float(rec.enter_ts[m_pos] + rec.exit_ts[m_pos]) / 2.0
        measurements: dict[int, OffsetMeasurement] = {}
        for rank, pos in positions.items():
            if rank == master:
                continue
            w_mid = float(rec.enter_ts[pos] + rec.exit_ts[pos]) / 2.0
            w_dur = float(rec.exit_ts[pos] - rec.enter_ts[pos])
            measurements[rank] = OffsetMeasurement(
                worker=rank,
                worker_time=w_mid,
                offset=m_mid - w_mid,
                rtt=m_dur + w_dur,
                repeats=1,
            )
        if measurements:
            sets.append(measurements)
    return sets


def exchange_correction(trace: Trace, master: int = 0) -> ClockCorrection:
    """Piecewise correction built purely from the trace's own exchanges.

    Raises :class:`SynchronizationError` when the trace holds fewer than
    two exchanges covering every non-master rank.
    """
    sets = offsets_from_exchanges(trace, master=master)
    workers = {r for r in trace.ranks if r != master}
    usable = [s for s in sets if set(s) == workers]
    if len(usable) < 2:
        raise SynchronizationError(
            f"need >= 2 full exchanges covering all ranks; found {len(usable)}"
        )
    # Drop duplicate knot times (back-to-back collectives can yield the
    # same worker_time after quantization).
    deduped: list[dict[int, OffsetMeasurement]] = []
    last_times: dict[int, float] = {}
    for s in usable:
        if any(s[w].worker_time <= last_times.get(w, -np.inf) for w in workers):
            continue
        deduped.append(s)
        for w in workers:
            last_times[w] = s[w].worker_time
    if len(deduped) < 2:
        raise SynchronizationError("exchanges too close together to interpolate")
    return piecewise_interpolation(deduped, master=master)
