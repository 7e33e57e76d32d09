"""Offset measurement via Cristian's probabilistic remote clock reading.

Paper Eq. 2: the master sends a request at master time ``t1``; the
worker replies with its local time ``t0``; the reply arrives at master
time ``t2``.  Under the symmetric-delay assumption the master-minus-
worker offset is::

    o = t1 + (t2 - t1)/2 - t0

Because real delays are irregular, the exchange is repeated and the
round with the smallest round-trip time wins — the shorter the RTT, the
tighter the bound ``|error| <= (t2 - t1)/2 - l_min`` on the estimate.

:func:`measurement_protocol` is the in-simulation master/worker pair of
generator subroutines used at ``MPI_Init``/``MPI_Finalize`` by
:class:`repro.mpi.runtime.MpiWorld` (the Scalasca scheme) and by the
repeated-probe deviation experiments of Figs. 4-6.  A run's
measurements travel in its trace's metadata, written by
:func:`measurements_to_meta` and read by :func:`measurements_from_meta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Mapping, Optional, Sequence

__all__ = ["OffsetMeasurement", "cristian_offset", "measurement_protocol", "SYNC_TAG",
           "measurements_to_meta", "measurements_from_meta"]

#: Reserved tag for measurement traffic.  Negative (like collective
#: tags) so no application or sub-communicator tag can collide; distinct
#: from every collective tag because those encode instance ids >= 0 as
#: ``-(instance + 2)`` while this sits far below any realistic count.
SYNC_TAG: int = -(1 << 40)


@dataclass(frozen=True)
class OffsetMeasurement:
    """Best-of-N Cristian estimate between the master and one worker.

    Attributes
    ----------
    worker:
        Worker rank.
    worker_time:
        Worker-clock time ``t0`` of the winning exchange — the abscissa
        ``w`` used by linear interpolation (Eq. 3).
    offset:
        Estimated master-minus-worker offset ``o`` (Eq. 2).
    rtt:
        Round-trip time of the winning exchange (master clock).
    repeats:
        Number of exchanges performed.
    """

    worker: int
    worker_time: float
    offset: float
    rtt: float
    repeats: int


Measurements = Mapping[int, OffsetMeasurement]


def measurements_to_meta(
    init: Optional[Measurements] = None,
    final: Optional[Measurements] = None,
    periodic: Sequence[Measurements] = (),
) -> dict:
    """The trace-metadata entries that carry a run's offset measurements.

    Each set is stored as ``{str(worker): (worker_time, offset)}`` (no
    interpolation needs RTT or repeats): ``init_offsets`` /
    ``final_offsets`` when taken, and ``periodic_offsets``, a list of
    sets in run order, only when the run took periodic ones, so a run
    without periodic sync writes the metadata it always did.
    """
    sets = {"init_offsets": init, "final_offsets": final}
    meta = {key: _encode(ms) for key, ms in sets.items() if ms is not None}
    if periodic:
        meta["periodic_offsets"] = [_encode(ms) for ms in periodic]
    return meta


def measurements_from_meta(meta: Mapping, key: str):
    """Read back what :func:`measurements_to_meta` stored under ``key``:
    one ``{worker: OffsetMeasurement}`` set, a list of them for
    ``periodic_offsets``, or ``None`` when the trace has no such entry."""
    raw = meta.get(key)
    if raw is None:
        return None
    return [_decode(ms) for ms in raw] if key == "periodic_offsets" else _decode(raw)


def _encode(measurements: Measurements) -> dict:
    return {str(r): (m.worker_time, m.offset) for r, m in measurements.items()}


def _decode(raw: Mapping) -> dict[int, OffsetMeasurement]:
    return {int(r): OffsetMeasurement(int(r), float(w), float(o), 0.0, 0)
            for r, (w, o) in raw.items()}


def cristian_offset(t1: float, t0: float, t2: float) -> float:
    """Eq. 2: master-minus-worker offset from one exchange."""
    return t1 + (t2 - t1) / 2.0 - t0


def measurement_protocol(ctx, repeats: int = 10, master: int = 0):
    """In-simulation offset measurement (run by *every* rank).

    The master rank measures each worker sequentially; workers answer
    exactly ``repeats`` requests.  Returns, on the master, a dict
    ``{worker_rank: OffsetMeasurement}``; on workers, ``None``.

    All clock reads and messages use the *raw* context operations: the
    measurement is tool traffic and must not appear in the trace.
    """
    if ctx.rank == master:
        return (yield from _master_side(ctx, repeats, master))
    yield from _worker_side(ctx, repeats, master)
    return None


def _master_side(ctx, repeats: int, master: int) -> Generator:
    results: dict[int, OffsetMeasurement] = {}
    for worker in range(ctx.size):
        if worker == master:
            continue
        best: OffsetMeasurement | None = None
        for _ in range(repeats):
            t1 = yield from ctx.wtime()
            yield from ctx.send_raw(worker, tag=SYNC_TAG, nbytes=8)
            msg = yield from ctx.recv_raw(src=worker, tag=SYNC_TAG)
            t2 = yield from ctx.wtime()
            t0 = msg.payload
            rtt = t2 - t1
            if best is None or rtt < best.rtt:
                best = OffsetMeasurement(
                    worker=worker,
                    worker_time=t0,
                    offset=cristian_offset(t1, t0, t2),
                    rtt=rtt,
                    repeats=repeats,
                )
        results[worker] = best
    return results


def _worker_side(ctx, repeats: int, master: int) -> Generator:
    for _ in range(repeats):
        yield from ctx.recv_raw(src=master, tag=SYNC_TAG)
        t0 = yield from ctx.wtime()
        yield from ctx.send_raw(master, tag=SYNC_TAG, nbytes=8, payload=t0)
