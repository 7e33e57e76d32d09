"""Offset alignment and linear offset interpolation (paper Eq. 3).

Given offset measurements between an arbitrary master clock and each
worker clock, a :class:`ClockCorrection` maps worker-local timestamps
onto the master timeline:

* **alignment** (one measurement): assume zero drift difference; apply
  the constant measured offset — the paper's Fig. 4 baseline
  ("after an initial alignment of offsets");
* **linear interpolation** (two measurements, Eq. 3): assume constant
  drift difference::

      m(t) = t + (o2 - o1)/(w2 - w1) * (t - w1) + o1

  with ``(w_i, o_i)`` the worker time and master-minus-worker offset of
  measurement *i* — the paper's Fig. 5/6/7 correction (Scalasca scheme);
* **piecewise interpolation** (many measurements): the Doleschal-style
  "further option" of Section III.b — linear between consecutive
  measurements, extrapolating with the end slopes.

All three are the same object: a per-rank piecewise-linear offset
function over worker time, with 1, 2, or k knots.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.offset import Measurements
from repro.tracing.trace import Trace

__all__ = [
    "ClockCorrection",
    "align_offsets",
    "linear_interpolation",
    "piecewise_interpolation",
    "identity_correction",
]


class ClockCorrection:
    """Per-rank piecewise-linear mapping onto the master timeline.

    Parameters
    ----------
    knots:
        ``{rank: (worker_times, offsets)}`` — for each corrected rank,
        sorted worker-clock times and the master-minus-worker offset at
        each.  A rank with one knot gets a constant offset; k >= 2 knots
        interpolate linearly and extrapolate with the end segments'
        slopes (Eq. 3 *is* the two-knot case).
    master:
        The rank whose clock defines the global timeline (mapped
        identically).  Ranks absent from ``knots`` (other than the
        master) are also mapped identically.
    """

    def __init__(
        self, knots: Mapping[int, tuple[np.ndarray, np.ndarray]], master: int = 0
    ) -> None:
        self.master = master
        self.knots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._slopes: dict[int, np.ndarray] = {}  # per rank, per knot segment
        for rank, (w, o) in knots.items():
            w = np.asarray(w, dtype=np.float64)
            o = np.asarray(o, dtype=np.float64)
            if w.ndim != 1 or w.shape != o.shape or w.size == 0:
                raise SynchronizationError(f"rank {rank}: malformed correction knots")
            if w.size > 1 and not np.all(np.diff(w) > 0):
                raise SynchronizationError(
                    f"rank {rank}: knot times must be strictly increasing"
                )
            self.knots[rank] = (w, o)
            self._slopes[rank] = (o[1:] - o[:-1]) / (w[1:] - w[:-1])

    # ------------------------------------------------------------------
    def offset_model(self, rank: int, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Predicted master-minus-worker offset at worker time ``t`` (an
        array input gets a new array).

        On knot segment ``j`` (the end segments extended) it is
        ``o_j + s_j·(t − w_j)`` with the slope ``s_j`` computed once; an
        event's segment is one ``searchsorted`` over the interior knots,
        none for two.  The operations and their order are the per-event
        formula's, so are the bits, NaN and ±inf included.
        """
        arr = np.asarray(t, dtype=np.float64)
        flat = np.atleast_1d(arr)
        if rank == self.master or rank not in self.knots:
            out = np.zeros_like(flat)
        else:
            (w, o), slopes = self.knots[rank], self._slopes[rank]
            if w.size == 1:
                out = np.full_like(flat, o[0])
            elif w.size == 2:
                out = np.subtract(flat, w[0])
                np.multiply(slopes[0], out, out=out)
                np.add(o[0], out, out=out)
            else:
                j = np.searchsorted(w[1:-1], flat, side="right")
                out = o[j] + slopes[j] * (flat - w[j])
        return float(out[0]) if arr.ndim == 0 else out

    def apply_rank(self, rank: int, timestamps: np.ndarray) -> np.ndarray:
        """Map a rank's local timestamps onto the master timeline."""
        ts = np.asarray(timestamps, dtype=np.float64)
        out = self.offset_model(rank, ts)
        return ts + out if ts.ndim == 0 else np.add(ts, out, out=out)

    def apply(self, trace: Trace) -> Trace:
        """Corrected copy of ``trace`` (every rank mapped to master time)."""
        new_ts = {
            rank: self.apply_rank(rank, trace.logs[rank].timestamps)
            for rank in trace.ranks
        }
        corrected = trace.with_timestamps(new_ts)
        corrected.meta["correction"] = repr(self)
        return corrected

    def drift_rate(self, rank: int) -> float:
        """Mean relative drift rate implied by the knots (0 if constant)."""
        if rank == self.master or rank not in self.knots:
            return 0.0
        w, o = self.knots[rank]
        if w.size < 2:
            return 0.0
        return float((o[-1] - o[0]) / (w[-1] - w[0]))

    def __repr__(self) -> str:
        sizes = {rank: w.size for rank, (w, _) in self.knots.items()}
        return f"ClockCorrection(master={self.master}, knots={sizes})"


def identity_correction(master: int = 0) -> ClockCorrection:
    """A correction that changes nothing (baseline)."""
    return ClockCorrection({}, master=master)


def align_offsets(measurements: Measurements, master: int = 0) -> ClockCorrection:
    """Constant-offset correction from a single measurement set.

    This is the "offset alignment only at program initialization" of
    Section IV: all clocks start from zero together, drift uncorrected.
    """
    if not measurements:
        raise SynchronizationError("alignment needs at least one measurement per worker")
    return _from_sets([measurements], master)


def linear_interpolation(
    init: Measurements, final: Measurements, master: int = 0
) -> ClockCorrection:
    """Two-point linear offset interpolation (Eq. 3, the Scalasca scheme).

    ``init`` and ``final`` must cover the same worker ranks; each worker
    gets the line through its two (worker_time, offset) measurements.
    """
    return _from_sets([init, final], master)


def piecewise_interpolation(
    measurement_series: Sequence[Measurements], master: int = 0
) -> ClockCorrection:
    """Piecewise-linear correction from k >= 2 measurement sets.

    The "periodic offset measurements during global synchronization
    operations" option (Doleschal et al.) discussed in Section III.b:
    more knots bound the residual by the drift wander *between*
    measurements instead of over the whole run.
    """
    if len(measurement_series) < 2:
        raise SynchronizationError("piecewise interpolation needs >= 2 measurement sets")
    return _from_sets(measurement_series, master)


def _from_sets(series: Sequence[Measurements], master: int) -> ClockCorrection:
    """One knot per set for each worker; the sets in run order, so each
    worker's measurement times must strictly increase."""
    ranks = set(series[0])
    for ms in series[1:]:
        if set(ms) != ranks:
            raise SynchronizationError(
                f"measurement sets cover different ranks: {sorted(ranks)} vs {sorted(ms)}"
            )
    knots = {
        rank: ([ms[rank].worker_time for ms in series], [ms[rank].offset for ms in series])
        for rank in series[0]
    }
    return ClockCorrection(knots, master=master)
