"""Clock-condition violation scans.

The clock condition (paper Eq. 1) requires ``t_recv >= t_send + l_min``
for every (real or logical) message.  Violations — receives apparently
happening before their sends — are what break trace visualizers
(backward arrows in VAMPIR) and automatic analyzers (KOJAK/Scalasca).

Three scans, all vectorized over whole timestamp columns:

* :func:`scan_messages` — point-to-point messages;
* :func:`scan_collectives` — collectives expanded to logical messages
  via :mod:`repro.sync.collectives_map`;
* :func:`scan_pomp` — OpenMP/POMP region semantics (fork first, join
  last, barrier overlap; Fig. 2c/2d and Fig. 8).

``l_min`` may be given as 0 (pure event-order reversal, the quantity in
Fig. 7's front row), a scalar, a per-rank-pair matrix, or a callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.sync.collectives_map import logical_messages
from repro.tracing.events import EventType
from repro.tracing.trace import MessageTable, Trace

__all__ = [
    "LminSpec",
    "resolve_lmin",
    "pair_lmin",
    "ViolationReport",
    "PompRegionReport",
    "scan_messages",
    "scan_collectives",
    "scan_pomp",
    "scan_trace",
    "violations_by_pair",
]

LminSpec = Union[float, np.ndarray, Callable[[int, int], float]]


def _encode_pairs(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack (src, dst) rank pairs into single int64 keys.

    Returns the key array and the encoding width (``dst`` values span
    ``[0, width)``), so ``key = src * width + dst`` decodes uniquely.
    """
    width = int(dst.max()) + 1
    return src.astype(np.int64) * width + dst.astype(np.int64), width


def resolve_lmin(lmin: LminSpec, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-message minimum-latency floor from any accepted spec form.

    Callables (which the docstring contract requires to be pure) are
    evaluated once per *unique* (src, dst) pair and broadcast back over
    the messages — on an N-message table with P distinct pairs that is P
    Python calls instead of N.
    """
    if callable(lmin):
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.size == 0:
            return np.zeros(0, dtype=np.float64)
        keys, width = _encode_pairs(src, dst)
        uniq, inverse = np.unique(keys, return_inverse=True)
        per_pair = np.array(
            [lmin(int(k // width), int(k % width)) for k in uniq], dtype=np.float64
        )
        return per_pair[inverse]
    if isinstance(lmin, np.ndarray):
        if lmin.ndim != 2:
            raise ConfigurationError("l_min matrix must be 2-D (nranks x nranks)")
        return lmin[src, dst].astype(np.float64)
    return np.full(src.shape, float(lmin))


def pair_lmin(lmin: LminSpec) -> Callable[[int, int], float]:
    """Scalar ``l_min(src, dst)`` for the event-by-event passes.

    The scalar counterpart of :func:`resolve_lmin`: a callable or matrix
    spec is read once per rank pair and remembered.
    """
    if callable(lmin):
        return lru_cache(maxsize=None)(lambda s, d: float(lmin(s, d)))
    if isinstance(lmin, np.ndarray):
        return lru_cache(maxsize=None)(lambda s, d: float(lmin[s, d]))
    value = float(lmin)
    return lambda s, d: value


def lmin_matrix_from_trace(trace: Trace, latency_model) -> np.ndarray:
    """Build an ``l_min`` matrix from trace metadata locations.

    Requires ``trace.meta["locations"]`` (written by
    :class:`repro.mpi.runtime.MpiWorld`) and a latency model.
    """
    from repro.cluster.topology import Location

    locs_raw = trace.meta.get("locations")
    if locs_raw is None:
        raise ConfigurationError("trace metadata has no 'locations'; cannot derive l_min")
    locs = [Location(*map(int, entry)) for entry in locs_raw]
    n = len(locs)
    mat = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if i != j:
                mat[i, j] = latency_model.min_latency(locs[i], locs[j])
    return mat


@dataclass
class ViolationReport:
    """Outcome of one message scan.

    Attributes
    ----------
    kind:
        "p2p" or "collective".
    checked:
        Messages examined.
    violated:
        Messages with ``recv_ts < send_ts + l_min``.
    indices:
        Positions of violating messages in the scanned table.
    worst:
        Largest violation magnitude ``(send_ts + l_min) - recv_ts``
        observed, seconds (0 if none).
    """

    kind: str
    checked: int
    violated: int
    indices: np.ndarray
    worst: float = 0.0

    @property
    def rate(self) -> float:
        """Fraction of checked messages violating the condition."""
        return self.violated / self.checked if self.checked else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.kind}: {self.violated}/{self.checked} "
            f"({100 * self.rate:.2f} %) clock-condition violations"
        )


def scan_messages(messages: MessageTable, lmin: LminSpec = 0.0) -> ViolationReport:
    """Check Eq. 1 over a message table."""
    if len(messages) == 0:
        return ViolationReport("p2p", 0, 0, np.empty(0, dtype=np.int64))
    floors = resolve_lmin(lmin, messages.src, messages.dst)
    slack = messages.recv_ts - (messages.send_ts + floors)
    mask = slack < 0
    idx = np.nonzero(mask)[0]
    worst = float(-slack[idx].min()) if idx.size else 0.0
    return ViolationReport("p2p", len(messages), int(idx.size), idx, worst)


def scan_collectives(trace: Trace, lmin: LminSpec = 0.0) -> tuple[ViolationReport, MessageTable]:
    """Expand collectives to logical messages and check Eq. 1.

    Returns the report and the logical-message table it was computed on
    (callers often need both, e.g. Fig. 7 counts logical messages too).
    """
    logical = logical_messages(trace.collectives())
    return replace(scan_messages(logical, lmin), kind="collective"), logical


def scan_trace(trace: Trace, lmin: LminSpec = 0.0) -> dict[str, ViolationReport]:
    """Combined p2p + collective scan of an MPI trace."""
    return {
        "p2p": scan_messages(trace.messages(strict=False), lmin),
        "collective": scan_collectives(trace, lmin)[0],
    }


def violations_by_pair(
    messages: MessageTable, lmin: LminSpec = 0.0
) -> dict[tuple[int, int], tuple[int, int]]:
    """Per-(src, dst) breakdown: ``{(src, dst): (violated, checked)}``.

    The diagnostic view behind "which clock pair is responsible": on a
    multi-node job, violations concentrate on the rank pairs whose
    nodes' clocks disagree the most at the traced window.
    """
    if len(messages) == 0:
        return {}
    floors = resolve_lmin(lmin, messages.src, messages.dst)
    bad = messages.recv_ts - (messages.send_ts + floors) < 0
    # One grouping pass instead of a boolean mask per unique pair:
    # np.unique labels every message with its pair id, bincount
    # aggregates totals and violation counts in O(n).
    keys, width = _encode_pairs(messages.src, messages.dst)
    uniq, inverse = np.unique(keys, return_inverse=True)
    checked = np.bincount(inverse, minlength=uniq.size)
    violated = np.bincount(inverse[bad], minlength=uniq.size)
    return {
        (int(k // width), int(k % width)): (int(v), int(c))
        for k, v, c in zip(uniq, violated, checked)
    }


# ----------------------------------------------------------------------
# OpenMP / POMP
# ----------------------------------------------------------------------
@dataclass
class PompRegionReport:
    """Violation statistics over the parallel regions of an OpenMP trace.

    Mirrors Fig. 8: per-region-instance flags for entry (fork not the
    first event of the region), exit (join not the last), and implicit
    barrier (some thread left before another entered), plus the
    aggregate "any" percentage.
    """

    regions: int
    entry_violations: int
    exit_violations: int
    barrier_violations: int
    any_violations: int
    instances: dict[int, dict[str, bool]] = field(default_factory=dict)

    def pct(self, kind: str) -> float:
        """Percentage of regions with a violation of ``kind``
        ('entry', 'exit', 'barrier', or 'any')."""
        if self.regions == 0:
            return 0.0
        count = {
            "entry": self.entry_violations,
            "exit": self.exit_violations,
            "barrier": self.barrier_violations,
            "any": self.any_violations,
        }[kind]
        return 100.0 * count / self.regions


def scan_pomp(trace: Trace, sync_lmin: float = 0.0) -> PompRegionReport:
    """Scan an OpenMP (POMP) trace for region-semantics violations.

    For every parallel-region instance (grouped by the ``d`` attribute
    of the POMP events):

    * **entry**: the master's ``OMP_FORK`` timestamp must not exceed any
      thread's ``OMP_PAR_ENTER`` (fork is the region's first event);
    * **exit**: the master's ``OMP_JOIN`` timestamp must be at least
      every thread's ``OMP_PAR_EXIT`` (join is the last event);
    * **barrier**: execution of the implicit barrier must overlap —
      every ``OMP_BARRIER_EXIT`` must be >= every other thread's
      ``OMP_BARRIER_ENTER`` (+ ``sync_lmin``), else one thread left the
      barrier before another entered it (Fig. 2d).
    """
    # Gather all ranks' events into flat columns once, then group each
    # POMP event type by region instance (the ``d`` attribute) with a
    # stable sort — one vectorized pass per type instead of a Python
    # loop over every event of every rank.  Stable sorting preserves
    # (rank, log-position) order within an instance, matching the order
    # the old per-rank append loop produced.
    logs = [trace.logs[rank] for rank in trace.ranks]
    if logs:
        ts = np.concatenate([log.timestamps for log in logs])
        et = np.concatenate([log.etypes for log in logs])
        dd = np.concatenate([log.d for log in logs])
    else:  # pragma: no cover - degenerate empty trace
        ts = np.empty(0, dtype=np.float64)
        et = dd = np.empty(0, dtype=np.int64)

    def _last_per_instance(kind: EventType) -> dict[int, float]:
        idx = np.nonzero(et == int(kind))[0]
        # dict comprehension: a later duplicate overwrites, like the
        # old sequential store did.
        return {int(i): float(t) for i, t in zip(dd[idx], ts[idx])}

    _EMPTY = np.empty(0, dtype=np.float64)

    def _grouped_per_instance(kind: EventType) -> dict[int, np.ndarray]:
        idx = np.nonzero(et == int(kind))[0]
        dv = dd[idx]
        tv = ts[idx].astype(np.float64, copy=False)
        order = np.argsort(dv, kind="stable")
        dv = dv[order]
        tv = tv[order]
        insts, starts = np.unique(dv, return_index=True)
        bounds = np.append(starts[1:], dv.size)
        return {int(i): tv[s:e] for i, s, e in zip(insts, starts, bounds)}

    forks = _last_per_instance(EventType.OMP_FORK)
    joins = _last_per_instance(EventType.OMP_JOIN)
    par_enter = _grouped_per_instance(EventType.OMP_PAR_ENTER)
    par_exit = _grouped_per_instance(EventType.OMP_PAR_EXIT)
    bar_enter = _grouped_per_instance(EventType.OMP_BARRIER_ENTER)
    bar_exit = _grouped_per_instance(EventType.OMP_BARRIER_EXIT)

    instances: dict[int, dict[str, bool]] = {}
    entry = exit_ = barrier = any_ = 0
    all_instances = (
        set(forks) | set(joins) | set(par_enter) | set(par_exit)
        | set(bar_enter) | set(bar_exit)
    )
    for inst in sorted(all_instances):
        flags = {"entry": False, "exit": False, "barrier": False}
        fork_ts = forks.get(inst)
        join_ts = joins.get(inst)
        b_in = bar_enter.get(inst, _EMPTY)
        b_out = bar_exit.get(inst, _EMPTY)
        region_events = np.concatenate(
            (par_enter.get(inst, _EMPTY), par_exit.get(inst, _EMPTY), b_in, b_out)
        )
        if fork_ts is not None and region_events.size and fork_ts > region_events.min():
            flags["entry"] = True
        if join_ts is not None and region_events.size and join_ts < region_events.max():
            flags["exit"] = True
        if b_in.size >= 2 and b_out.size >= 2:
            # Violation iff some thread's exit precedes another's enter:
            # compare each exit to the max enter of the *other* threads.
            order = np.argsort(b_in)
            top, second = int(order[-1]), int(order[-2])
            for i in range(b_out.size):
                other_max = b_in[second] if i == top else b_in[top]
                if b_out[i] + 1e-18 < other_max + sync_lmin:
                    flags["barrier"] = True
                    break
        instances[inst] = flags
        entry += flags["entry"]
        exit_ += flags["exit"]
        barrier += flags["barrier"]
        any_ += any(flags.values())

    return PompRegionReport(
        regions=len(instances),
        entry_violations=entry,
        exit_violations=exit_,
        barrier_violations=barrier,
        any_violations=any_,
        instances=instances,
    )
