"""Event species and the columnar per-rank event log.

The event vocabulary follows the models named in the paper: MPI events
(send/receive of point-to-point messages, enter/exit of code regions,
collective begin/end) and the POMP event model for OpenMP (fork/join,
parallel-region enter/exit, implicit-barrier enter/exit).

Records are held columnar — one numpy array per field — because every
postmortem algorithm in :mod:`repro.sync` (interpolation, violation
scans, CLC) operates on whole timestamp arrays at once.  During a
simulation records accumulate directly in preallocated numpy columns
that double in capacity when full (amortized O(1) appends); freezing
merely slices zero-copy views of the filled prefix.

Field meaning by event type (the four generic integer attributes
``a, b, c, d`` are interpreted per type, like OTF's record layouts):

=================  ======= ====== ========= ===========
type               a       b      c         d
=================  ======= ====== ========= ===========
SEND / RECV        peer    tag    nbytes    match_id
COLL_ENTER / EXIT  op      root   comm size instance id
ENTER / EXIT       region  --     --        --
OMP_FORK / JOIN    region  team   --        instance id
OMP_PAR_* /
OMP_BARRIER_*      region  team   --        instance id
=================  ======= ====== ========= ===========
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import TraceError

__all__ = [
    "EventType",
    "CollectiveOp",
    "CollectiveFlavor",
    "COLLECTIVE_FLAVORS",
    "MPI_COLLECTIVES",
    "Event",
    "EventLog",
]


class EventType(enum.IntEnum):
    """Event species (stable small ints; stored as int8)."""

    ENTER = 0
    EXIT = 1
    SEND = 2
    RECV = 3
    COLL_ENTER = 4
    COLL_EXIT = 5
    OMP_FORK = 6
    OMP_JOIN = 7
    OMP_PAR_ENTER = 8
    OMP_PAR_EXIT = 9
    OMP_BARRIER_ENTER = 10
    OMP_BARRIER_EXIT = 11


class CollectiveOp(enum.IntEnum):
    """Collective operations distinguished by the mapping of Section V.

    The CLC extension maps each collective onto logical point-to-point
    messages according to its flavor (1-to-N, N-to-1, N-to-N); see
    :data:`COLLECTIVE_FLAVORS`.  The MPI operations are recorded as
    ``COLL_ENTER``/``COLL_EXIT`` pairs; the three ``OMP_*`` members are
    the team synchronizations of the POMP model, read from the ``OMP_*``
    events of a parallel region (:func:`repro.tracing.trace.collective_rows`).
    """

    BARRIER = 0
    BCAST = 1
    REDUCE = 2
    ALLREDUCE = 3
    GATHER = 4
    SCATTER = 5
    ALLGATHER = 6
    ALLTOALL = 7
    SCAN = 8
    REDUCE_SCATTER = 9
    OMP_FORK = 10  # the master's OMP_FORK -> every thread's OMP_PAR_ENTER
    OMP_JOIN = 11  # every thread's OMP_PAR_EXIT -> the master's OMP_JOIN
    OMP_BARRIER = 12  # the implicit barrier's OMP_BARRIER_ENTER -> _EXIT


#: The operations an MPI ``COLL_ENTER``/``COLL_EXIT`` pair records.
MPI_COLLECTIVES: tuple[CollectiveOp, ...] = tuple(CollectiveOp)[: CollectiveOp.OMP_FORK]


class CollectiveFlavor(enum.Enum):
    """Communication shape of a collective (paper Section V).

    ``PREFIX`` extends the paper's three flavors for MPI_Scan: rank i's
    result depends on the contributions of ranks 0..i only, so its exit
    is constrained by the enters of *lower* ranks rather than all of
    them.
    """

    ONE_TO_N = "1-to-N"
    N_TO_ONE = "N-to-1"
    N_TO_N = "N-to-N"
    PREFIX = "prefix"


#: Flavor of each collective op, used when mapping collectives onto
#: logical point-to-point semantics.
COLLECTIVE_FLAVORS: dict[CollectiveOp, CollectiveFlavor] = {
    CollectiveOp.BARRIER: CollectiveFlavor.N_TO_N,
    CollectiveOp.BCAST: CollectiveFlavor.ONE_TO_N,
    CollectiveOp.REDUCE: CollectiveFlavor.N_TO_ONE,
    CollectiveOp.ALLREDUCE: CollectiveFlavor.N_TO_N,
    CollectiveOp.GATHER: CollectiveFlavor.N_TO_ONE,
    CollectiveOp.SCATTER: CollectiveFlavor.ONE_TO_N,
    CollectiveOp.ALLGATHER: CollectiveFlavor.N_TO_N,
    CollectiveOp.ALLTOALL: CollectiveFlavor.N_TO_N,
    CollectiveOp.SCAN: CollectiveFlavor.PREFIX,
    CollectiveOp.REDUCE_SCATTER: CollectiveFlavor.N_TO_N,
    CollectiveOp.OMP_FORK: CollectiveFlavor.ONE_TO_N,
    CollectiveOp.OMP_JOIN: CollectiveFlavor.N_TO_ONE,
    CollectiveOp.OMP_BARRIER: CollectiveFlavor.N_TO_N,
}


@dataclass(frozen=True)
class Event:
    """Row view of one event (convenience; algorithms use the columns)."""

    timestamp: float
    etype: EventType
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0


#: Initial column capacity on the first append (doubles when full).
_INITIAL_CAPACITY = 64

#: (attribute, dtype) layout of the six columns, in record order.
_COLUMNS = (
    ("_ts", np.float64),
    ("_et", np.int8),
    ("_a", np.int64),
    ("_b", np.int64),
    ("_c", np.int64),
    ("_d", np.int64),
)


class EventLog:
    """Columnar, append-then-freeze event storage for one rank.

    Appends write directly into preallocated numpy columns that double
    in capacity when full (amortized O(1)); :meth:`freeze` slices
    zero-copy views of the filled prefix.  All read accessors
    implicitly freeze.
    """

    __slots__ = ("_ts", "_et", "_a", "_b", "_c", "_d", "_n", "_frozen")

    def __init__(self) -> None:
        for name, dtype in _COLUMNS:
            setattr(self, name, np.empty(0, dtype=dtype))
        self._n = 0
        self._frozen = False

    def _reserve(self, extra: int) -> None:
        """Grow every column so at least ``extra`` more records fit."""
        need = self._n + extra
        cap = len(self._ts)
        if need <= cap:
            return
        new_cap = max(cap, _INITIAL_CAPACITY)
        while new_cap < need:
            new_cap *= 2
        for name, dtype in _COLUMNS:
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    def append(
        self, timestamp: float, etype: EventType, a: int = 0, b: int = 0, c: int = 0, d: int = 0
    ) -> None:
        """Record one event (only before freezing)."""
        if self._frozen:
            raise TraceError("cannot append to a frozen EventLog")
        n = self._n
        if n >= len(self._ts):
            self._reserve(1)
        self._ts[n] = timestamp
        self._et[n] = int(etype)
        self._a[n] = a
        self._b[n] = b
        self._c[n] = c
        self._d[n] = d
        self._n = n + 1

    def extend(
        self,
        timestamps: np.ndarray,
        etypes: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        d: np.ndarray,
    ) -> None:
        """Append N records at once from parallel column arrays."""
        if self._frozen:
            raise TraceError("cannot append to a frozen EventLog")
        k = len(timestamps)
        if not all(len(col) == k for col in (etypes, a, b, c, d)):
            raise TraceError("column length mismatch")
        self._reserve(k)
        n = self._n
        for name, col in zip(
            ("_ts", "_et", "_a", "_b", "_c", "_d"),
            (timestamps, etypes, a, b, c, d),
        ):
            getattr(self, name)[n : n + k] = col
        self._n = n + k

    def freeze(self) -> "EventLog":
        """Slice immutable zero-copy views of the columns; idempotent."""
        if not self._frozen:
            n = self._n
            for name, _ in _COLUMNS:
                setattr(self, name, getattr(self, name)[:n])
            self._frozen = True
        return self

    @classmethod
    def from_arrays(
        cls,
        timestamps: np.ndarray,
        etypes: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        d: np.ndarray,
    ) -> "EventLog":
        """Build a frozen log directly from columns (I/O, corrections)."""
        n = len(timestamps)
        if not all(len(col) == n for col in (etypes, a, b, c, d)):
            raise TraceError("column length mismatch")
        log = cls()
        log._ts = np.asarray(timestamps, dtype=np.float64)
        log._et = np.asarray(etypes, dtype=np.int8)
        log._a = np.asarray(a, dtype=np.int64)
        log._b = np.asarray(b, dtype=np.int64)
        log._c = np.asarray(c, dtype=np.int64)
        log._d = np.asarray(d, dtype=np.int64)
        log._n = n
        log._frozen = True
        return log

    # ------------------------------------------------------------------
    # Column accessors (freeze on first use)
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        return self.freeze()._ts

    @property
    def etypes(self) -> np.ndarray:
        return self.freeze()._et

    @property
    def a(self) -> np.ndarray:
        return self.freeze()._a

    @property
    def b(self) -> np.ndarray:
        return self.freeze()._b

    @property
    def c(self) -> np.ndarray:
        return self.freeze()._c

    @property
    def d(self) -> np.ndarray:
        return self.freeze()._d

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> Event:
        self.freeze()
        return Event(
            timestamp=float(self._ts[i]),
            etype=EventType(int(self._et[i])),
            a=int(self._a[i]),
            b=int(self._b[i]),
            c=int(self._c[i]),
            d=int(self._d[i]),
        )

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def with_timestamps(self, new_ts: np.ndarray) -> "EventLog":
        """A copy of this log with replaced timestamps (corrections)."""
        self.freeze()
        ts = np.asarray(new_ts, dtype=np.float64)
        if ts.shape != self._ts.shape:
            raise TraceError(
                f"replacement timestamps shape {ts.shape} != {self._ts.shape}"
            )
        return EventLog.from_arrays(ts, self._et, self._a, self._b, self._c, self._d)

    def select(self, etype: EventType) -> np.ndarray:
        """Indices of all events of the given type, in log order."""
        self.freeze()
        return np.nonzero(self._et == int(etype))[0]

    def is_sorted(self) -> bool:
        """Are timestamps non-decreasing (local clock order)?"""
        ts = self.timestamps
        return bool(np.all(np.diff(ts) >= 0)) if len(ts) > 1 else True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventLog(<{len(self)} events>, frozen={self._frozen})"
