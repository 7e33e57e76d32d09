"""The in-memory trace buffer and its timing behaviour.

Section III: *"Whenever the running application generates an event, the
tracing library takes the current time and writes an event record to a
memory buffer.  After program termination or if necessary already
earlier while the program is still running, the buffer contents is
flushed to disk."*

For the study, what matters about the buffer is not the bytes but the
*intrusion*: every record costs a little CPU time, and a capacity flush
stalls the process noticeably (which perturbs the application — one of
the reasons tools avoid mid-run offset measurements).  :class:`TraceBuffer`
accounts for both and reports the cost of each append so the simulated
instrumentation can charge it as compute time.

One buffer is attached to each rank's :class:`~repro.mpi.comm.MpiContext`
(or OpenMP thread), whose traced operations consult it like PMPI
wrappers consult the tracing library: read the local clock, perform the
operation, append a record, pay the recording cost.  Setting
:attr:`TraceBuffer.active` to ``False`` turns recording off without
disturbing the simulation — the partial-tracing mode the paper uses for
POP ("we traced iterations 3500 to 5500").
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.tracing.events import EventLog, EventType

__all__ = ["TraceBuffer"]


class TraceBuffer:
    """Appendable event storage with record/flush timing.

    Parameters
    ----------
    capacity:
        Records per flush window; reaching it triggers a flush.
        ``0`` means unbounded (never flush mid-run).
    record_cost:
        CPU seconds to format and store one record.
    flush_cost:
        CPU seconds one capacity flush stalls the process.

    A new buffer records (:attr:`active` is ``True``).  Callers check
    :attr:`active` before each :meth:`append` (the context does), so
    ``append`` itself stays branch-free and cheap.
    """

    __slots__ = (
        "log", "capacity", "record_cost", "flush_cost", "_since_flush", "flushes", "active",
    )

    def __init__(
        self,
        capacity: int = 0,
        record_cost: float = 3.0e-8,
        flush_cost: float = 5.0e-3,
    ) -> None:
        if capacity < 0 or record_cost < 0 or flush_cost < 0:
            raise ConfigurationError("buffer parameters must be non-negative")
        self.log = EventLog()
        self.capacity = capacity
        self.record_cost = record_cost
        self.flush_cost = flush_cost
        self._since_flush = 0
        self.flushes = 0
        self.active = True

    def append(
        self, timestamp: float, etype: EventType, a: int = 0, b: int = 0, c: int = 0, d: int = 0
    ) -> float:
        """Record one event; return the CPU time the append cost."""
        self.log.append(timestamp, etype, a, b, c, d)
        cost = self.record_cost
        self._since_flush += 1
        if self.capacity and self._since_flush >= self.capacity:
            self._since_flush = 0
            self.flushes += 1
            cost += self.flush_cost
        return cost

    def append_batch(self, timestamps, etypes, a, b, c, d) -> float:
        """Record N events at once; return the total CPU time charged.

        Costs match N scalar :meth:`append` calls exactly: every record
        charges ``record_cost`` and every capacity boundary crossed
        mid-batch charges one ``flush_cost`` (and increments
        :attr:`flushes`), starting from the current fill level.
        """
        n = len(timestamps)
        self.log.extend(timestamps, etypes, a, b, c, d)
        cost = n * self.record_cost
        if self.capacity:
            flushed = (self._since_flush + n) // self.capacity
            self._since_flush = (self._since_flush + n) % self.capacity
            self.flushes += flushed
            cost += flushed * self.flush_cost
        else:
            self._since_flush += n
        return cost

    def __len__(self) -> int:
        return len(self.log)
