"""Event-trace model, buffers, I/O, and instrumentation.

Mirrors the structure of real tracing back-ends (EPILOG/OTF as used by
Scalasca/VAMPIR): each process appends fixed-layout event records —
timestamped with its *local* clock — to a memory buffer that is
eventually flushed; postmortem, per-rank logs are combined into a
:class:`~repro.tracing.trace.Trace` on which synchronization and
analysis operate.
"""

from repro.tracing.events import (
    CollectiveOp,
    Event,
    EventLog,
    EventType,
    COLLECTIVE_FLAVORS,
    CollectiveFlavor,
)
from repro.tracing.trace import MessageRecord, CollectiveRecord, Trace
from repro.tracing.buffer import TraceBuffer
from repro.tracing.writer import write_trace
from repro.tracing.reader import read_trace
from repro.tracing.store import (
    ChunkedTrace,
    ShardedTraceReader,
    ShardedTraceWriter,
    SpillingTraceBuffer,
    is_sharded_trace_dir,
    write_sharded_trace,
)

__all__ = [
    "EventType",
    "CollectiveOp",
    "CollectiveFlavor",
    "COLLECTIVE_FLAVORS",
    "Event",
    "EventLog",
    "Trace",
    "MessageRecord",
    "CollectiveRecord",
    "TraceBuffer",
    "write_trace",
    "read_trace",
    "ChunkedTrace",
    "ShardedTraceReader",
    "ShardedTraceWriter",
    "SpillingTraceBuffer",
    "is_sharded_trace_dir",
    "write_sharded_trace",
]
