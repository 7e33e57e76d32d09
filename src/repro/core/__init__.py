"""High-level public API.

:class:`~repro.core.api.TracingSession` is the one-stop façade a
downstream user starts with: pick a platform, a timer and a placement,
trace a workload, then correct and verify the trace with
:func:`~repro.core.correct.correct_trace` — the full Scalasca-style
chain the paper evaluates (offset measurement -> linear offset
interpolation -> controlled logical clock -> violation check).
"""

from repro.core.api import TracingSession

__all__ = ["TracingSession"]
