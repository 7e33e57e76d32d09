"""Trace serialization.

Two formats, both self-describing and round-trip safe:

* ``.npz`` (default) — one compressed numpy archive holding the six
  columns of every rank plus JSON-encoded metadata; compact and fast,
  the moral equivalent of a binary OTF trace;
* ``.jsonl`` — one JSON object per line (header, then events); slow but
  greppable, for debugging and interchange.

The format is chosen by file extension in :func:`write_trace` /
:func:`repro.tracing.reader.read_trace`.  A file is written whole or
not at all: :func:`write_trace` encodes into a temporary file beside the
target and renames it into place.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.atomic import atomic_write
from repro.errors import TraceFormatError
from repro.tracing.events import EventType
from repro.tracing.trace import Trace

__all__ = ["write_trace", "trace_to_jsonl", "FORMAT_VERSION"]

#: Bumped on any incompatible layout change; checked by the reader.
FORMAT_VERSION = 1


def write_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Serialize ``trace`` to ``path`` (.npz or .jsonl by extension); an
    encoding failure leaves an existing file as it was, and no temp file."""
    path = Path(path)
    if path.suffix == ".npz":
        encode = _write_npz
    elif path.suffix == ".jsonl":
        encode = _write_jsonl
    else:
        raise TraceFormatError(
            f"unknown trace extension {path.suffix!r} (use .npz or .jsonl; "
            "for an out-of-core shard directory use "
            "repro.tracing.store.write_sharded_trace)"
        )
    return atomic_write(path, lambda fh: encode(trace, fh))


def _write_npz(trace: Trace, fh) -> None:
    payload: dict[str, np.ndarray] = {}
    header = {
        "version": FORMAT_VERSION,
        "ranks": trace.ranks,
        "meta": _jsonable_meta(trace.meta),
    }
    payload["__header__"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    for rank in trace.ranks:
        log = trace.logs[rank]
        payload[f"r{rank}_ts"] = log.timestamps
        payload[f"r{rank}_et"] = log.etypes
        payload[f"r{rank}_a"] = log.a
        payload[f"r{rank}_b"] = log.b
        payload[f"r{rank}_c"] = log.c
        payload[f"r{rank}_d"] = log.d
    np.savez_compressed(fh, **payload)


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize ``trace`` to the ``.jsonl`` format as one string.

    The encoding is canonical: the same trace always yields the same
    bytes (floats round-trip exactly through ``repr``), which is what
    lets the correction service hand a corrected trace over HTTP
    byte-identical to the CLI writing the same trace to disk.
    """
    lines = [
        json.dumps(
            {
                "kind": "header",
                "version": FORMAT_VERSION,
                "ranks": trace.ranks,
                "meta": _jsonable_meta(trace.meta),
            }
        )
    ]
    for rank in trace.ranks:
        log = trace.logs[rank]
        # json.dumps' own encoders, a column at a time: float.__repr__ (finite), int.__str__.
        stamps = log.timestamps.tolist()
        texts = list(map(float.__repr__, stamps))
        for i in np.flatnonzero(~np.isfinite(log.timestamps)).tolist():
            texts[i] = json.dumps(stamps[i])
        names = {code: EventType(code).name for code in np.unique(log.etypes).tolist()}
        head = f'{{"kind": "event", "rank": {json.dumps(rank)}, "ts": '
        lines.extend(
            f'{head}{ts}, "type": "{names[et]}", "a": {a}, "b": {b}, "c": {c}, "d": {d}}}'
            for ts, et, a, b, c, d in zip(
                texts, *(col.tolist() for col in (log.etypes, log.a, log.b, log.c, log.d))
            )
        )
    return "\n".join(lines) + "\n"


def _write_jsonl(trace: Trace, fh) -> None:
    fh.write(trace_to_jsonl(trace).encode("utf-8"))


def _jsonable_meta(meta: dict) -> dict:
    """Best-effort conversion of metadata values to JSON-encodable form."""
    out = {}
    for key, value in meta.items():
        try:
            json.dumps(value)
            out[key] = value
        except TypeError:
            if isinstance(value, np.ndarray):
                out[key] = value.tolist()
            elif isinstance(value, (list, tuple)):
                out[key] = [getattr(v, "__dict__", str(v)) if not _is_plain(v) else v for v in value]
            else:
                out[key] = str(value)
    return out


def _is_plain(v) -> bool:
    return isinstance(v, (str, int, float, bool, type(None)))
