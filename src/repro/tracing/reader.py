"""Trace deserialization (counterpart of :mod:`repro.tracing.writer`)."""

from __future__ import annotations

import json
from collections import defaultdict
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import TraceFormatError
from repro.tracing.events import EventLog, EventType
from repro.tracing.trace import Trace
from repro.tracing.writer import FORMAT_VERSION

__all__ = ["read_trace", "trace_from_jsonl"]


def read_trace(path: Union[str, Path]) -> Trace:
    """Load a trace written by :func:`repro.tracing.writer.write_trace`."""
    path = Path(path)
    if not path.exists():
        raise TraceFormatError(f"trace file {path} does not exist")
    if path.suffix == ".npz":
        return _read_npz(path)
    if path.suffix == ".jsonl":
        return _read_jsonl(path)
    if path.is_dir() and (path / "manifest.jsonl").exists():
        raise TraceFormatError(
            f"{path} is a sharded trace directory; open it with "
            "repro.tracing.store.ShardedTraceReader"
        )
    raise TraceFormatError(f"unknown trace extension {path.suffix!r} (use .npz or .jsonl)")


def _read_npz(path: Path) -> Trace:
    with np.load(path) as archive:
        if "__header__" not in archive:
            raise TraceFormatError(f"{path} is not a repro trace (missing header)")
        header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        _check_version(header, path)
        logs = {}
        for rank in header["ranks"]:
            try:
                logs[int(rank)] = EventLog.from_arrays(
                    archive[f"r{rank}_ts"],
                    archive[f"r{rank}_et"],
                    archive[f"r{rank}_a"],
                    archive[f"r{rank}_b"],
                    archive[f"r{rank}_c"],
                    archive[f"r{rank}_d"],
                )
            except KeyError as exc:
                raise TraceFormatError(f"{path}: missing column for rank {rank}") from exc
    return Trace(logs, meta=header.get("meta", {}))


def trace_from_jsonl(text: str, label: str = "<jsonl>") -> Trace:
    """Parse ``.jsonl`` trace *text* (the inverse of ``trace_to_jsonl``).

    ``label`` names the source in error messages (a path for files, a
    request id for service payloads).
    """
    return _parse_jsonl_lines(text.splitlines(), Path(label))


def _read_jsonl(path: Path) -> Trace:
    with path.open("r", encoding="utf-8") as fh:
        return _parse_jsonl_lines(fh, path)


_SCAN = json.JSONDecoder().scan_once
_EVENT = itemgetter("rank", "ts", "type", "a", "b", "c", "d")
_CODES = {etype.name: int(etype) for etype in EventType}


def _numeric(values, kinds: set, dtype) -> np.ndarray:
    # numpy alone would take true, 1.5 and "7" for an integer.
    if not kinds.issuperset(map(type, values)):
        raise TypeError
    return np.array(values, dtype=dtype)  # OverflowError beyond the dtype


#: Per field of ``_EVENT``: what to say of a bad value, and the conversion
#: of a whole column of values that raises if there is one.
_INT64 = partial(_numeric, kinds={int}, dtype=np.int64)
_COLUMNS = (
    ("'rank' must be a JSON integer within int64, got", _INT64),
    ("'ts' must be a JSON number, got", partial(_numeric, kinds={int, float}, dtype=np.float64)),
    ("unknown event type", lambda names: np.array([_CODES[n] for n in names], dtype=np.int8)),
    *((f"{name!r} must be a JSON integer within int64, got", _INT64) for name in "abcd"),
)


def _parse_jsonl_lines(lines, path: Path) -> Trace:
    groups = defaultdict(lambda: ([], []))  # rank -> (its _EVENT rows, their line numbers)
    header = None
    for lineno, line in enumerate(map(str.strip, lines), 1):
        if not line:
            continue
        try:
            # One JSON value per line, strictly: nothing may follow it.
            obj, end = _SCAN(line, 0)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except (StopIteration, json.JSONDecodeError) as exc:
            raise TraceFormatError(f"{path}:{lineno}: invalid JSON") from exc
        kind = obj.get("kind") if type(obj) is dict else None
        if kind == "event":
            try:
                row = _EVENT(obj)
            except KeyError as exc:
                raise TraceFormatError(f"{path}:{lineno}: event without {exc.args[0]!r}") from None
            if type(row[0]) is not int:  # before it is a dict key: [] cannot be, 1.0 == 1
                raise TraceFormatError(f"{path}:{lineno}: {_COLUMNS[0][0]} {row[0]!r}")
            rows, linenos = groups[row[0]]
            rows.append(row)
            linenos.append(lineno)
        elif kind == "header":
            header = obj
        else:
            raise TraceFormatError(f"{path}:{lineno}: unknown record kind {kind!r}")
    if header is None:
        raise TraceFormatError(f"{path}: missing header line")
    _check_version(header, path)
    ranks, meta = header.get("ranks"), header.get("meta", {})
    if type(ranks) is not list or not {int}.issuperset(map(type, ranks)) or type(meta) is not dict:
        raise TraceFormatError(f"{path}: header 'ranks' must be a list of ints, 'meta' an object")
    built = {rank: _event_log(*group, path) for rank, group in groups.items()}
    return Trace({rank: built.get(rank) or EventLog().freeze() for rank in ranks}, meta=meta)


def _event_log(rows: list, linenos: list, path: Path) -> EventLog:
    """One rank's log, each column converted and checked in one pass."""
    columns = []
    for (complaint, convert), values in zip(_COLUMNS, zip(*rows)):
        try:
            columns.append(convert(values))
        except (KeyError, TypeError, OverflowError):
            for lineno, value in zip(linenos, values):  # name the first bad record
                try:
                    convert((value,))
                except (KeyError, TypeError, OverflowError):
                    raise TraceFormatError(f"{path}:{lineno}: {complaint} {value!r}") from None
            raise
    return EventLog.from_arrays(*columns[1:])


def _check_version(header: dict, path: Path) -> None:
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: format version {version} unsupported (expected "
            f"{FORMAT_VERSION}; sharded trace directories carry their own "
            "version in manifest.jsonl and are read by "
            "repro.tracing.store.ShardedTraceReader)"
        )
