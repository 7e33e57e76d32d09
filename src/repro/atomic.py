"""Atomic file replacement: write a temp file beside the target, then ``os.replace``."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable, Union


def atomic_write(path: Union[str, Path], write: Callable[[BinaryIO], object]) -> Path:
    """Replace ``path`` with what ``write(fh)`` writes, or leave it as it was.

    ``write`` fills a new temp file beside ``path`` (``.<name>.<hex>.tmp``,
    so one directory is one file system and a crash leaves no half-written
    target); the temp file then replaces ``path``.  Anything ``write`` or
    the replace raises removes the temp file and propagates.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
