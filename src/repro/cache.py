"""Content-addressed on-disk cache for experiment results.

Regenerating a paper figure means re-running dozens of simulations whose
outcome is a pure function of their configuration (every experiment in
:mod:`repro.analysis.experiments` is deterministic given its keyword
arguments).  The cache exploits that: a result is stored under a SHA-256
digest of

* the **function's qualified name** (``module.qualname``),
* a **canonical encoding of its configuration** (the keyword arguments),
* the **package version** (:data:`repro.__version__`),

so re-running an unchanged figure is a single pickle load, while any
change to the configuration, the function identity, or the package
version silently misses and recomputes.  Nothing is ever returned from a
stale key — invalidation is structural, not time-based.

Storage layout: one ``<digest>.pkl`` file per entry under the cache
root.  The root defaults to ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.  Writes are atomic
(temp file + rename), so concurrent processes — e.g. the workers of
:func:`repro.analysis.runner.run_grid` — can share one cache directory
without locking: the worst case is the same entry being computed twice.

Unpicklable or corrupt entries degrade to misses; the cache never makes
a computation fail that would have succeeded without it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.atomic import atomic_write
from repro.errors import ConfigurationError
from repro.telemetry import ensure_telemetry

__all__ = [
    "ResultCache",
    "PATH_ONLY_KEYS",
    "canonical_config",
    "config_digest",
    "default_cache_dir",
]

_MISS = object()

#: Keyword arguments that select an execution *path*, not a result.
#: The two simulation engines are bit-identical by contract (enforced
#: by the ``batch_matches_engine`` oracle), so ``engine`` must not
#: enter cache keys: a grid re-run under the other engine has to hit
#: every entry the first run stored.
PATH_ONLY_KEYS = frozenset({"engine"})


def default_cache_dir() -> Path:
    """Resolve the on-disk cache root (see module docstring for rules)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def canonical_config(obj: Any) -> str:
    """Encode a configuration value as a canonical, hashable string.

    Deterministic across processes and platforms (unlike ``repr`` of
    sets or salted ``hash``).  Supports the JSON-ish types experiment
    kwargs are made of — None, bools, ints, floats, strings, bytes,
    sequences, mappings — plus numpy scalars/arrays and dataclasses.
    Anything else raises :class:`ConfigurationError` rather than risking
    an unstable key.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return f"{type(obj).__name__}:{obj!r}"
    if isinstance(obj, float):
        # hex round-trips every bit; repr of floats is stable too, but
        # hex makes bit-for-bit identity explicit.
        return f"float:{obj.hex()}"
    if isinstance(obj, bytes):
        return f"bytes:{obj.hex()}"
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return canonical_config(obj.item())
    if isinstance(obj, np.ndarray):
        return f"ndarray:{obj.dtype.str}:{obj.shape}:{obj.tobytes().hex()}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(canonical_config(v) for v in obj)
        return f"{type(obj).__name__}:[{inner}]"
    if isinstance(obj, (set, frozenset)):
        inner = ",".join(sorted(canonical_config(v) for v in obj))
        return f"set:[{inner}]"
    if isinstance(obj, dict):
        items = sorted((canonical_config(k), canonical_config(v)) for k, v in obj.items())
        inner = ",".join(f"{k}={v}" for k, v in items)
        return f"dict:{{{inner}}}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = canonical_config(dataclasses.asdict(obj))
        return f"dc:{type(obj).__module__}.{type(obj).__qualname__}:{body}"
    raise ConfigurationError(
        f"cannot build a stable cache key from {type(obj).__name__!r} value {obj!r}"
    )


def _func_name(func: Union[str, Callable[..., Any]]) -> str:
    if isinstance(func, str):
        return func
    return f"{getattr(func, '__module__', '?')}.{getattr(func, '__qualname__', repr(func))}"


def config_digest(
    func: Union[str, Callable[..., Any]],
    config: dict[str, Any],
    version: Optional[str] = None,
) -> str:
    """SHA-256 key over (function name, canonical config, package version).

    Path-selection kwargs (:data:`PATH_ONLY_KEYS`) are excluded: they
    change how a result is computed, never what it is.
    """
    if version is None:
        from repro import __version__ as version
    config = {k: v for k, v in config.items() if k not in PATH_ONLY_KEYS}
    text = "\x1e".join((_func_name(func), canonical_config(config), f"v:{version}"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed pickle store for deterministic experiment results.

    Parameters
    ----------
    root:
        Cache directory (created lazily).  Defaults to
        :func:`default_cache_dir`.
    version:
        Version string folded into every key; defaults to
        :data:`repro.__version__`, so upgrading the package invalidates
        all prior entries.

    telemetry:
        A :class:`repro.telemetry.TelemetryRecorder` (or ``None``).
        When recording, every load/store also lands as ``cache.hit`` /
        ``cache.miss`` / ``cache.store`` counters plus latency timings
        (``cache.load.hit``, ``cache.load.miss``, ``cache.store``).
        :func:`repro.analysis.runner.run_grid` attaches its recorder
        here automatically.

    Counters ``hits`` / ``misses`` / ``stores`` track usage for
    reporting (e.g. the CLI prints them after a cached regeneration).
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        version: Optional[str] = None,
        telemetry=None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if version is None:
            from repro import __version__ as version
        self.version = str(version)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.telemetry = ensure_telemetry(telemetry)

    # ------------------------------------------------------------------
    def key(self, func: Union[str, Callable[..., Any]], config: dict[str, Any]) -> str:
        """Digest identifying ``func(**config)`` under this cache's version."""
        return config_digest(func, config, version=self.version)

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.pkl"

    # ------------------------------------------------------------------
    def load(self, digest: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; corrupt entries are dropped and miss."""
        tele = self.telemetry
        start = perf_counter() if tele.enabled else 0.0
        path = self.path_for(digest)
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            self._note_load(tele, start, hit=False)
            return False, None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            # Truncated write, unreadable file, or a payload whose class
            # no longer unpickles: treat as a miss and clear the entry.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            self._note_load(tele, start, hit=False)
            return False, None
        self.hits += 1
        self._note_load(tele, start, hit=True)
        return True, value

    @staticmethod
    def _note_load(tele, start: float, *, hit: bool) -> None:
        if tele.enabled:
            outcome = "hit" if hit else "miss"
            tele.count(f"cache.{outcome}")
            tele.observe(f"cache.load.{outcome}", perf_counter() - start)

    def store(self, digest: str, value: Any) -> bool:
        """Atomically persist ``value``; returns False if unpicklable.

        An unusable cache root (a plain file, no write permission) also
        returns False — caching degrades to recomputation, it never
        takes the experiment down.
        """
        tele = self.telemetry
        start = perf_counter() if tele.enabled else 0.0
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            return False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path_for(digest), lambda fh: fh.write(payload))
        except OSError:
            return False
        self.stores += 1
        if tele.enabled:
            tele.count("cache.store")
            tele.observe("cache.store", perf_counter() - start)
        return True

    # ------------------------------------------------------------------
    def call(self, func: Callable[..., Any], /, **kwargs: Any) -> Any:
        """``func(**kwargs)`` through the cache (compute on miss, store)."""
        digest = self.key(func, kwargs)
        hit, value = self.load(digest)
        if hit:
            return value
        value = func(**kwargs)
        self.store(digest, value)
        return value

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache(root={str(self.root)!r}, version={self.version!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
