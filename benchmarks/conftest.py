"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper and
prints the same rows/series the paper reports.  Output goes through
:func:`emit`, which writes to the real stdout and appends to
``benchmarks/results/latest.txt``.  pytest's default fd-level capture
would still swallow the stdout copy for passing tests, so regenerate
with ``pytest benchmarks/ --benchmark-only -s`` when you want the
tables on the terminal/teed file; the results file gets them always.

Alongside the text, every session writes a machine-readable
``benchmarks/results/latest.json``: per-benchmark mean/stddev/rounds
from pytest-benchmark, merged with any derived metrics a bench recorded
via :func:`record_metric` (e.g. events-per-second, speedup factors).
Future changes diff that file to track the perf trajectory.

Both ``latest`` files are committed and hold every bench's rows, so only
a session that collected every ``bench_*.py`` writes them.  A partial
session (one file, ``-k``, ...) writes ``partial.txt`` / ``partial.json``
beside them instead, which git ignores.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Stem of this session's results files: ``latest`` or ``partial``.
_stem = "latest"

#: benchmark-name (or standalone metric name) -> derived metrics dict,
#: merged into latest.json at session end.
_METRICS: dict[str, dict] = {}


def emit(text: str) -> None:
    """Print to the real stdout (past pytest capture) and the results file."""
    print(text, file=sys.__stdout__)
    sys.__stdout__.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    with (RESULTS_DIR / f"{_stem}.txt").open("a", encoding="utf-8") as fh:
        fh.write(text + "\n")


def record_metric(bench_name: str, **metrics) -> None:
    """Attach derived metrics (events/s, speedups, ...) to ``latest.json``.

    ``bench_name`` should match the benchmark's test name to merge with
    its timing entry; unknown names become standalone entries.
    """
    _METRICS.setdefault(bench_name, {}).update(metrics)


def _stat(stats, field):
    value = getattr(stats, field, None)
    return float(value) if value is not None else None


def _results_stem(session) -> str:
    """``latest`` if ``session`` collected every bench file, else ``partial``."""
    collected = {item.path.name for item in session.items}
    every = {path.name for path in Path(__file__).parent.glob("bench_*.py")}
    return "latest" if every <= collected else "partial"


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file(request):
    global _stem
    _stem = _results_stem(request.session)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{_stem}.txt").write_text("", encoding="utf-8")
    _METRICS.clear()
    yield


def pytest_sessionfinish(session, exitstatus):
    """Write benchmarks/results/<stem>.json (per-bench mean/stddev + extras)."""
    entries: dict[str, dict] = {}
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is not None:
        for bench in getattr(bench_session, "benchmarks", []):
            stats = getattr(bench, "stats", None)
            if stats is None or not stats.data:  # bench errored or was skipped
                continue
            entries[bench.name] = {
                "group": getattr(bench, "group", None),
                "mean_s": _stat(stats, "mean"),
                "stddev_s": _stat(stats, "stddev"),
                "min_s": _stat(stats, "min"),
                "max_s": _stat(stats, "max"),
                "rounds": getattr(stats, "rounds", None),
            }
    for name, metrics in _METRICS.items():
        entries.setdefault(name, {}).update(metrics)
    if not entries:
        return
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "exit_status": int(exitstatus),
        "benchmarks": entries,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{_stem}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
