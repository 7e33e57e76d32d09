"""ASCII rendering for experiment results.

Benches and examples print the same rows/series the paper's tables and
figures report; these helpers keep the formatting consistent between
them and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["ascii_table", "ci_cell", "format_series", "sparkline"]


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Render a fixed-width table with a header rule.

    Cells are stringified as-is; numbers should be pre-formatted by the
    caller (each table knows its own units).
    """
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ci_cell(summary) -> str:
    """Compact ``mean ± halfwidth`` cell (microseconds, two decimals) for
    :func:`ascii_table` rows."""
    return f"{summary.mean * 1e6:.2f} ± {summary.ci_halfwidth * 1e6:.2f}"


def sparkline(values: np.ndarray, width: int = 60) -> str:
    """A one-line unicode sketch of a series (for figure-shaped output)."""
    blocks = " .:-=+*#%@"
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return ""
    if v.size > width:
        edges = np.linspace(0, v.size, width + 1).astype(int)
        v = np.array([v[a:b].mean() if b > a else v[min(a, v.size - 1)] for a, b in zip(edges, edges[1:])])
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-30:
        return blocks[0] * v.size
    scaled = ((v - lo) / (hi - lo) * (len(blocks) - 1)).astype(int)
    return "".join(blocks[s] for s in scaled)


def format_series(label: str, times: np.ndarray, values: np.ndarray) -> str:
    """Summarize a deviation series in microseconds: extremes, final
    value, sparkline."""
    v = np.asarray(values, dtype=np.float64) * 1e6
    return (
        f"{label}: min {v.min():+.2f} us, max {v.max():+.2f} us, "
        f"final {v[-1]:+.2f} us\n    [{sparkline(v)}]"
    )
