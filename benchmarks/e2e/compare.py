"""Compare two sets of benchmark runs under the benchmark's own bounds.

    python benchmarks/e2e/compare.py a.json b.json

Each file is what ``run.py --out FILE`` wrote: one or more runs per
workload (running again with the same ``--out`` appends).  ``a`` is the
baseline, ``b`` the candidate.  Per workload, one row; per end-to-end
metric, one verdict and the change of the median from ``a`` to ``b``:

``ok``          ``b``'s median is no worse than ``a``'s by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the spread between ``a``'s own runs (first to third quartile
                over their median) exceeds the bound, so the two medians
                cannot be told apart — unless every run of ``b`` reads
                better than every run of ``a``, which is ``ok``
``-``           the metric does not apply to the workload (``null``)

Exit status is 1 if anything regressed, 0 otherwise.  This applies the
A/A criterion of the benchmark (two sets of runs of one commit must be
``ok`` everywhere); it does not replace ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import statistics
import sys

from metrics import END_TO_END, WORKLOADS


def load(path: str) -> dict:
    """``{workload: {metric: [values of the timed runs]}}`` of one report file."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    table: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            if m["value"] is not None:
                table.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    return table


def spread(values: list) -> float:
    """Distance between first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(metric, a: list, b: list) -> str:
    if not a or not b:
        return "-"
    sign = 1.0 if metric.better == "lower" else -1.0
    base, cand = statistics.median(a), statistics.median(b)
    # A bound of 0 is absolute (failure_rate: any increase regresses).
    allowed = metric.bound * abs(base)
    worse_by = sign * (cand - base)
    change = f" {100 * (cand - base) / base:+.1f}%" if base else ""
    if metric.bound > 0 and spread(a) > metric.bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("ok" if all_better else "unresolved") + change
    return ("regressed" if worse_by > allowed else "ok") + change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1].strip())
    a, b = load(argv[0]), load(argv[1])
    print(f"{'workload':18s} " + " ".join(f"{m.name:>16s}" for m in END_TO_END))
    regressed = False
    for name in WORKLOADS:
        cells = []
        for metric in END_TO_END:
            word = verdict(metric, a.get(name, {}).get(metric.name, []),
                           b.get(name, {}).get(metric.name, []))
            regressed = regressed or word.startswith("regressed")
            cells.append(f"{word:>16s}")
        print(f"{name:18s} " + " ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
