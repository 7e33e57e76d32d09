"""Table II — Xeon cluster message and collective latencies.

Paper values (mean / std. dev., microseconds):

    Inter node message latency      4.29   9.80E-04
    Inter chip message latency      0.86   4.77E-05
    Inter core message latency      0.47   6.94E-06
    Inter node collective latency  12.86   1.68E-02

The simulated means include send/receive software overheads and clock
read costs on top of the Table II wire floors, exactly like a measured
number would; expect the same ordering and magnitudes, with the
collective landing at 2-3x the inter-node message latency.
"""

from conftest import emit

from repro.analysis.experiments import table2_latencies
from repro.analysis.reports import ascii_table, ci_cell
from repro.options import RunOptions

PAPER = {
    "Inter node message latency": (4.29, 9.80e-4),
    "Inter chip message latency": (0.86, 4.77e-5),
    "Inter core message latency": (0.47, 6.94e-6),
    "Inter node collective latency": (12.86, 1.68e-2),
}


def test_table2_latencies(benchmark):
    result = benchmark.pedantic(
        table2_latencies, kwargs=dict(options=RunOptions(seed=0), repeats=1000, coll_repeats=200),
        rounds=1, iterations=1,
    )
    rows = []
    for stats in result.rows:
        paper_mean, paper_std = PAPER[stats.label]
        rows.append(
            (
                stats.label,
                ci_cell(stats.summary),
                f"{stats.summary.std_of_mean * 1e6:.2e}",
                f"{paper_mean:.2f}",
                f"{paper_std:.2e}",
                f"n={stats.summary.n}",
            )
        )
    emit("")
    emit(
        ascii_table(
            ["measurement", "mean ± 95% CI [us]", "std [us]", "paper mean",
             "paper std", "samples"],
            rows,
            title="Table II — Xeon cluster: measured message and collective latencies",
        )
    )

    by = result.by_label()
    node = by["Inter node message latency"].summary.mean
    chip = by["Inter chip message latency"].summary.mean
    core = by["Inter core message latency"].summary.mean
    coll = by["Inter node collective latency"].summary.mean
    # Shape: strict ordering and collective >> message, as in the paper.
    assert node > chip > core
    assert coll > 2 * node
    # Magnitudes: within ~30 % of Table II.
    assert abs(node * 1e6 - 4.29) / 4.29 < 0.3
    assert abs(coll * 1e6 - 12.86) / 12.86 < 0.4
