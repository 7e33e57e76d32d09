"""Fig. 8 — OpenMP parallel regions with POMP violations vs. thread count.

Itanium SMP node (4 chips x 4 cores), parallel-for loop benchmark, POMP
events timestamped with the per-chip counter, **no** offset alignment or
interpolation; averaged over several runs like the paper's three
measurements.

Paper shape: at 4 threads 83 % of regions are affected (exit violations
most frequent); the fraction "drops sharply as the number of threads is
increased, with 12 threads causing only very few violations and 16
threads none at all."
"""

from conftest import emit

from repro.analysis.experiments import fig8_openmp_violations
from repro.analysis.reports import ascii_table
from repro.options import RunOptions

PAPER_ANY = {4: 83.0, 8: None, 12: "very few", 16: 0.0}


def test_fig8_openmp_violations(benchmark):
    result = benchmark.pedantic(
        fig8_openmp_violations,
        kwargs=dict(threads=(4, 8, 12, 16), options=RunOptions(seed=2), runs=5, regions=200),
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            n,
            f"{any_:.1f}",
            f"{entry:.1f}",
            f"{exit_:.1f}",
            f"{barrier:.1f}",
            "83" if n == 4 else ("~0" if n >= 12 else "-"),
        )
        for n, any_, entry, exit_, barrier in result.rows()
    ]
    emit("")
    emit(
        ascii_table(
            ["threads", "any %", "entry %", "exit %", "barrier %", "paper any %"],
            rows,
            title=(
                "Fig. 8 — parallel regions with clock-condition violations "
                "(mean of 5 runs, no correction)"
            ),
        )
    )

    # Shape assertions straight from the paper's text.
    any4 = result.mean_pct(4, "any")
    assert any4 > 60.0  # "more than three quarters (83 %)"
    assert result.mean_pct(4, "exit") >= result.mean_pct(4, "entry")  # exits dominate
    assert result.mean_pct(12, "any") < 15.0  # "only very few"
    assert result.mean_pct(16, "any") < 5.0  # "none at all" (sampling noise allowed)
    # Monotone-ish falloff 4 -> 16.
    assert any4 > result.mean_pct(8, "any") > result.mean_pct(16, "any")
