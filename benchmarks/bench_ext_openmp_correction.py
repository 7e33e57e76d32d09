"""Extension — answering the paper's OpenMP open questions.

The conclusion leaves two questions open:

1. *"Whether offset alignment or interpolation can alleviate the
   errors remains to be evaluated"* (for the Fig. 8 benchmark);
2. the CLC's *"non-observance of shared-memory clock conditions
   related to OpenMP constructs"*.

This bench evaluates both within the model via
:func:`repro.analysis.experiments.ext_openmp_correction`: per-thread
offset measurement through shared memory followed by alignment / linear
interpolation, and the CLC (fork, join and barrier of every region as
collective instances) that needs no measurements at all.  Violation
percentages per thread count, mean of 3 runs.
"""

from conftest import emit

from repro.analysis.experiments import ext_openmp_correction
from repro.analysis.reports import ascii_table


def test_openmp_correction(benchmark):
    result = benchmark.pedantic(
        ext_openmp_correction,
        kwargs=dict(threads=(4, 8, 12, 16), seed=2, runs=3, regions=120),
        rounds=1,
        iterations=1,
    )
    emit("")
    emit(
        ascii_table(
            ["threads", "raw any %", "after align %", "after linear %", "POMP-CLC %"],
            [
                (n, f"{r:.1f}", f"{a:.1f}", f"{l:.1f}", f"{c:.1f}")
                for n, r, a, l, c in result.rows()
            ],
            title=(
                "OpenMP POMP violations vs correction scheme "
                "(Itanium node, mean of 3 runs) — the paper's open question"
            ),
        )
    )
    emit(
        "answer (in this model): per-chip offsets dominate inter-chip drift\n"
        "on a benchmark-scale run, so alignment alone removes (nearly) all\n"
        "violations; the POMP-extended CLC removes all of them without any\n"
        "measurements, addressing the CLC limitation the conclusion lists."
    )

    assert result.raw[4] > 50.0
    assert result.aligned[4] < 10.0
    assert result.linear[4] < 10.0
    for n in (4, 8, 12, 16):
        assert result.clc[n] == 0.0  # CLC always complete
