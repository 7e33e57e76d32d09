"""Extension — wait-state analysis accuracy under each correction.

The paper's motivation made quantitative via
:func:`repro.analysis.experiments.ext_waitstate_accuracy`: Scalasca-style
Late Sender analysis runs on the same imbalanced workload on ground
truth (a perfect global clock) and on MPI_Wtime timestamps raw, after
linear interpolation, and after the CLC.  The table reports the total
waiting time each variant *believes* it saw, its error against truth,
and the number of messages it misclassifies between Late Sender and
Late Receiver ("false conclusions during trace analysis ... when the
impact of certain behaviors is quantified").
"""

from conftest import emit

from repro.analysis.experiments import ext_waitstate_accuracy
from repro.analysis.reports import ascii_table
from repro.options import RunOptions


def test_waitstate_accuracy(benchmark):
    result = benchmark.pedantic(
        ext_waitstate_accuracy, kwargs=dict(options=RunOptions(seed=11)), rounds=1, iterations=1
    )

    rows = [("ground truth (global clock)", f"{result.truth_total * 1e3:.3f}", "-", "-")]
    labels = {
        "raw": "raw MPI_Wtime timestamps",
        "linear": "after linear interpolation",
        "clc": "after interpolation + CLC",
    }
    for scheme, label in labels.items():
        rows.append(
            (
                label,
                f"{result.totals[scheme] * 1e3:.3f}",
                f"{result.error_pct(scheme):.2f}",
                result.sign_flips[scheme],
            )
        )
    emit("")
    emit(
        ascii_table(
            ["timestamps", "total Late Sender wait [ms]", "error vs truth [%]",
             "misclassified messages"],
            rows,
            title="Wait-state analysis accuracy (6 ranks, imbalanced ring)",
        )
    )

    assert result.truth_total > 0
    assert result.error_pct("linear") <= result.error_pct("raw")
    assert result.error_pct("clc") < 25.0
    assert result.sign_flips["linear"] <= result.sign_flips["raw"]
    assert result.sign_flips["clc"] <= result.sign_flips["raw"]
