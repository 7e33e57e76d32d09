"""Ablation — error-estimation alternatives (Section V).

The paper reviews postmortem synchronization by *error estimation*
(Duda's regression and convex-hull methods, Hofmann's min/max
simplification, Jezequel's spanning-tree composition) as the classical
alternative to offset measurement.  This bench pits all three
estimators, composed over a maximum-support spanning tree, against the
Scalasca-style linear interpolation on the same badly-drifting trace
(NTP-disciplined MPI_Wtime clocks), counting the reversed messages each
one leaves.
"""

from conftest import emit

from repro.analysis.reports import ascii_table
from repro.cluster import inter_node, xeon_cluster
from repro.mpi import MpiWorld
from repro.sync.error_estimation import synchronize_by_spanning_tree
from repro.sync.interpolation import linear_interpolation
from repro.sync.violations import scan_messages
from repro.workloads import SparseConfig, sparse_worker


def test_error_estimation_ablation(benchmark):
    # The estimators import scipy and networkx on first use; load them
    # here so that one-off cost does not land inside the single timed round.
    import networkx  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.stats  # noqa: F401

    preset = xeon_cluster()
    world = MpiWorld(
        preset, inter_node(preset.machine, 6), timer="mpi_wtime", seed=5,
        duration_hint=120.0,
    )
    run = world.run(
        sparse_worker(SparseConfig(rounds=60, density=0.5, collective_every=0), seed=5)
    )
    trace = run.trace
    lmin = 1e-6

    def evaluate():
        rows = {}
        rows["raw (uncorrected)"] = scan_messages(
            trace.messages(strict=False), 0.0
        ).violated
        scalasca = linear_interpolation(run.init_offsets, run.final_offsets)
        rows["linear interpolation (Eq. 3)"] = scan_messages(
            scalasca.apply(trace).messages(refresh=True), 0.0
        ).violated
        for method, label in (
            ("regression", "Duda regression + MST"),
            ("hull", "Duda convex hull (LP) + MST"),
            ("minmax", "Hofmann min/max + MST"),
        ):
            corr = synchronize_by_spanning_tree(trace, lmin=lmin, method=method)
            rows[label] = scan_messages(
                corr.apply(trace).messages(refresh=True), 0.0
            ).violated
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    checked = len(trace.messages(strict=False))
    emit("")
    emit(
        ascii_table(
            ["correction", "reversed messages", "of"],
            [(label, count, checked) for label, count in rows.items()],
            title="Error-estimation ablation (MPI_Wtime clocks, 6 ranks, 60 rounds)",
        )
    )

    raw = rows["raw (uncorrected)"]
    assert raw > 0
    # The delay-aware estimators (hull leans on minimal delays; min/max
    # anchors at them) recover the offsets and remove the violations —
    # competitive with explicit offset measurement.
    baseline = rows["linear interpolation (Eq. 3)"]
    assert rows["Duda convex hull (LP) + MST"] <= max(baseline, raw // 10)
    assert rows["Hofmann min/max + MST"] <= max(baseline, raw // 10)
    # The plain regression, by contrast, is biased by the right-skewed
    # (queueing-dominated) delay distribution — Section V's caveat that
    # "jitter in message latency ... limit[s] the usefulness of error
    # estimation approaches", and the reason Duda proposed the convex
    # hull in the first place.  It need not improve at all:
    emit(
        "note: plain regression is delay-bias-limited "
        f"({rows['Duda regression + MST']} vs {raw} raw) — the hull/minmax "
        "variants exist precisely to fix this."
    )
