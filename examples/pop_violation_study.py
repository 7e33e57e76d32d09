#!/usr/bin/env python
"""Fig. 7-style study: clock-condition violations in a POP trace.

Emulates the paper's realistic scenario end to end:

* 32 processes on the simulated Xeon cluster, placement left to the
  scheduler (packed nodes);
* a scaled-down Parallel Ocean Program surrogate (2-D halo exchange +
  barotropic allreduces) spanning ~25 emulated minutes, with only the
  middle iterations traced;
* Scalasca-style linear offset interpolation from offset measurements
  taken during MPI_Init and MPI_Finalize;
* a scan for reversed messages (real and logical), then the CLC to
  repair what interpolation could not.

Run:  python examples/pop_violation_study.py  [scale]
      (scale 1.0 = the paper's full 9000 iterations; default 0.1)
"""

import sys

from repro.analysis.experiments import _grid_for
from repro.cluster import scheduler_default, xeon_cluster
from repro.cluster.jitter import OsJitterModel
from repro.core.correct import correct_trace
from repro.mpi import MpiWorld
from repro.rng import RngFabric
from repro.sync.violations import lmin_matrix_from_trace
from repro.workloads import PopConfig, pop_worker


def main(scale: float = 0.1, nprocs: int = 32, seed: int = 3) -> None:
    preset = xeon_cluster()
    pinning = scheduler_default(
        preset.machine, nprocs, RngFabric(seed).generator("placement")
    )
    steps = max(int(9000 * scale), 20)
    config = PopConfig(
        steps=steps,
        step_time=0.165 * 9000 / steps,  # keep the ~25 min of drift exposure
        trace_window=(int(steps * 3500 / 9000), int(steps * 5500 / 9000)),
        grid=_grid_for(nprocs),
    )
    print(
        f"POP surrogate: {nprocs} ranks on grid {config.grid}, "
        f"{config.steps} steps of {config.step_time:.3f} s, "
        f"tracing steps {config.trace_window}"
    )

    world = MpiWorld(
        preset,
        pinning,
        timer="tsc",
        seed=seed,
        duration_hint=config.steps * config.step_time * 1.2 + 60.0,
        jitter=OsJitterModel(rate=10.0, mean_delay=5e-6),
    )
    run = world.run(pop_worker(config, seed=seed), tracing_initially=False)
    trace = run.trace
    print(
        f"trace: {trace.total_events()} events, "
        f"{100 * trace.message_event_fraction():.1f} % message events, "
        f"{run.duration / 60:.1f} simulated minutes\n"
    )

    lmin = lmin_matrix_from_trace(trace, preset.latency)
    report = correct_trace(run, interpolation="linear", clc=True, lmin=0.0)
    print("reversed-message scan by stage (l_min = 0, Fig. 7's metric):")
    print(report.summary())

    linear = report.stage("linear")
    print(
        f"\nafter interpolation alone: {linear.total_violated} of "
        f"{linear.total_checked} messages "
        f"({100 * linear.rate:.2f} %) arrive before they were sent — "
        "the paper's central observation."
    )
    if report.clc is not None:
        print(
            f"CLC repaired them with max shift "
            f"{report.clc.max_shift * 1e6:.2f} us and local-interval "
            f"distortion {100 * report.clc.interval_distortion:.3f} %."
        )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.1)
