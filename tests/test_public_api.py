"""The public API surface: exports, run and correction knobs, RunOptions,
and start-up imports.

The export and knob snapshots below are deliberate friction: adding or
removing a top-level name, or a parameter of a run or correction entry
point, is an API decision and must update these lists in the same change.
"""

from __future__ import annotations

import importlib
import inspect
import subprocess
import sys
import warnings

import pytest

import repro
from repro import RunOptions, RunResult, TelemetryRecorder, TracingSession
from repro.cluster import inter_node, xeon_cluster
from repro.errors import ConfigurationError
from repro.mpi import MpiWorld

#: The one and only list of top-level exports.  Update deliberately.
EXPECTED_EXPORTS = [
    "CorrectionResult",
    "ReproError",
    "RunOptions",
    "RunResult",
    "SampleSummary",
    "ServiceClient",
    "StoppingRule",
    "TelemetryRecorder",
    "TracingSession",
    "__version__",
    "correct_trace",
]

#: Every parameter (``self`` aside) of the run and correction entry
#: points, in signature order.  Update deliberately: a knob no caller
#: sets is code to delete.  Run entry points take ``options=`` and
#: correction entry points ``telemetry=``, never both.
EXPECTED_KNOBS = {
    "repro.mpi.runtime.MpiWorld.run": [
        "worker", "tracing", "measure_offsets", "sync_repeats",
        "tracing_initially", "until", "options",
    ],
    "repro.core.api.TracingSession": [
        "platform", "nprocs", "placement", "timer", "duration_hint", "jitter",
        "options",
    ],
    "repro.analysis.runner.run_grid": ["func", "grid", "options"],
    "repro.analysis.experiments.table2_latencies": [
        "repeats", "coll_repeats", "runs", "level", "options",
    ],
    "repro.analysis.experiments.fig4_all_panels": [
        "panels", "nprocs", "probe_interval", "runs", "level", "options",
    ],
    "repro.analysis.experiments.fig7_app_violations": [
        "app", "runs", "nprocs", "scale", "timer", "options",
    ],
    "repro.analysis.experiments.fig8_openmp_violations": [
        "threads", "runs", "regions", "options",
    ],
    "repro.analysis.experiments.ext_waitstate_accuracy": [
        "nprocs", "steps", "timer", "options",
    ],
    "repro.analysis.latency.measure_latency": [
        "preset", "pinning", "repeats", "nbytes", "seed", "timer", "label",
        "engine", "runs", "level", "bootstrap", "stopping",
    ],
    "repro.analysis.latency.measure_collective_latency": [
        "preset", "pinning", "repeats", "nbytes", "seed", "timer", "label",
        "engine", "runs", "level", "bootstrap", "stopping",
    ],
    "repro.core.correct.correct_trace": [
        "source", "interpolation", "clc", "gamma", "lmin", "amortization_window",
        "scan", "output", "telemetry",
    ],
    "repro.sync.error_estimation.synchronize_by_spanning_tree": [
        "trace", "lmin", "master", "method",
    ],
    "repro.sync.exchange.exchange_correction": ["trace", "master"],
    "repro.sync.exchange.offsets_from_exchanges": ["trace", "master"],
    "repro.sync.replay.replay_correct": [
        "trace", "lmin", "gamma", "amortization_window", "telemetry",
    ],
    "repro.sync.streaming.streaming_clc_correct": [
        "source", "out_dir", "gamma", "amortization_window", "lmin", "telemetry",
    ],
}


def _worker(ctx):
    yield from ctx.compute(1e-4)
    return ctx.rank


def _world(seed: int = 0) -> MpiWorld:
    preset = xeon_cluster()
    return MpiWorld(
        preset, inter_node(preset.machine, 2), timer="tsc", seed=seed,
        duration_hint=10.0,
    )


class TestExports:
    def test_all_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_EXPORTS

    def test_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_canonical_identities(self):
        from repro.core.correct import correct_trace as inner_correct
        from repro.mpi.runtime import RunResult as inner_result
        from repro.options import RunOptions as inner_options
        from repro.service.client import ServiceClient as inner_client
        from repro.telemetry import TelemetryRecorder as inner_recorder

        assert RunOptions is inner_options
        assert RunResult is inner_result
        assert TelemetryRecorder is inner_recorder
        assert repro.correct_trace is inner_correct
        assert repro.ServiceClient is inner_client


def _knobs(path: str) -> list[str]:
    """Parameter names of the function, method or class at ``path``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return [p for p in inspect.signature(target).parameters if p != "self"]
    raise LookupError(path)


@pytest.mark.parametrize("path", sorted(EXPECTED_KNOBS))
def test_knob_snapshot(path):
    assert _knobs(path) == EXPECTED_KNOBS[path]


def test_no_entry_point_takes_options_and_telemetry():
    both = [path for path in EXPECTED_KNOBS
            if {"options", "telemetry"} <= set(_knobs(path))]
    assert both == []


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.engine == "reference"
        assert opts.jobs is None and opts.cache is None
        assert opts.seed is None and opts.telemetry is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunOptions().engine = "batch"

    def test_replace(self):
        opts = RunOptions(seed=3).replace(engine="batch")
        assert (opts.engine, opts.seed) == ("batch", 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunOptions(engine="warp")
        with pytest.raises(ConfigurationError):
            RunOptions(jobs=-1)
        with pytest.raises(ConfigurationError):
            RunOptions(seed="zero")

    def test_resolved_seed(self):
        assert RunOptions().resolved_seed(9) == 9
        assert RunOptions(seed=4).resolved_seed(9) == 4

    def test_options_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run = _world().run(_worker, options=RunOptions(engine="reference"))
        assert isinstance(run, RunResult)

    def test_session_options_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = TracingSession(
                nprocs=2, duration_hint=10.0, options=RunOptions(seed=5)
            )
            run = session.trace(_worker)
        assert session.seed == 5
        assert run.results == {0: 0, 1: 1}


class TestStartup:
    def test_cli_import_loads_no_optional_dependency(self):
        """scipy/networkx serve three optional modes; importing them at
        start-up costs every ``repro`` process ~1 s and ~75 MiB."""
        code = (
            "import sys, repro.cli; "
            "bad = {'scipy', 'networkx'} & {m.split('.')[0] for m in sys.modules}; "
            "sys.exit(bool(bad))"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
