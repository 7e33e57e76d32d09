"""The public API surface: exports, entry-point knobs, RunOptions, and
start-up imports.

The export and knob snapshots below are deliberate friction: adding or
removing a top-level name, or a parameter of a tracked entry point, is
an API decision and must update these lists in the same change.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path

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

#: Every parameter (``self`` aside) of the tracked entry points, in
#: signature order.  Update deliberately: a knob no caller sets is code
#: to delete (``test_every_tracked_knob_has_a_caller``).  Run entry
#: points take ``options=`` and correction entry points ``telemetry=``,
#: never both.
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
    "repro.analysis.experiments.fig4_all_panels": ["runs", "level", "options"],
    "repro.analysis.experiments.fig5_interpolated_deviation": [
        "panel", "seed", "duration", "probe_interval",
    ],
    "repro.analysis.experiments.fig6_short_run": ["seed"],
    "repro.analysis.experiments.fig7_app_violations": [
        "app", "runs", "nprocs", "scale", "timer", "options",
    ],
    "repro.analysis.experiments.fig8_openmp_violations": [
        "threads", "runs", "regions", "options",
    ],
    "repro.analysis.experiments.ext_waitstate_accuracy": ["options"],
    "repro.analysis.latency.measure_latency": [
        "preset", "pinning", "repeats", "seed", "timer", "label",
        "engine", "runs", "level", "bootstrap", "stopping",
    ],
    "repro.analysis.latency.measure_collective_latency": [
        "preset", "pinning", "repeats", "seed", "timer", "label",
        "engine", "runs", "level", "bootstrap", "stopping",
    ],
    "repro.analysis.reports.ci_cell": ["summary"],
    "repro.analysis.reports.format_series": ["label", "times", "values"],
    "repro.analysis.timeline.render_message_arrows": ["trace", "t0", "t1", "limit"],
    "repro.openmp.team.run_parallel_for_benchmark": ["config", "seed", "measure_offsets"],
    "repro.openmp.team.shm_latency": ["contention"],
    "repro.clocks.hardware.build_oscillator_drift": ["params", "rng", "duration"],
    "repro.cluster.network.HierarchicalLatency": ["inter_node", "same_node", "same_chip"],
    "repro.cluster.network.TorusLatency": [
        "dims", "inter_node_base", "per_hop", "bandwidth", "jitter", "intra_node",
    ],
    "repro.tracing.store.write_sharded_trace": ["trace", "directory", "shard_events"],
    "repro.tracing.trace.Trace.compiled_schedule": [],
    "repro.sync.schedule.CompiledSchedule.from_trace": ["trace"],
    "repro.sync.lamport.lamport_clocks": ["trace"],
    "repro.sync.lamport.lamport_clocks_reference": ["trace"],
    "repro.sync.vector.vector_clocks": ["trace"],
    "repro.sync.vector.vector_clocks_reference": ["trace"],
    "repro.sync.vector.happened_before_graph": ["trace"],
    "repro.sync.violations.scan_trace": ["trace", "lmin"],
    "repro.cache.ResultCache": ["root", "version"],
    "repro.service.infrastructure.LockedTelemetry": [],
    "repro.service.infrastructure.WorkerPool": ["queue", "handler", "workers", "on_crash"],
    "repro.service.application.JobManager": [
        "work_dir", "cache", "workers", "max_attempts", "executor",
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
    "repro.sync.replay.replay_correct": ["trace", "lmin", "gamma"],
    "repro.sync.streaming.streaming_clc_correct": [
        "source", "out_dir", "gamma", "amortization_window", "lmin", "telemetry",
    ],
    "repro.tracing.buffer.TraceBuffer": ["capacity", "record_cost", "flush_cost"],
    "repro.mpi.comm.MpiContext": [
        "rank", "size", "location", "jitter_model", "jitter_rng", "buffer", "mpi_regions",
    ],
    "repro.mpi.comm.MpiContext.sendrecv": ["dst", "src", "sendtag", "recvtag"],
    "repro.mpi.comm.MpiContext.reduce": ["root", "nbytes", "value"],
    "repro.mpi.comm.MpiContext.reduce_scatter": ["nbytes", "values"],
    "repro.mpi.comm.MpiContext._simple_event": ["etype", "a"],
    "repro.mpi.collectives.reduce": ["ctx", "instance", "root", "nbytes", "value"],
    "repro.mpi.collectives.reduce_scatter": ["ctx", "instance", "nbytes", "values"],
    "repro.sim.batch._RankPlan._event": ["etype", "a"],
    "repro.analysis.experiments.table1_pinnings": [],
    "repro.analysis.runner.seed_grid": ["base_config", "seeds"],
    "repro.analysis.profile.RegionProfile.total_time": [],
    "repro.clocks.drift.RandomWalkDrift": ["rng", "sigma", "step", "duration", "rate0"],
    "repro.units.format_rate": ["rate"],
    "repro.verify.oracles.check_case": ["case"],
    "repro.verify.oracles.assert_scalar_matches_vector": ["model", "t", "abs_tol"],
    "repro.verify.oracles.assert_telemetry_inert": ["params"],
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


def _parameters(path: str) -> list[inspect.Parameter]:
    """Parameters (``self`` aside) of the function, method or class at ``path``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        params = inspect.signature(target).parameters.values()
        return [p for p in params if p.name != "self"]
    raise LookupError(path)


def _knobs(path: str) -> list[str]:
    return [p.name for p in _parameters(path)]


@pytest.mark.parametrize("path", sorted(EXPECTED_KNOBS))
def test_knob_snapshot(path):
    assert _knobs(path) == EXPECTED_KNOBS[path]


#: Where the callers of the tracked entry points live.
CALLER_TREES = ("src", "benchmarks", "examples", "tests")


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in :data:`CALLER_TREES`, keyed by the called name
    (``f(...)`` and ``x.f(...)`` both under ``"f"``)."""
    root = Path(__file__).resolve().parent.parent
    calls = defaultdict(list)
    for tree in CALLER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    calls[name].append(node)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Does ``call`` set parameter ``name`` (at ``position`` if positional)?
    A ``*`` or ``**`` expansion counts as setting every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_tracked_knob_has_a_caller():
    calls = _calls_by_name()
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    unset = []
    for path in sorted(EXPECTED_KNOBS):
        sites = calls[path.rsplit(".", 1)[1]]
        for index, param in enumerate(_parameters(path)):
            position = index if param.kind in positional else None
            if param.default is not param.empty and not any(
                _passes(call, param.name, position) for call in sites
            ):
                unset.append(f"{path}({param.name})")
    assert unset == []


def test_no_entry_point_takes_options_and_telemetry():
    both = [path for path in EXPECTED_KNOBS
            if {"options", "telemetry"} <= set(_knobs(path))]
    assert both == []


def _module_imports(stmts) -> dict[str, int]:
    """Names bound by the imports of a module body (through ``if``/``try``
    blocks, not into functions or classes), with their line."""
    bound = {}
    for node in stmts:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                bound.update(_module_imports(block))
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Every name an expression reads, a quoted annotation names or
    ``__all__`` lists."""
    used, quoted = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for annotation in quoted:
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def test_no_unused_module_imports():
    """No module of ``src/repro`` imports a name at module level that it
    never uses; a package ``__init__.py`` re-exports, so it is exempt."""
    root = Path(repro.__file__).resolve().parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.relative_to(root.parent)}:{line}: {name}"
                   for name, line in _module_imports(tree.body).items() if name not in used]
    assert unused == []


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
