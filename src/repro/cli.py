"""Command-line interface: ``python -m repro.cli <command>``.

The local subcommands cover the tool loop without writing Python:

* ``simulate`` — run a workload on a simulated platform, write the
  trace (and its offset measurements) to a ``.npz``/``.jsonl`` file, or
  spill it out-of-core to a sharded directory (``--trace-out DIR
  --shard-events N``);
* ``scan``     — count clock-condition violations in a trace file or
  shard directory (the latter streams one shard at a time);
* ``sync``     — correct a trace file (interpolation and/or CLC) and
  write the result; shard directories stream through the bounded-memory
  kernels and write a sharded output;
* ``report``   — summarize a trace: events, messages, collectives,
  violation rates, optional ASCII timeline; or render a telemetry
  export (``--telemetry``);
* ``figures``  — regenerate paper figures/tables through the parallel
  runner (``--jobs N``) with on-disk result caching (``--no-cache`` to
  disable, ``--cache-dir`` to relocate);
* ``verify``   — fuzz the invariant oracles with adversarial traces
  (``--campaign``, repeatable), serialize shrunken failures into the
  corpus (``--corpus-dir``), or replay the committed corpus
  (``--replay``); see docs/testing.md.

``scan`` and ``sync`` are thin shells over the one-call facade
:func:`repro.core.correct.correct_trace` — the same code path the
Python API and the service workers execute.

The service subcommands run and talk to the long-running correction
service (:mod:`repro.service`, docs/service.md):

* ``serve``  — start the HTTP service (``--port 0`` picks a free port
  and prints it);
* ``submit`` — submit a trace file (uploaded inline) or a built-in
  workload (``--workload``) for correction;
* ``status`` — poll one job (or all jobs with no id);
* ``fetch``  — download a finished job's corrected trace or its
  violation report (``--report``);
* ``cancel`` — cancel a still-queued job.

``simulate``, ``sync``, ``figures`` and ``verify`` accept
``--telemetry PATH`` to record run-wide spans/counters and write them
as JSONL (render with ``repro report --telemetry PATH``); see
docs/observability.md.

Examples
--------
::

    python -m repro.cli simulate --workload pop --nprocs 16 --scale 0.02 \\
        --timer tsc --seed 3 -o pop.npz
    python -m repro.cli scan pop.npz
    python -m repro.cli sync pop.npz --clc -o pop_fixed.npz
    python -m repro.cli simulate --workload pop --nprocs 16 --seed 3 \\
        --trace-out pop_shards --shard-events 65536
    python -m repro.cli sync pop_shards --clc -o pop_fixed_shards
    python -m repro.cli report pop_fixed.npz --timeline
    python -m repro.cli figures fig7 fig8 --jobs 4 --telemetry figs.tele.jsonl
    python -m repro.cli report --telemetry figs.tele.jsonl
    python -m repro.cli verify --campaign smoke --max-examples 25
    python -m repro.cli verify --replay
    python -m repro.cli serve --port 8631 --work-dir /tmp/repro-service
    python -m repro.cli submit --workload sparse --nprocs 8 --clc --wait
    python -m repro.cli fetch job-000001 -o corrected.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.timeline import render_message_arrows, render_timeline
from repro.cluster.pinning import PLACEMENTS
from repro.core.api import PLATFORMS
from repro.core.correct import INTERPOLATIONS, TRACE_ONLY_MODES, correct_trace, scan_source
from repro.errors import ReproError
from repro.options import ENGINES, RunOptions
from repro.sync.violations import scan_messages
from repro.tracing.reader import read_trace
from repro.tracing.store import ChunkedTrace, is_sharded_trace_dir
from repro.tracing.writer import write_trace
from repro.workloads import WORKLOADS, simulate_workload

__all__ = ["main", "build_parser", "FIGURE_TARGETS"]

#: ``figures`` subcommand targets -> renderer (defined below).
FIGURE_TARGETS = ("table2", "fig4", "fig7", "fig8", "waitstates")


def _add_telemetry_arg(sub) -> None:
    sub.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="record run telemetry (spans/counters) and write JSONL here",
    )


#: ``simulate_workload`` arguments that ``simulate`` and ``submit`` read
#: from the flags of the same name, and likewise for ``correct_trace``.
_WORKLOAD_KNOBS = ("nprocs", "scale", "seed", "platform", "placement", "timer")
_CORRECTION_KNOBS = ("interpolation", "clc", "gamma", "lmin")


def _picked(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


def _add_workload_args(sub, order, *, workload, helps) -> None:
    """``--workload`` and the knobs of its simulation (the arguments of
    :func:`repro.workloads.simulate_workload`), added in ``order`` so
    each subcommand keeps its ``--help`` layout."""
    flags = {
        "workload": dict(choices=sorted(WORKLOADS), default=workload),
        "platform": dict(choices=sorted(PLATFORMS), default="xeon"),
        "nprocs": dict(type=int, default=8),
        "timer": dict(default=None),
        "seed": dict(type=int, default=0),
        "scale": dict(type=float, default=0.02),
        "placement": dict(choices=PLACEMENTS, default="scheduler"),
        "engine": dict(choices=ENGINES, default="reference"),
    }
    for name in order:
        sub.add_argument(f"--{name}", help=helps.get(name), **flags[name])


def _add_correction_args(sub, *, helps) -> None:
    """The :func:`correct_trace` knobs; every interpolation reads its
    offset measurements from the trace's metadata."""
    sub.add_argument(
        "--interpolation", choices=INTERPOLATIONS, default="linear",
        help=helps.get("interpolation"),
    )
    sub.add_argument("--clc", action="store_true", help=helps.get("clc"))
    sub.add_argument("--gamma", type=float, default=0.99)
    sub.add_argument("--lmin", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated-cluster event tracing and timestamp synchronization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a workload and write its trace")
    _add_workload_args(
        sim,
        ("workload", "platform", "nprocs", "timer", "seed", "scale", "placement", "engine"),
        workload="sparse",
        helps={
            "timer": "timer technology (default: platform's)",
            "scale": "workload scale knob",
            "engine": "simulation path: the discrete-event engine, or the "
            "vectorized batch fast path (bit-identical; falls back to the "
            "engine when the workload's structure is dynamic)",
        },
    )
    _add_telemetry_arg(sim)
    sim.add_argument("-o", "--output", default=None, help=".npz or .jsonl trace path")
    sim.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="spill the trace out-of-core to a sharded directory instead "
             "of materializing it (see docs/performance.md)",
    )
    sim.add_argument(
        "--shard-events", type=int, default=None, metavar="N",
        help="events per shard for --trace-out (default 262144)",
    )

    scan = sub.add_parser("scan", help="count clock-condition violations")
    scan.add_argument("trace", help="trace file or shard directory")
    scan.add_argument("--lmin", type=float, default=0.0, help="latency floor [s]")

    sync = sub.add_parser("sync", help="correct a trace's timestamps")
    sync.add_argument("trace", help="trace file or shard directory")
    sync.add_argument(
        "-o", "--output", required=True,
        help="corrected trace path (a directory for shard-directory input)",
    )
    _add_correction_args(sync, helps={
        "interpolation": "measurement-based (align/linear/piecewise) or trace-only "
        "(hull/regression/minmax = error estimation; exchange = "
        "collective midpoints) correction",
        "clc": "apply the controlled logical clock",
    })
    _add_telemetry_arg(sync)

    rep = sub.add_parser("report", help="summarize a trace or a telemetry export")
    rep.add_argument("trace", nargs="?", default=None,
                     help="trace file or shard directory")
    rep.add_argument("--timeline", action="store_true", help="render an ASCII timeline")
    rep.add_argument("--arrows", type=int, default=0, help="list up to N messages")
    rep.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="render a telemetry JSONL export (span tree + counters)",
    )

    figs = sub.add_parser(
        "figures",
        help="regenerate paper figures/tables (parallel runner + result cache)",
    )
    figs.add_argument(
        "targets",
        nargs="+",
        choices=sorted(FIGURE_TARGETS) + ["all"],
        help="figures/tables to regenerate",
    )
    figs.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes per grid (default serial; 0 = all cores)",
    )
    figs.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything, ignore and do not write the result cache",
    )
    figs.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    figs.add_argument("--seed", type=int, default=None, help="override the base seed")
    figs.add_argument(
        "--scale", type=float, default=0.1, help="workload scale for fig7 (default 0.1)"
    )
    figs.add_argument(
        "--runs", type=int, default=None,
        help="independent repetitions per reported number "
             "(default: 3 for fig7/fig8, 1 for table2/fig4)",
    )
    figs.add_argument(
        "--level", type=float, default=0.95,
        help="confidence level for the reported intervals (default 0.95)",
    )
    figs.add_argument(
        "--stop-rel", type=float, default=None, metavar="WIDTH",
        help="sequential stopping: add runs until the relative CI "
             "half-width undercuts WIDTH (see docs/methodology.md)",
    )
    figs.add_argument(
        "--stop-max-runs", type=int, default=10,
        help="hard repetition cap for --stop-rel (default 10)",
    )
    figs.add_argument(
        "--engine", choices=list(ENGINES), default="reference",
        help="simulation path for the underlying runs (bit-identical)",
    )
    _add_telemetry_arg(figs)

    ver = sub.add_parser(
        "verify",
        help="fuzz the invariant oracles with adversarial traces",
    )
    ver.add_argument(
        "--campaign", action="append", default=None, metavar="NAME",
        help="campaign to run (repeatable; default: smoke)",
    )
    ver.add_argument(
        "--max-examples", type=int, default=50,
        help="hypothesis examples per probe (default 50)",
    )
    ver.add_argument(
        "--corpus-dir", default=None,
        help="serialize shrunken failures here (default for --replay: tests/corpus)",
    )
    ver.add_argument("--seed", type=int, default=0, help="base fuzzing seed")
    ver.add_argument(
        "--replay", action="store_true",
        help="replay the corpus instead of fuzzing",
    )
    ver.add_argument(
        "--list", action="store_true", dest="list_catalog",
        help="list campaigns and oracles, then exit",
    )
    _add_telemetry_arg(ver)

    srv = sub.add_parser(
        "serve", help="run the trace-correction HTTP service (docs/service.md)"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8631,
        help="listen port (0 picks a free one; the bound port is printed)",
    )
    srv.add_argument("--workers", type=int, default=2, help="worker processes")
    srv.add_argument(
        "--max-attempts", type=int, default=3,
        help="crash retries per job before the dead letter (default 3)",
    )
    srv.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="job manifests + server-side results (default: a temp dir)",
    )
    srv.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    srv.add_argument(
        "--no-cache", action="store_true",
        help="disable the cross-restart result cache (live-job dedup stays)",
    )
    srv.add_argument("--verbose", action="store_true", help="log each request")

    def add_url(p):
        p.add_argument(
            "--url", default="http://127.0.0.1:8631",
            help="service base URL (default http://127.0.0.1:8631)",
        )

    sbm = sub.add_parser("submit", help="submit a correction job to a service")
    sbm.add_argument(
        "trace", nargs="?", default=None,
        help="trace file to upload inline (.npz or .jsonl)",
    )
    _add_workload_args(
        sbm,
        ("workload", "nprocs", "scale", "seed", "platform", "placement", "timer", "engine"),
        workload=None,
        helps={"workload": "simulate a built-in workload server-side instead of uploading"},
    )
    _add_correction_args(sbm, helps={})
    sbm.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    add_url(sbm)

    st = sub.add_parser("status", help="poll a service job (or list all jobs)")
    st.add_argument("job", nargs="?", default=None, help="job id (omit to list)")
    st.add_argument("--json", action="store_true", help="print the raw JSON record")
    add_url(st)

    ft = sub.add_parser("fetch", help="download a finished job's result")
    ft.add_argument("job", help="job id")
    ft.add_argument(
        "-o", "--output", default=None,
        help="write the corrected trace here (.jsonl verbatim, .npz converted; "
             "default: print the .jsonl to stdout)",
    )
    ft.add_argument(
        "--report", action="store_true",
        help="print the violation report instead of the trace",
    )
    add_url(ft)

    cn = sub.add_parser("cancel", help="cancel a still-queued service job")
    cn.add_argument("job", help="job id")
    add_url(cn)

    return parser


# ----------------------------------------------------------------------
def _telemetry_for(args):
    """A live recorder when ``--telemetry PATH`` was given, else None."""
    if getattr(args, "telemetry", None) is None:
        return None
    from repro.telemetry import TelemetryRecorder

    return TelemetryRecorder()


def _flush_telemetry(args, recorder) -> None:
    if recorder is None:
        return
    from repro.telemetry import write_jsonl

    path = write_jsonl(recorder, args.telemetry)
    print(f"telemetry: wrote {path}")


def _cmd_simulate(args) -> int:
    if (args.output is None) == (args.trace_out is None):
        print("error: give exactly one of -o/--output or --trace-out",
              file=sys.stderr)
        return 2
    if args.shard_events is not None and args.trace_out is None:
        print("error: --shard-events requires --trace-out", file=sys.stderr)
        return 2
    recorder = _telemetry_for(args)
    run = simulate_workload(
        args.workload,
        **_picked(args, _WORKLOAD_KNOBS),
        options=RunOptions(
            engine=args.engine, telemetry=recorder,
            trace_dir=args.trace_out, shard_events=args.shard_events,
        ),
    )
    engine_note = run.engine
    if run.fallback_reason:
        engine_note += f", fell back: {run.fallback_reason}"
    if args.trace_out is not None:
        reader = run.trace.reader
        print(
            f"wrote {args.trace_out}: {run.trace.total_events()} events "
            f"in {reader.shard_count()} shards "
            f"({reader.shard_events} events/shard), "
            f"{run.duration:.3f} s simulated ({engine_note}), "
            "offsets measured at init+finalize"
        )
    else:
        path = write_trace(run.trace, args.output)
        print(
            f"wrote {path}: {run.trace.total_events()} events, "
            f"{run.duration:.3f} s simulated ({engine_note}), "
            "offsets measured at init+finalize"
        )
    if recorder is not None:
        from repro.telemetry import render_fallback_table

        table = render_fallback_table(recorder.counters)
        if table:
            print(table)
    _flush_telemetry(args, recorder)
    return 0


def _cmd_scan(args) -> int:
    if is_sharded_trace_dir(args.trace):
        trace = ChunkedTrace(args.trace)
        streamed = f" ({trace.reader.shard_count()} shards, streamed)"
    else:
        trace, streamed = read_trace(args.trace), ""
    reports = scan_source(trace, lmin=args.lmin)
    p2p, coll = reports["p2p"], reports["collective"]
    print(f"{args.trace}: {trace.nranks} ranks, {trace.total_events()} events{streamed}")
    print(f"  p2p:        {p2p.violated}/{p2p.checked} ({100 * p2p.rate:.3f} %) violations")
    print(
        f"  collective: {coll.violated}/{coll.checked} "
        f"({100 * coll.rate:.3f} %) violations"
    )
    return 0 if (p2p.violated + coll.violated) == 0 else 1


def _cmd_sync(args) -> int:
    recorder = _telemetry_for(args)
    result = correct_trace(
        args.trace,
        **_picked(args, _CORRECTION_KNOBS),
        scan=False,
        output=args.output,
        telemetry=recorder,
    )
    suffix = " (streamed)" if result.streamed else ""
    if args.interpolation == "exchange":
        print("applied exchange-midpoint correction")
    elif args.interpolation in TRACE_ONLY_MODES:
        print(f"applied {args.interpolation} error estimation")
    elif args.interpolation != "none":
        print(f"applied {args.interpolation} interpolation{suffix}")
    if result.clc is not None:
        print(
            f"applied CLC{suffix}: {result.clc.jumps} jumps, max shift "
            f"{result.clc.max_shift * 1e6:.3f} us"
        )
    print(f"wrote {result.output}")
    _flush_telemetry(args, recorder)
    return 0


def _report_sharded(args) -> int:
    """Summarize a shard directory one shard at a time (bounded memory)."""
    from repro.tracing.events import EventType

    if args.timeline or args.arrows:
        print("error: --timeline/--arrows need a materialized trace file",
              file=sys.stderr)
        return 2
    chunked = ChunkedTrace(args.trace)
    reader = chunked.reader
    counts = chunked.event_counts()
    print(f"{args.trace} (sharded)")
    print(f"  ranks: {chunked.nranks}   events: {chunked.total_events()}   "
          f"shards: {reader.shard_count()} ({reader.shard_events} events/shard)")
    print("  by type: " + ", ".join(f"{t.name}={n}" for t, n in sorted(counts.items())))
    print(f"  send events: {counts.get(EventType.SEND, 0)}   "
          f"recv events: {counts.get(EventType.RECV, 0)}")
    for key in ("machine", "timer", "duration"):
        if key in chunked.meta:
            print(f"  {key}: {chunked.meta[key]}")
    return 0


def _cmd_report(args) -> int:
    if args.telemetry is not None:
        from repro.telemetry import load_jsonl, render_report

        print(render_report(load_jsonl(args.telemetry)), end="")
        if args.trace is None:
            return 0
        print()
    if args.trace is None:
        print("error: give a trace file and/or --telemetry PATH", file=sys.stderr)
        return 2
    if is_sharded_trace_dir(args.trace):
        return _report_sharded(args)
    trace = read_trace(args.trace)
    counts = trace.event_counts()
    msgs = trace.messages(strict=False)
    colls = trace.collectives()
    print(f"{args.trace}")
    print(f"  ranks: {trace.nranks}   events: {trace.total_events()}")
    print("  by type: " + ", ".join(f"{t.name}={n}" for t, n in sorted(counts.items())))
    print(f"  messages: {len(msgs)}   collectives: {len(colls)}")
    print(f"  message-event fraction: {100 * trace.message_event_fraction():.1f} %")
    p2p = scan_messages(msgs, 0.0)
    print(f"  reversed messages: {p2p.violated} ({100 * p2p.rate:.3f} %)")
    for key in ("machine", "timer", "duration"):
        if key in trace.meta:
            print(f"  {key}: {trace.meta[key]}")
    if args.timeline:
        print()
        print(render_timeline(trace))
    if args.arrows:
        print()
        print(render_message_arrows(trace, limit=args.arrows))
    return 0


def _fig_table2(args, options) -> None:
    from repro.analysis.experiments import table2_latencies

    result = table2_latencies(
        runs=args.runs or 1, level=args.level, options=options
    )
    print("Table II — measured latencies per placement")
    for row in result.rows:
        print(f"  {row}")


def _fig_fig4(args, options) -> None:
    from repro.analysis.experiments import fig4_all_panels

    runs = args.runs or 1
    results = fig4_all_panels(runs=runs, level=args.level, options=options)
    print("Fig. 4 — deviation after initial offset alignment")
    for panel, res in results.items():
        summary = res.residual_summary
        print(
            f"  panel {panel}: {res.timer:>12s} {res.duration:6.0f} s  "
            f"max residual {summary.describe(unit_scale=1e6, unit='us')}  "
            f"(l_min {res.lmin * 1e6:.2f} us)"
        )


def _fig_fig7(args, options) -> None:
    from repro.analysis.experiments import fig7_app_violations

    runs = args.runs or 3
    for app in ("pop", "smg2000"):
        result = fig7_app_violations(
            app=app, runs=runs, scale=args.scale, options=options
        )
        print(f"Fig. 7 — {app}: {runs} runs")
        for i, run in enumerate(result.runs):
            print(
                f"  run {i}: reversed {run.reversed_pct:6.3f} %  "
                f"message events {run.message_event_pct:5.1f} %"
            )
        rev = result.reversed_summary(level=args.level)
        msg = result.message_event_summary(level=args.level)
        print(f"  reversed:       {rev.describe(unit_scale=1.0, unit='%')}")
        print(f"  message events: {msg.describe(unit_scale=1.0, unit='%')}")


def _fig_fig8(args, options) -> None:
    from repro.analysis.experiments import fig8_openmp_violations

    runs = args.runs or 3
    result = fig8_openmp_violations(runs=runs, options=options)
    print(f"Fig. 8 — POMP violations vs thread count "
          f"(mean % of regions, {runs} runs)")
    print("  threads             any   entry    exit barrier")
    for n, any_, entry, exit_, barr in result.rows():
        half = result.summary(n, "any", level=args.level).ci_halfwidth
        print(f"  {n:7d} {any_:7.2f} ± {half:5.2f} {entry:7.2f} "
              f"{exit_:7.2f} {barr:7.2f}")


def _fig_waitstates(args, options) -> None:
    from repro.analysis.experiments import ext_waitstate_accuracy

    result = ext_waitstate_accuracy(options=options)
    print("Wait-state accuracy — Late Sender totals vs ground truth")
    print(f"  truth: {result.truth_total * 1e3:.3f} ms")
    for scheme in ("raw", "linear", "clc"):
        print(
            f"  {scheme:>6s}: {result.totals[scheme] * 1e3:.3f} ms  "
            f"(error {result.error_pct(scheme):6.2f} %, "
            f"{result.sign_flips[scheme]} sign flips)"
        )


_FIGURE_RENDERERS = {
    "table2": _fig_table2,
    "fig4": _fig_fig4,
    "fig7": _fig_fig7,
    "fig8": _fig_fig8,
    "waitstates": _fig_waitstates,
}


def _cmd_figures(args) -> int:
    from repro.cache import ResultCache

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    stopping = None
    if args.stop_rel is not None:
        from repro.stats import StoppingRule

        stopping = StoppingRule(
            rel_ci_width=args.stop_rel, max_runs=args.stop_max_runs,
            level=args.level,
        )
    recorder = _telemetry_for(args)
    # The flag documents 0 as "all cores"; RunOptions only carries
    # positive counts, so resolve it here.
    jobs = (os.cpu_count() or 1) if args.jobs == 0 else args.jobs
    options = RunOptions(
        engine=args.engine, jobs=jobs, cache=cache,
        seed=args.seed, telemetry=recorder, stopping=stopping,
    )
    targets = list(FIGURE_TARGETS) if "all" in args.targets else args.targets
    for target in dict.fromkeys(targets):  # dedupe, keep order
        _FIGURE_RENDERERS[target](args, options)
    if cache is not None:
        print(
            f"cache: {cache.hits} hits, {cache.misses} misses "
            f"({cache.root})"
        )
    _flush_telemetry(args, recorder)
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import CAMPAIGNS, ORACLES, replay_corpus, run_campaign

    if args.list_catalog:
        print("campaigns:")
        for name, campaign in sorted(CAMPAIGNS.items()):
            print(f"  {name:<14s} {len(campaign.probes):2d} probes — "
                  f"{campaign.description}")
        print("oracles:")
        for name, oracle in sorted(ORACLES.items()):
            print(f"  {name:<30s} {oracle.description}")
        return 0

    if args.replay:
        corpus_dir = args.corpus_dir or "tests/corpus"
        results = replay_corpus(corpus_dir)
        failed = 0
        for entry, error in results:
            if error is None:
                print(f"  ok   {entry.name}")
            else:
                failed += 1
                print(f"  FAIL {entry.name}: {error}")
        print(f"corpus {corpus_dir}: {len(results)} entries, {failed} failures")
        return 1 if failed else 0

    recorder = _telemetry_for(args)
    names = args.campaign or ["smoke"]
    rc = 0
    for name in dict.fromkeys(names):  # dedupe, keep order
        result = run_campaign(
            name,
            max_examples=args.max_examples,
            corpus_dir=args.corpus_dir,
            seed=args.seed,
            telemetry=recorder,
        )
        print(result.summary())
        for failure in result.failures:
            rc = 1
            print(f"  FAIL {failure.strategy} x {failure.oracle}: {failure.message}")
            print(f"       spec: {failure.spec.to_json()}")
            if failure.corpus_path:
                print(f"       saved: {failure.corpus_path}")
    _flush_telemetry(args, recorder)
    return rc


# ----------------------------------------------------------------------
# Service commands
# ----------------------------------------------------------------------
def _cmd_serve(args) -> int:
    import tempfile

    from repro.cache import ResultCache
    from repro.service import make_server

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    tmp = None
    work_dir = args.work_dir
    if work_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
        work_dir = tmp.name
    server = make_server(
        args.host,
        args.port,
        work_dir=work_dir,
        cache=cache,
        workers=args.workers,
        max_attempts=args.max_attempts,
        verbose=args.verbose,
    )
    print(
        f"serving on http://{args.host}:{server.port} "
        f"({args.workers} workers, work dir {work_dir})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        if tmp is not None:
            tmp.cleanup()
    return 0


def _client_for(args):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def _print_job(job: dict) -> None:
    line = f"job {job['id']}: {job['state']}"
    details = [f"attempts {job['attempts']}"]
    if job.get("from_cache"):
        details.append("from cache")
    if "result" in job:
        details.append(f"{job['result']['events']} events")
    if "error" in job:
        details.append(f"{job['error']['code']}: {job['error']['message']}")
    print(f"{line} ({', '.join(details)})")


def _cmd_submit(args) -> int:
    if (args.trace is None) == (args.workload is None):
        print("error: give exactly one of a trace file or --workload",
              file=sys.stderr)
        return 2
    client = _client_for(args)
    knobs = _picked(args, _CORRECTION_KNOBS)
    if args.workload is not None:
        job = client.submit({
            "workload": {
                "name": args.workload,
                **_picked(args, _WORKLOAD_KNOBS),
                "engine": args.engine,
            },
            **knobs,
        })
    else:
        from pathlib import Path

        path = Path(args.trace)
        if path.suffix == ".jsonl":
            job = client.submit_trace(path.read_text(encoding="utf-8"), **knobs)
        else:
            job = client.submit_trace(read_trace(path), **knobs)
    _print_job(job)
    if args.wait and job["state"] in ("queued", "running"):
        job = client.wait(job["id"], timeout=None)
        _print_job(job)
    if args.wait and job["state"] != "done":
        return 1
    return 0


def _cmd_status(args) -> int:
    import json as _json

    client = _client_for(args)
    if args.job is None:
        jobs = client.jobs()
        if args.json:
            print(_json.dumps(jobs, indent=2, sort_keys=True))
        else:
            for job in jobs:
                _print_job(job)
            if not jobs:
                print("no jobs")
        return 0
    job = client.status(args.job)
    if args.json:
        print(_json.dumps(job, indent=2, sort_keys=True))
    else:
        _print_job(job)
    return 0


def _cmd_fetch(args) -> int:
    client = _client_for(args)
    if args.report:
        outcome = client.report(args.job)
        report = outcome["report"]
        for stage in report["stages"]:
            checked = stage["p2p"]["checked"] + stage["collective"]["checked"]
            violated = stage["p2p"]["violated"] + stage["collective"]["violated"]
            rate = 100 * violated / checked if checked else 0.0
            print(f"{stage['stage']:12s}: {violated}/{checked} ({rate:.3f} %) violations")
        if "clc_stats" in report:
            stats = report["clc_stats"]
            print(f"clc: {stats['jumps']} jumps, max shift "
                  f"{stats['max_shift'] * 1e6:.3f} us")
        print(f"trace sha256: {outcome['trace_sha256']}")
        return 0
    text = client.fetch_trace(args.job)
    if args.output is None:
        print(text, end="")
        return 0
    from pathlib import Path

    out = Path(args.output)
    if out.suffix == ".jsonl":
        out.write_text(text, encoding="utf-8")
    else:
        from repro.tracing.reader import trace_from_jsonl

        out = write_trace(trace_from_jsonl(text, label=f"job {args.job}"), out)
    print(f"wrote {out}")
    return 0


def _cmd_cancel(args) -> int:
    _print_job(_client_for(args).cancel(args.job))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "sync":
            return _cmd_sync(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
        if args.command == "cancel":
            return _cmd_cancel(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces a command


if __name__ == "__main__":
    raise SystemExit(main())
