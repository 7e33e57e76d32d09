"""End-to-end benchmark of the correction path: trace in, corrected trace out.

Two ways to call it.  The whole benchmark, each workload in its own
fresh process, every metric printed by name with its unit::

    python benchmarks/e2e/run.py --seed 1 [--workload W] [--traced] [--out FILE] [--smoke]

One pass of one workload in this process, the form the benchmark driver
uses (``BENCHMARK.json``); the last line of stdout is the result object::

    python benchmarks/e2e/run.py --workload W --seed 1 --seconds 10 --trace 0|1

``--trace 0`` is the timed phase (the end-to-end metrics, no tracing);
``--trace 1`` is the per-layer pass.  Op counts are fixed, not
durations: ``--seconds`` scales them from the counts calibrated for
``RUN_SECONDS``, so both sides of a comparison do identical work.
``--out FILE`` collects full reports (``null`` where a metric does not
apply, op samples, spans); a second run with the same file appends, and
``compare.py`` reads such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"

from metrics import (  # noqa: E402
    DRIVER_END_TO_END, END_TO_END, OP_SPLIT, PER_LAYER, WORKLOADS,
)

#: ``run_seconds`` of BENCHMARK.json; the op counts in workloads.SIZES
#: make a timed phase of about this long on the 2-core sandbox.
RUN_SECONDS = 10

#: Set-up runs this often in a timed pass and ``setup_s`` is the median.
SETUP_REPEATS = 3

#: glibc malloc settings every measuring process and its children run
#: under: serve every request from one heap that is never given back.
#: On the sandbox (a Firecracker VM) the first touch of a guest page the
#: host has not backed yet costs ~22 us against ~3 us for a page seen
#: before, and which kind a fresh mapping gets is luck: the same
#: 1M-event op took 0.8 s or 2.0 s with the same 52k page faults.  With
#: freed memory kept, ops after the warm-up reuse their pages and that
#: lottery leaves the measurement (see README.md, "Steadiness").
MALLOC_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_ARENA_MAX": "1",
}


# ----------------------------------------------------------------------
# One pass of one workload, in this process
# ----------------------------------------------------------------------
def run_pass(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    import numpy as np

    import workloads  # imports repro from this checkout's src/, or exits

    sizes = (workloads.SMOKE_SIZES if smoke else workloads.SIZES)[name]
    scale = 1.0 if smoke else seconds / RUN_SECONDS
    n_ops = max(2, round(sizes["ops"] * scale))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    # The program's own temp dirs (repro-correct-*, repro-stream-*) and
    # the server's stay inside the checkout and go away with ``work``.
    # The default result cache is pointed at a path that must still not
    # exist afterwards: nothing may read or write ~/.cache/repro.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    guard = work / "default-cache-must-stay-unused"
    os.environ["REPRO_CACHE_DIR"] = str(guard)

    workload = workloads.WORKLOAD_CLASSES[name](name, sizes, seed, work)
    setups = []
    try:
        for i in range(1 if trace or smoke else SETUP_REPEATS):
            if i:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

        if trace:
            values, spans, ops = workload.traced(sizes["traced"])
        else:
            phase = workload.timed(n_ops)
            spans, ops = [], phase.ops
            values = workloads.client_split(ops)
            values["peak_rss_mb"] = workload.peak_rss_mb()
        problems = workload.verify()
        if guard.exists():
            problems.append("the default result cache was touched")
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
        drop_work_root()

    good = [op for op in ops if op.ok]
    if not good:
        sys.exit(f"{name}: no op completed")
    failed = len(ops) - len(good)
    samples = values.pop("samples", {})
    values["failure_rate"] = failed / len(ops)
    if not trace:
        seconds_ok = [op.seconds for op in good]
        values["setup_s"] = statistics.median(setups)
        values["events_per_s"] = sum(op.events for op in good) / phase.wall_s
        values["op_p50_s"] = statistics.median(seconds_ok)
        # A p90 needs ten samples beyond it; only the service workloads
        # run enough ops for that.
        values["op_p90_s"] = (
            float(np.percentile(seconds_ok, 90)) if len(seconds_ok) >= 100 else None
        )
        samples["op_p50_s"] = samples["op_p90_s"] = len(seconds_ok)
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)

    declared = PER_LAYER if trace else END_TO_END
    extra = [] if trace else [m for m in PER_LAYER if m.name.startswith("service.client.")]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "metrics": {
            m.name: {"value": values.get(m.name), "unit": m.unit}
            for m in declared + extra
        },
        "samples": samples,
        "op_seconds": [op.seconds for op in ops],
        "setup_seconds": setups,
        "spans": spans,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def drop_work_root() -> None:
    """Remove ``.work`` once the last run using it has cleaned up."""
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still has its directory in there


def print_report(report: dict) -> None:
    for name, m in report["metrics"].items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        n = report["samples"].get(name)
        samples = "" if n is None or m["value"] is None else f"  (n={n})"
        print(f"{report['workload']:18s} {name:44s} {value:>12s} {m['unit']}{samples}")


def driver_line(report: dict) -> str:
    """The result object of the driver's contract: numbers only, ``null`` → 0."""
    declared = PER_LAYER if report["trace"] else DRIVER_END_TO_END
    metrics = {}
    for m in declared:
        value = report["metrics"][m.name]["value"]
        metrics[m.name] = {"value": 0 if value is None else value, "unit": m.unit}
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def append_reports(path: Path, reports: list) -> None:
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    path.write_text(json.dumps({"runs": runs + reports}) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# The whole benchmark: one fresh process per workload and pass
# ----------------------------------------------------------------------
def run_all(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports, status = [], 0
    WORK_ROOT.mkdir(exist_ok=True)
    scratch_dir = Path(tempfile.mkdtemp(prefix="reports-", dir=WORK_ROOT))
    scratch = scratch_dir / "report.json"
    try:
        for name in names:
            for trace in (0, 1) if args.traced else (0,):
                scratch.unlink(missing_ok=True)
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(scratch),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                # Everything but the driver's result line is the report.
                sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
                sys.stdout.flush()
                status = status or done.returncode
                if scratch.exists():
                    reports += json.loads(scratch.read_text(encoding="utf-8"))["runs"]
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)
        drop_work_root()
    if args.traced:
        for name in names:
            print_budget([r for r in reports if r["workload"] == name])
    if args.out:
        append_reports(Path(args.out), reports)
    return status


def print_budget(reports: list) -> None:
    """One workload's budget: the layers the op splits into, then every other time."""
    values = {
        name: m["value"]
        for report in sorted(reports, key=lambda r: -r["trace"])  # timed pass wins
        for name, m in report["metrics"].items()
        if m["unit"] == "s" and m["value"] is not None
    }
    if not reports or len({r["trace"] for r in reports}) < 2:
        return
    op_name, parts = OP_SPLIT[reports[0]["workload"]]
    op = values[op_name]
    print(f"\n{reports[0]['workload']}: {op_name} = {op:.4g} s splits into")
    for name in sorted(parts, key=lambda n: -values[n]):
        print(f"  {name:44s} {values[name]:10.4g} s {100 * values[name] / op:6.1f} %")
    covered = sum(values[name] for name in parts)
    print(f"  {'sum of the above':44s} {covered:10.4g} s {100 * covered / op:6.1f} %")
    print("  measured besides (set-up, nested spans, single-thread replay):")
    for name in sorted(set(values) - set(parts) - {op_name}, key=lambda n: -values[n]):
        print(f"  {name:44s} {values[name]:10.4g} s {100 * values[name] / op:6.1f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="run one pass of --workload in this process")
    parser.add_argument("--traced", action="store_true",
                        help="whole benchmark: add the per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to about a second")
    parser.add_argument("--out", metavar="FILE", help="append full reports here")
    args = parser.parse_args(argv)

    if args.trace is None:
        return run_all(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        # malloc reads these once, at start-up: start again with them set.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, **MALLOC_ENV))
    report = run_pass(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if args.out:
        append_reports(Path(args.out), [report])
    print_report(report)
    print(driver_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
