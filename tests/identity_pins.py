"""The cases behind ``tests/data/identity.json`` and the script that writes it.

A pin is the sha256 of a correction's stamps (:func:`stamps_sha256`), in
the ``service`` section that of the corrected ``.jsonl`` an in-process
server serves (:func:`served_sha256`), and in the ``bytes`` section that
of a raw trace as written to disk (:func:`written_sha256`), in the
``figures`` section that of what ``repro figures`` prints
(:func:`figures_sha256`), in the ``sim`` section that of a batch-engine
run itself (:func:`sim_sha256`), and in the ``replay`` section that of a
parallel-replay CLC (:func:`replay_sha256`); ``tests/test_identity.py``
checks them.  A change that moves a pinned
result has to rewrite the file in the open::

    PYTHONPATH=src python tests/identity_pins.py           # rewrite every section
    PYTHONPATH=src python tests/identity_pins.py --check   # exit 1 on any difference
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro import correct_trace
from repro.core.correct import TRACE_ONLY_MODES
from repro.tracing.events import EventLog
from repro.tracing.trace import Trace
from repro.tracing.writer import trace_to_jsonl

PATH = Path(__file__).parent / "data" / "identity.json"

POMP_ABOUT = (
    "sha256 over every rank's corrected stamps (little-endian float64, rank order) of "
    "correct_trace(run_parallel_for_benchmark(OmpTeamConfig(threads=T, regions=30, "
    "imbalance=I), seed=1), interpolation='none', clc=True, lmin=L); recorded from the "
    "POMP-constraint CLC this path replaced"
)
STAMPS_ABOUT = (
    "sha256 over every rank's corrected stamps (little-endian float64, rank order) of "
    "correct_trace(source, interpolation=..., clc=..., scan=False): 'pop' is "
    "simulate_workload('pop', nprocs=8, scale=0.02, seed=3, platform='opteron', "
    "placement='spread', engine='batch'); 'periodic' a 4-rank sparse run on the Xeon "
    "preset with a measurement at every second collective (5 measurement sets), "
    "lmin=1e-5 (23 violations left after piecewise); "
    "'synthetic' synthetic_trace(20000), two ranks shaped like the end-to-end "
    "benchmark's jump-sparse input; 'smg2000' is simulate_workload('smg2000', nprocs=8, "
    "scale=0.05, seed=3, platform='opteron', placement='spread', engine='batch'). "
    "The align/linear/piecewise pins were recorded before interpolation evaluated one "
    "line per knot segment; the trace-only modes (hull, regression, minmax, exchange: "
    "the correction comes from the trace's own messages or collectives) on 'pop' and "
    "'smg2000' before the correction layer dropped the keywords no caller set "
    "(spanning-tree windows and collectives, exchange op and duration filters)"
)

SERVICE_ABOUT = (
    "sha256 of the corrected .jsonl that an in-process server (make_server, forked "
    "workers) serves for a submitted workload job: 'pop' is the stamps section's "
    "POP run (POP_SPEC) under interpolation=..., clc=...; recorded before a status "
    "request could hold its reply. The test checks it against "
    "trace_to_jsonl(correct_trace(...)) run locally: service bytes == CLI bytes"
)

BYTES_ABOUT = (
    "sha256 of a raw trace as written: 'jsonl' and 'npz' hash the file write_trace "
    "writes, 'store' the files of write_sharded_trace(trace, dir, shard_events=1000) "
    "(each file's name, then its bytes, in name order); 'pop <engine>' is the stamps "
    "section's POP run (POP_SPEC) on that engine, 'openmp' is "
    "run_parallel_for_benchmark(OmpTeamConfig(threads=4, regions=30), seed=1, "
    "measure_offsets=True); recorded before offset measurements had one metadata codec"
)

FIGURES_ABOUT = (
    "sha256 of the stdout of `repro figures <key>` (30 lines for 'all'; --jobs 1 prints "
    "the same bytes); recorded before run_grid gave its batches to the process pool "
    "in grid order"
)

SIM_ABOUT = (
    "sha256 of a batch-engine RunResult: every rank's six trace columns (little-endian, "
    "rank order), then the JSON of duration, events_processed, engine, rng_states and "
    "the init, final and periodic offset measurements; 'pop seed=S' is the end-to-end "
    "benchmark's jump-dense input (POP, 16 ranks, scale 0.15, opteron, spread; seeds "
    "1000 and 1001), 'congested' POP on a 4x2 grid of 8 Xeon nodes (20 steps, "
    "seed 2) at congestion_alpha=0.5, capacity 4, 'periodic' the stamps section's periodic-sync run; recorded before "
    "the batch solver delivered each message by its send serial"
)

REPLAY_ABOUT = (
    "sha256 over every rank's stamps as replay_correct(trace, lmin=L) corrects them "
    "(little-endian float64, rank order), then the JSON of its rounds and max_queue; "
    "'pop' is the stamps section's POP run (POP_SPEC); recorded before replay_correct "
    "dropped its include_collectives keyword"
)

#: The ``pop`` source of the ``stamps`` and ``service`` sections.
POP_SPEC = dict(
    nprocs=8, scale=0.02, seed=3, platform="opteron", placement="spread", engine="batch"
)
#: The ``smg2000`` source of the ``stamps`` section: a sparse trace.
SMG_SPEC = dict(
    nprocs=8, scale=0.05, seed=3, platform="opteron", placement="spread", engine="batch"
)


def stamps_sha256(trace: Trace, tail: bytes = b"") -> str:
    """sha256 of every rank's stamps (little-endian float64, rank order), then ``tail``."""
    digest = hashlib.sha256()
    for rank in trace.ranks:
        digest.update(np.ascontiguousarray(trace.logs[rank].timestamps, "<f8").tobytes())
    digest.update(tail)
    return digest.hexdigest()


def pomp_cases():
    """``{key: (source, correct_trace keywords)}`` of the ``pomp_clc`` section."""
    from repro.openmp.team import OmpTeamConfig, run_parallel_for_benchmark

    cases = {}
    for threads in (2, 4, 8):
        for imbalance in (0.05, 0.3):
            trace = run_parallel_for_benchmark(
                OmpTeamConfig(threads=threads, regions=30, imbalance=imbalance), seed=1
            )
            for lmin in (0.0, 1e-6):
                key = f"threads={threads} imbalance={imbalance} lmin={lmin:g}"
                cases[key] = (trace, {"interpolation": "none", "clc": True, "lmin": lmin})
    return cases


def pop_run(engine: str = POP_SPEC["engine"]):
    return workload_run("pop", {**POP_SPEC, "engine": engine})


def workload_run(name: str, spec: dict):
    from repro.options import RunOptions
    from repro.workloads import simulate_workload

    spec = dict(spec)
    engine = spec.pop("engine")
    return simulate_workload(name, **spec, options=RunOptions(engine=engine))


def xeon_run(worker, nranks: int, engine: str = "reference", **world):
    """``worker`` on ``nranks`` Xeon nodes; ``world`` adds MpiWorld keywords."""
    from repro.cluster import inter_node, xeon_cluster
    from repro.mpi import MpiWorld
    from repro.options import RunOptions

    preset = xeon_cluster()
    built = MpiWorld(preset, inter_node(preset.machine, nranks), timer="tsc", seed=2,
                     duration_hint=60.0, **world)
    return built.run(worker, options=RunOptions(engine=engine))


def periodic_run(engine: str = "reference"):
    """Five measurement sets: init, three periodic ones, final."""
    from repro.workloads import SparseConfig, sparse_worker

    worker = sparse_worker(SparseConfig(rounds=20, collective_every=4), seed=2)
    return xeon_run(worker, 4, engine, periodic_sync_every=2)


def congested_run():
    """POP on a 4x2 grid of Xeon nodes, every latency stretched by the load."""
    from repro.workloads import PopConfig, pop_worker

    worker = pop_worker(PopConfig(steps=20, step_time=1e-3, grid=(4, 2), trace_window=None), seed=2)
    return xeon_run(worker, 8, "batch", congestion_alpha=0.5, congestion_capacity=4)


def synthetic_trace(n_per_rank: int, seed: int = 3) -> Trace:
    """Two ranks, every 16th event a message, 50 receives pulled back before
    their sends; rank 1's offset drifts from +0.2 µs to -0.3 µs."""
    msg_every, violations = 16, 50
    nmsg = n_per_rank // msg_every
    idx = np.arange(nmsg) * msg_every + msg_every // 2
    bad = idx[np.sort(np.random.default_rng(seed).choice(nmsg, size=violations, replace=False))]
    logs = {}
    for rank in (0, 1):
        ts = np.arange(n_per_rank, dtype=np.float64) * 1e-6
        et = np.tile(np.array([0, 1], dtype=np.int32), n_per_rank // 2)  # ENTER, EXIT
        a, d = np.zeros(n_per_rank, dtype=np.int64), np.full(n_per_rank, -1, dtype=np.int64)
        if rank == 0:
            et[idx], a[idx] = 2, 1  # SEND to rank 1
        else:
            ts += 5e-7
            et[idx] = 3  # RECV
            ts[bad] -= 0.9e-6
        d[idx] = np.arange(nmsg)
        zeros = np.zeros(n_per_rank, dtype=np.int64)
        logs[rank] = EventLog.from_arrays(ts, et, a, zeros, zeros, d)
    end = n_per_rank * 1e-6 + 1.0
    meta = {
        "init_offsets": {0: (0.0, 0.0), 1: (0.0, 2e-7)},
        "final_offsets": {0: (end, 0.0), 1: (end, -3e-7)},
    }
    return Trace(logs, meta=meta)


def stamps_cases():
    """``{key: (source, correct_trace keywords)}`` of the ``stamps`` section."""
    cases = {}
    pop = pop_run()
    for interpolation in ("align", "linear"):
        for clc in (False, True):
            cases[f"pop {interpolation} clc={clc}"] = (pop, {"interpolation": interpolation, "clc": clc})
    periodic = periodic_run()
    for clc in (False, True):
        cases[f"periodic piecewise clc={clc}"] = (
            periodic, {"interpolation": "piecewise", "clc": clc, "lmin": 1e-5}
        )
    cases["synthetic linear clc=True"] = (synthetic_trace(20_000), {"interpolation": "linear", "clc": True})
    smg = workload_run("smg2000", SMG_SPEC)
    for name, source in (("pop", pop), ("smg2000", smg)):
        for mode in TRACE_ONLY_MODES:
            for clc in (False, True):
                cases[f"{name} {mode} clc={clc}"] = (source, {"interpolation": mode, "clc": clc})
    return cases


def service_cases():
    """``{key: (workload spec, correction fields)}`` of the ``service`` section;
    each key names the ``stamps`` case that corrects the same run locally."""
    return {"pop linear clc=True": ({"name": "pop", **POP_SPEC}, {"interpolation": "linear", "clc": True})}


def bytes_cases():
    """``{key: (trace, format)}`` of the ``bytes`` section."""
    from repro.openmp.team import OmpTeamConfig, run_parallel_for_benchmark

    traces = {f"pop {engine}": pop_run(engine).trace for engine in ("reference", "batch")}
    traces["openmp"] = run_parallel_for_benchmark(
        OmpTeamConfig(threads=4, regions=30), seed=1, measure_offsets=True
    )
    return {
        f"{name} {fmt}": (trace, fmt)
        for name, trace in traces.items()
        for fmt in ("jsonl", "npz", "store")
    }


def written_sha256(trace: Trace, fmt: str) -> str:
    import tempfile

    from repro.tracing.store import write_sharded_trace
    from repro.tracing.writer import write_trace

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        if fmt == "store":
            write_sharded_trace(trace, tmp, shard_events=1000)
        else:
            write_trace(trace, Path(tmp) / f"trace.{fmt}")
        for path in sorted(Path(tmp).iterdir()):
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def digest(source, keywords: dict) -> str:
    return stamps_sha256(correct_trace(source, scan=False, **keywords).trace)


def jsonl_sha256(trace: Trace) -> str:
    return hashlib.sha256(trace_to_jsonl(trace).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def serving():
    """A fresh in-process server (one forked worker); yields its client."""
    import tempfile
    import threading

    from repro.service import ServiceClient, make_server

    with tempfile.TemporaryDirectory() as work_dir:
        server = make_server(port=0, work_dir=work_dir, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            yield client
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join()


def served_sha256(spec: dict, fields: dict) -> str:
    """Submit the workload job to a fresh in-process server and hash what it serves."""
    with serving() as client:
        job = client.wait(client.submit({"workload": spec, **fields})["id"])
        text = client.fetch_trace(job["id"])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figures_cases():
    """``{key: (argv,)}`` of the ``figures`` section; the key is the argv after ``figures``."""
    key = "all --scale 0.02 --runs 2 --no-cache --jobs 2"
    return {key: (["figures", *key.split()],)}


def figures_sha256(argv: list[str]) -> str:
    import io

    from repro.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def sim_cases():
    """``{key: (RunResult,)}`` of the ``sim`` section, every run on the batch engine."""
    from repro.options import RunOptions
    from repro.workloads import simulate_workload

    cases = {
        f"pop seed={seed}": (simulate_workload(
            "pop", nprocs=16, scale=0.15, seed=seed, platform="opteron",
            placement="spread", options=RunOptions(engine="batch"),
        ),)
        for seed in (1000, 1001)
    }
    cases["congested"] = (congested_run(),)
    cases["periodic"] = (periodic_run("batch"),)
    return cases


def sim_sha256(run) -> str:
    digest = hashlib.sha256()
    for rank in run.trace.ranks:
        log = run.trace.logs[rank]
        for column in (log.timestamps, log.etypes, log.a, log.b, log.c, log.d):
            digest.update(np.ascontiguousarray(column, column.dtype.newbyteorder("<")).tobytes())
    offsets = [
        None if taken is None else [dataclasses.astuple(taken[w]) for w in sorted(taken)]
        for taken in (run.init_offsets, run.final_offsets, *run.periodic_offsets)
    ]
    rest = [run.duration, run.events_processed, run.engine, run.rng_states, offsets]
    digest.update(json.dumps(rest, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def replay_cases():
    """``{key: (trace, lmin)}`` of the ``replay`` section."""
    return {"pop lmin=1e-06": (pop_run().trace, 1e-6)}


def replay_sha256(trace: Trace, lmin: float) -> str:
    from repro.sync.replay import replay_correct

    result = replay_correct(trace, lmin=lmin)
    return stamps_sha256(result.clc.trace, json.dumps([result.rounds, result.max_queue]).encode("utf-8"))


SECTIONS = {
    "pomp_clc": (POMP_ABOUT, pomp_cases, digest),
    "stamps": (STAMPS_ABOUT, stamps_cases, digest),
    "service": (SERVICE_ABOUT, service_cases, served_sha256),
    "bytes": (BYTES_ABOUT, bytes_cases, written_sha256),
    "figures": (FIGURES_ABOUT, figures_cases, figures_sha256),
    "sim": (SIM_ABOUT, sim_cases, sim_sha256),
    "replay": (REPLAY_ABOUT, replay_cases, replay_sha256),
}


def generate() -> dict:
    return {
        name: {"about": about, "digests": {key: pin(*case) for key, case in cases().items()}}
        for name, (about, cases, pin) in SECTIONS.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {PATH.name} instead of rewriting it")
    args = parser.parse_args(argv)
    fresh = generate()
    if not args.check:
        PATH.write_text(json.dumps(fresh, indent=2) + "\n")
        return 0
    pinned = json.loads(PATH.read_text())
    differ = [
        f"{name}: {key}"
        for name, section in fresh.items()
        for key, value in section["digests"].items()
        if pinned.get(name, {}).get("digests", {}).get(key) != value
    ]
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(differ)} of {sum(len(s['digests']) for s in fresh.values())} pins differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
