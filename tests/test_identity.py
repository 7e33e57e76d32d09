"""Corrected and written bytes and batch-engine runs pinned by sha256
(``tests/data/identity.json``).

A change that moves a pinned result has to edit the file in the open;
``tests/identity_pins.py`` holds the cases and rewrites the file.
"""

from __future__ import annotations

import json

import pytest
from identity_pins import (
    PATH,
    bytes_cases,
    digest,
    figures_cases,
    figures_sha256,
    jsonl_sha256,
    pomp_cases,
    replay_cases,
    replay_sha256,
    service_cases,
    serving,
    sim_cases,
    sim_sha256,
    stamps_cases,
    stamps_sha256,
    written_sha256,
)

from repro import correct_trace
from repro.cli import main as cli_main
from repro.errors import SynchronizationError
from repro.tracing.reader import read_trace, trace_from_jsonl
from repro.tracing.store import ChunkedTrace, write_sharded_trace
from repro.tracing.writer import write_trace

IDENTITY = json.loads(PATH.read_text())


@pytest.fixture(scope="module")
def pomp():
    return pomp_cases()


@pytest.fixture(scope="module")
def stamps():
    return stamps_cases()


@pytest.mark.parametrize("threads", [2, 4, 8])
@pytest.mark.parametrize("imbalance", [0.05, 0.3])
def test_pomp_clc(pomp, threads, imbalance):
    for lmin in (0.0, 1e-6):
        key = f"threads={threads} imbalance={imbalance} lmin={lmin:g}"
        assert digest(*pomp[key]) == IDENTITY["pomp_clc"]["digests"][key], key


@pytest.mark.parametrize("key", sorted(IDENTITY["stamps"]["digests"]))
def test_stamps(stamps, key):
    """POP under align/linear, a periodic-sync run under piecewise, a
    jump-sparse synthetic trace under linear, and POP and SMG2000 under
    every trace-only mode, with and without the CLC."""
    assert digest(*stamps[key]) == IDENTITY["stamps"]["digests"][key], key


@pytest.mark.parametrize("key", sorted(IDENTITY["service"]["digests"]))
def test_service_bytes(stamps, key):
    """The corrected .jsonl a server served for POP is what correcting the
    same run locally (``repro sync``'s path) writes."""
    source, keywords = stamps[key]
    assert service_cases()[key][1] == keywords, key
    got = jsonl_sha256(correct_trace(source, **keywords).trace)
    assert got == IDENTITY["service"]["digests"][key], key


PIECEWISE = ["periodic piecewise clc=False", "periodic piecewise clc=True"]


@pytest.fixture(scope="module")
def periodic_files(stamps, tmp_path_factory):
    """The periodic-sync run as every file kind a correction can read."""
    trace = stamps[PIECEWISE[0]][0].trace
    root = tmp_path_factory.mktemp("periodic")
    return {
        "jsonl": write_trace(trace, root / "run.jsonl"),
        "npz": write_trace(trace, root / "run.npz"),
        "store": write_sharded_trace(trace, root / "store", shard_events=64),
    }


def _materialized(trace):
    return trace.materialize() if isinstance(trace, ChunkedTrace) else trace


@pytest.mark.parametrize("key", PIECEWISE)
@pytest.mark.parametrize("kind", ["jsonl", "npz", "store"])
def test_piecewise_from_files(periodic_files, stamps, kind, key, tmp_path):
    """The measurement sets travel in the trace: piecewise from a .jsonl,
    an .npz and a streamed store is the RunResult's, bit for bit."""
    output = tmp_path / "out" if kind == "store" else None
    result = correct_trace(periodic_files[kind], scan=False, output=output, **stamps[key][1])
    assert result.streamed == (kind == "store")
    assert stamps_sha256(_materialized(result.trace)) == IDENTITY["stamps"]["digests"][key]


def _sync_args(keywords: dict) -> list[str]:
    flags = ["--interpolation", keywords["interpolation"], "--lmin", repr(keywords["lmin"])]
    return flags + (["--clc"] if keywords["clc"] else [])


@pytest.mark.parametrize("key", PIECEWISE)
@pytest.mark.parametrize("kind", ["jsonl", "store"])
def test_piecewise_from_cli(periodic_files, stamps, kind, key, tmp_path):
    output = tmp_path / ("out.jsonl" if kind == "jsonl" else "out")
    argv = ["sync", str(periodic_files[kind]), *_sync_args(stamps[key][1]), "-o", str(output)]
    assert cli_main(argv) == 0
    corrected = read_trace(output) if kind == "jsonl" else ChunkedTrace(output).materialize()
    assert stamps_sha256(corrected) == IDENTITY["stamps"]["digests"][key]


@pytest.mark.parametrize("key", PIECEWISE)
def test_piecewise_from_service(periodic_files, stamps, key, tmp_path):
    """An inline (x-ndjson) and a trace_dir job: the pinned stamps, and the
    inline job serves the bytes ``repro sync`` writes."""
    knobs = stamps[key][1]
    cli_out = tmp_path / "cli.jsonl"
    assert cli_main(["sync", str(periodic_files["jsonl"]), *_sync_args(knobs), "-o", str(cli_out)]) == 0
    with serving() as client:
        inline = client.wait(client.submit_trace(periodic_files["jsonl"].read_text(), **knobs)["id"])
        text = client.fetch_trace(inline["id"])
        sharded = client.wait(client.submit({"trace_dir": str(periodic_files["store"]), **knobs})["id"])
        result_dir = client.report(sharded["id"])["result_dir"]
        from_dir = ChunkedTrace(result_dir).materialize()
    assert inline["state"] == sharded["state"] == "done"
    assert text == cli_out.read_text()
    pinned = IDENTITY["stamps"]["digests"][key]
    assert stamps_sha256(trace_from_jsonl(text)) == pinned
    assert stamps_sha256(from_dir) == pinned


def test_piecewise_needs_two_sets(periodic_files, tmp_path):
    """A trace with fewer than two measurement sets still refuses piecewise."""
    trace = read_trace(periodic_files["jsonl"])
    for key in ("final_offsets", "periodic_offsets"):
        del trace.meta[key]
    with pytest.raises(SynchronizationError, match=">= 2 measurement sets"):
        correct_trace(trace, interpolation="piecewise")
    store = write_sharded_trace(trace, tmp_path / "store")
    with pytest.raises(SynchronizationError, match=">= 2 measurement sets"):
        correct_trace(store, interpolation="piecewise", output=tmp_path / "out")


@pytest.fixture(scope="module")
def written():
    return bytes_cases()


@pytest.mark.parametrize("key", sorted(IDENTITY["bytes"]["digests"]))
def test_written_bytes(written, key):
    """A raw POP trace (both engines) and an OpenMP trace with offset
    measurements, as .jsonl, .npz and a sharded store."""
    assert written_sha256(*written[key]) == IDENTITY["bytes"]["digests"][key], key


@pytest.mark.parametrize("key", sorted(IDENTITY["figures"]["digests"]))
def test_figures_text(key):
    """Every paper table and figure, as ``repro figures`` prints them from a
    process pool: a runner change must not move a byte."""
    assert figures_sha256(*figures_cases()[key]) == IDENTITY["figures"]["digests"][key], key


@pytest.fixture(scope="module")
def sim():
    return sim_cases()


@pytest.mark.parametrize("key", sorted(IDENTITY["sim"]["digests"]))
def test_sim_runs(sim, key):
    """The batch engine's runs themselves: the end-to-end benchmark's POP
    input, a congested run and a periodic-sync run, trace columns, RNG
    positions and offset measurements included."""
    (run,) = sim[key]
    assert run.engine == "batch", key
    assert sim_sha256(run) == IDENTITY["sim"]["digests"][key], key


@pytest.mark.parametrize("key", sorted(IDENTITY["replay"]["digests"]))
def test_replay(key):
    """The parallel replay's corrected stamps and its round count."""
    assert replay_sha256(*replay_cases()[key]) == IDENTITY["replay"]["digests"][key], key


def test_every_case_is_pinned(pomp, stamps, written, sim):
    assert sorted(pomp) == sorted(IDENTITY["pomp_clc"]["digests"])
    assert sorted(written) == sorted(IDENTITY["bytes"]["digests"])
    assert sorted(stamps) == sorted(IDENTITY["stamps"]["digests"])
    assert sorted(service_cases()) == sorted(IDENTITY["service"]["digests"])
    assert sorted(figures_cases()) == sorted(IDENTITY["figures"]["digests"])
    assert sorted(sim) == sorted(IDENTITY["sim"]["digests"])
    assert sorted(replay_cases()) == sorted(IDENTITY["replay"]["digests"])
