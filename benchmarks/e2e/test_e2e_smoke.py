"""Smoke test of the end-to-end benchmark (collected by ``pytest benchmarks``).

Runs ``run.py --smoke --traced`` — every workload shrunk to about a
second, timed and per-layer pass — and checks the contract between
``BENCHMARK.json``, ``metrics.py`` and what ``run.py`` emits.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _server_pids() -> set:
    """PIDs of running ``repro.cli serve`` processes."""
    pids = set()
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            words = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue  # the process ended while we were looking
        if b"repro.cli" in words and b"serve" in words:
            pids.add(int(cmdline.parent.name))
    return pids


def test_benchmark_json_matches_metric_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == metrics.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == [tuple(m) for m in metrics.DRIVER_END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(m[:3]) for m in metrics.PER_LAYER
    ]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)


def test_smoke_run_emits_every_declared_metric(tmp_path):
    servers_before = _server_pids()
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced", "--seed", "7",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w, t) for w in metrics.WORKLOADS for t in (0, 1)
    }
    service = {"svc_distinct", "svc_repeat"}
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run["problems"]
        assert run["metrics"]["failure_rate"]["value"] == 0
        declared = metrics.PER_LAYER if run["trace"] else metrics.END_TO_END
        for m in declared:
            got = run["metrics"][m.name]
            assert got["unit"] == m.unit
            assert got["value"] is None or isinstance(got["value"], (int, float)), m.name
        if not run["trace"]:
            # Defined on every workload: the four BENCHMARK.json declares.
            for m in metrics.DRIVER_END_TO_END:
                assert run["metrics"][m.name]["value"] > 0, (run["workload"], m.name)
            # Too few ops in a smoke run for a p90, on any workload.
            assert run["metrics"]["op_p90_s"]["value"] is None
        else:
            measured = {k for k, m in run["metrics"].items() if m["value"] is not None}
            client = {k for k in measured if k.startswith("service.")}
            assert bool(client) == (run["workload"] in service), run["workload"]
            assert "core.correct.total_s" in measured
            assert all(
                {"name", "start", "end", "parent", "op"} <= set(s) for s in run["spans"]
            )

    assert not (HERE / ".work").exists(), "a temp dir was left behind"
    assert _server_pids() <= servers_before, "a server process was left behind"


def test_refuses_to_run_without_the_package(tmp_path):
    """In a directory with only the benchmark's files it must fail, not measure."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "svc_repeat",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
