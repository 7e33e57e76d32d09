"""The telemetry subsystem: recorder semantics, exports, and inertness.

The load-bearing property is *inertness*: attaching a recorder to any
run must leave every observable — traces, results, offsets, RNG stream
positions — byte-for-byte identical to the un-instrumented run.  The
matrix test below drives the shared ``telemetry_is_inert`` verify
oracle over every built-in workload (which itself checks both engines
per scenario).

Export formats are pinned by golden files (``tests/data/``), produced
with an injected deterministic clock so the byte stream is stable.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    TelemetryRecorder,
    ensure_telemetry,
    load_jsonl,
    render_report,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.verify.cases import BATCH_WORKLOADS
from repro.verify.oracles import assert_telemetry_inert

DATA_DIR = Path(__file__).parent / "data"


def _ticking_clock(step: float = 0.25):
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


def _sample_recorder() -> TelemetryRecorder:
    """A small deterministic recording exercising every channel."""
    rec = TelemetryRecorder(clock=_ticking_clock())
    with rec.span("run", workload="sparse"):
        with rec.span("sim.engine.run", nranks=4) as span:
            span.set(events=12)
        rec.count("sim.engine.events", 12)
        rec.count("cache.hit")
        rec.count("cache.hit")
        rec.gauge("runner.worker_utilization", 0.5)
        rec.gauge_max("sim.engine.queue_depth_high_water", 7)
        rec.gauge_max("sim.engine.queue_depth_high_water", 3)
        rec.observe("runner.job", 0.125)
        rec.observe("runner.job", 0.375)
    return rec


class TestRecorder:
    def test_span_nesting_and_parents(self):
        rec = _sample_recorder()
        assert [s.name for s in rec.spans] == ["run", "sim.engine.run"]
        assert rec.spans[0].parent == -1
        assert rec.spans[1].parent == 0
        # Injected clock ticks 0.25 per call: two spans, four stamps.
        assert rec.spans[0].start == 0.25 and rec.spans[0].end == 1.0
        assert rec.spans[1].start == 0.5 and rec.spans[1].end == 0.75
        assert rec.spans[1].duration == pytest.approx(0.25)

    def test_span_attrs(self):
        rec = _sample_recorder()
        assert rec.spans[0].attrs == {"workload": "sparse"}
        assert rec.spans[1].attrs == {"nranks": 4, "events": 12}

    def test_span_records_error_type(self):
        rec = TelemetryRecorder(clock=_ticking_clock())
        with pytest.raises(ValueError):
            with rec.span("boom"):
                raise ValueError("x")
        assert rec.spans[0].attrs["error"] == "ValueError"
        assert rec.spans[0].end is not None

    def test_counters_gauges_timings(self):
        rec = _sample_recorder()
        assert rec.counters == {"sim.engine.events": 12, "cache.hit": 2}
        assert rec.gauges == {
            "runner.worker_utilization": 0.5,
            "sim.engine.queue_depth_high_water": 7,
        }
        stats = rec.timings["runner.job"]
        assert (stats.count, stats.total) == (2, 0.5)
        assert (stats.min, stats.max) == (0.125, 0.375)

    def test_snapshot_sorts_scalar_sections(self):
        snap = _sample_recorder().snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert list(snap["gauges"]) == sorted(snap["gauges"])
        assert snap["spans"][1]["duration"] == pytest.approx(0.25)


class TestNullTelemetry:
    def test_disabled_and_stateless(self):
        assert NULL_TELEMETRY.enabled is False
        assert ensure_telemetry(None) is NULL_TELEMETRY
        rec = TelemetryRecorder()
        assert ensure_telemetry(rec) is rec

    def test_null_span_is_shared_noop(self):
        one = NULL_TELEMETRY.span("a", attr=1)
        two = NULL_TELEMETRY.span("b")
        assert one is two
        with one:
            pass
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.gauge("x", 1)
        NULL_TELEMETRY.gauge_max("x", 1)
        NULL_TELEMETRY.observe("x", 1.0)
        assert NullTelemetry().snapshot() == {
            "spans": [], "counters": {}, "gauges": {}, "timings": {}
        }


class TestExports:
    def test_jsonl_golden(self):
        golden = (DATA_DIR / "telemetry_golden.jsonl").read_text(encoding="utf-8")
        assert to_jsonl(_sample_recorder()) == golden

    def test_prometheus_golden(self):
        golden = (DATA_DIR / "telemetry_golden.prom").read_text(encoding="utf-8")
        assert to_prometheus(_sample_recorder()) == golden

    def test_jsonl_round_trip(self, tmp_path):
        rec = _sample_recorder()
        path = write_jsonl(rec, tmp_path / "nested" / "tele.jsonl")
        assert path.exists()
        loaded = load_jsonl(path)
        snap = rec.snapshot()
        assert loaded["counters"] == snap["counters"]
        assert loaded["gauges"] == snap["gauges"]
        assert loaded["timings"] == snap["timings"]
        assert [s["name"] for s in loaded["spans"]] == [
            s["name"] for s in snap["spans"]
        ]

    def test_render_report_contains_tree_and_tables(self):
        text = render_report(_sample_recorder())
        assert "spans" in text and "counters" in text and "timings" in text
        # The child span is indented under its parent.
        run_line = next(l for l in text.splitlines() if "run" in l)
        child_line = next(l for l in text.splitlines() if "sim.engine.run" in l)
        assert len(child_line) - len(child_line.lstrip()) > len(run_line) - len(
            run_line.lstrip()
        )
        assert "sim.engine.events" in text
        assert "runner.job" in text

    def test_render_report_empty(self):
        assert render_report(TelemetryRecorder()) == "telemetry: nothing recorded\n"

    def test_exports_accept_snapshots(self):
        rec = _sample_recorder()
        assert to_jsonl(rec.snapshot()) == to_jsonl(rec)
        assert to_prometheus(rec.snapshot()) == to_prometheus(rec)


def _inert_params(workload: str) -> dict:
    return {
        "workload": workload,
        "nranks": 4,
        "pinning": "inter_node",
        "timer": "tsc",
        "seed": 7,
        "workload_seed": 2,
        "tracing": True,
        "measure_offsets": True,
        "sync_repeats": 3,
        "mpi_regions": True,
        "trace_buffer_capacity": 8,
        "shape": {},
    }


class TestInertness:
    @pytest.mark.parametrize("workload", sorted(BATCH_WORKLOADS))
    def test_inert_on_every_workload_and_engine(self, workload):
        """The oracle itself runs the scenario under both engines."""
        assert_telemetry_inert(_inert_params(workload))


class TestCliTelemetry:
    def test_simulate_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "t.npz"
        tele = tmp_path / "t.tele.jsonl"
        rc = main(
            [
                "simulate", "--workload", "sparse", "--nprocs", "4",
                "--scale", "0.1", "--seed", "3", "--telemetry", str(tele),
                "-o", str(trace),
            ]
        )
        assert rc == 0
        snap = load_jsonl(tele)
        assert any(s["name"] == "sim.engine.run" for s in snap["spans"])
        assert snap["counters"]["sim.engine.events"] > 0

    def test_report_renders_telemetry(self, tmp_path, capsys):
        tele = tmp_path / "t.tele.jsonl"
        write_jsonl(_sample_recorder(), tele)
        capsys.readouterr()
        rc = main(["report", "--telemetry", str(tele)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim.engine.run" in out and "counters" in out

    def test_report_renders_the_plan_cache(self, tmp_path, capsys, monkeypatch):
        from collections import OrderedDict

        import repro.sim.batch as batch

        monkeypatch.setattr(batch, "_PLAN_CACHE", OrderedDict())
        args = ["simulate", "--workload", "pop", "--nprocs", "4", "--scale", "0.02",
                "--seed", "3", "--engine", "batch"]
        for lookup in ("misses", "hits"):  # the second run reuses the first's plan
            tele = tmp_path / f"{lookup}.tele.jsonl"
            assert main(args + ["--telemetry", str(tele), "-o", str(tmp_path / "t.npz")]) == 0
            snap = load_jsonl(tele)
            assert snap["counters"][f"sim.batch.plan_cache.{lookup}"] == 1
            (plan,) = batch._PLAN_CACHE.values()
            assert snap["gauges"]["sim.batch.plan_cache.bytes"] == batch._plan_bytes(plan) > 0
        capsys.readouterr()
        assert main(["report", "--telemetry", str(tele)]) == 0
        out = capsys.readouterr().out
        assert "sim.batch.plan_cache.hits" in out and "sim.batch.plan_cache.bytes" in out

    def test_report_without_any_input_errors(self, capsys):
        assert main(["report"]) == 2

    def test_verify_telemetry_campaign_listed(self, capsys):
        rc = main(["verify", "--list"])
        assert rc == 0
        assert "telemetry" in capsys.readouterr().out
