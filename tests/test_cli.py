"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.tracing.reader import read_trace


@pytest.fixture
def sparse_trace_file(tmp_path):
    path = tmp_path / "trace.npz"
    rc = main(
        [
            "simulate", "--workload", "sparse", "--nprocs", "4",
            "--timer", "mpi_wtime", "--seed", "5", "--scale", "0.2",
            "--placement", "spread", "-o", str(path),
        ]
    )
    assert rc == 0
    return path


class TestSimulate:
    def test_writes_trace_with_measurements(self, sparse_trace_file):
        trace = read_trace(sparse_trace_file)
        assert trace.nranks == 4
        assert "init_offsets" in trace.meta
        assert "final_offsets" in trace.meta

    def test_pop_workload(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        rc = main(
            [
                "simulate", "--workload", "pop", "--nprocs", "4",
                "--seed", "1", "--scale", "0.005", "-o", str(path),
            ]
        )
        assert rc == 0
        assert read_trace(path).total_events() > 0


class TestScan:
    def test_exit_code_reflects_violations(self, sparse_trace_file, capsys):
        rc = main(["scan", str(sparse_trace_file)])
        out = capsys.readouterr().out
        assert "violations" in out
        assert rc in (0, 1)

    def test_jsonl_is_read_once(self, sparse_trace_file, tmp_path, monkeypatch, capsys):
        import repro.cli
        import repro.tracing.reader
        from repro.tracing.writer import write_trace

        jsonl = write_trace(read_trace(sparse_trace_file), tmp_path / "trace.jsonl")
        reads = []

        def counted(path, *args, **kwargs):
            reads.append(path)
            return read_trace(path, *args, **kwargs)

        monkeypatch.setattr(repro.tracing.reader, "read_trace", counted)
        monkeypatch.setattr(repro.cli, "read_trace", counted)
        rc = main(["scan", str(jsonl)])
        assert rc in (0, 1)
        assert len(reads) == 1
        assert capsys.readouterr().out.startswith(f"{jsonl}: 4 ranks, ")


class TestSync:
    def test_linear_plus_clc_round_trip(self, sparse_trace_file, tmp_path, capsys):
        fixed = tmp_path / "fixed.npz"
        rc = main(["sync", str(sparse_trace_file), "--clc", "-o", str(fixed)])
        assert rc == 0
        # The corrected trace must scan clean.
        rc = main(["scan", str(fixed)])
        assert rc == 0

    def test_align_mode(self, sparse_trace_file, tmp_path):
        fixed = tmp_path / "aligned.npz"
        rc = main(
            ["sync", str(sparse_trace_file), "--interpolation", "align", "-o", str(fixed)]
        )
        assert rc == 0

    def test_missing_measurements_error(self, tmp_path, capsys):
        # Write a trace without measurement metadata.
        from repro.tracing.events import EventLog, EventType
        from repro.tracing.trace import Trace
        from repro.tracing.writer import write_trace

        log = EventLog()
        log.append(1.0, EventType.ENTER, a=1)
        bare = tmp_path / "bare.npz"
        write_trace(Trace({0: log}), bare)
        rc = main(["sync", str(bare), "-o", str(tmp_path / "out.npz")])
        assert rc == 2
        assert "no offset measurements" in capsys.readouterr().err


class TestReport:
    def test_summary_fields(self, sparse_trace_file, capsys):
        rc = main(["report", str(sparse_trace_file), "--arrows", "2", "--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ranks: 4" in out
        assert "message-event fraction" in out
        assert "timeline" in out
        assert "->" in out

    def test_store_counts_match_file(self, sparse_trace_file, tmp_path, capsys):
        from repro.tracing.events import EventType
        from repro.tracing.store import write_sharded_trace

        trace = read_trace(sparse_trace_file)
        store = write_sharded_trace(trace, tmp_path / "store", shard_events=16)
        assert main(["report", str(sparse_trace_file)]) == 0
        file_out = capsys.readouterr().out
        assert main(["report", str(store)]) == 0
        store_out = capsys.readouterr().out

        def by_type(out):
            return [line for line in out.splitlines() if "by type:" in line]

        assert len(by_type(file_out)) == 1 and by_type(file_out) == by_type(store_out)
        counts = trace.event_counts()
        assert (
            f"  send events: {counts[EventType.SEND]}   "
            f"recv events: {counts[EventType.RECV]}"
        ) in store_out.splitlines()


class TestFigures:
    def test_table2_with_cache_and_jobs(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "figures", "table2", "--jobs", "2", "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Inter node message latency" in out
        assert "0 hits, 4 misses" in out
        # Second invocation is served from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 hits, 0 misses" in out

    def test_no_cache_skips_cache_entirely(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
        assert main(["figures", "waitstates", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Late Sender" in out
        assert "cache:" not in out
        assert not (tmp_path / "unused").exists()

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestErrors:
    def test_missing_file(self, capsys, tmp_path):
        rc = main(["scan", str(tmp_path / "nope.npz")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_figures_with_unusable_cache_dir_still_renders(self, tmp_path, capsys):
        # A cache root that is a plain file: every store fails, every
        # load misses, and the figure still renders.
        bad = tmp_path / "not-a-dir"
        bad.write_text("occupied")
        rc = main(["figures", "table2", "--cache-dir", str(bad)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "0 hits" in out


class TestVerify:
    CORPUS = str(__import__("pathlib").Path(__file__).parent / "corpus")

    def test_smoke_campaign_passes(self, capsys):
        rc = main(["verify", "--campaign", "smoke", "--max-examples", "5"])
        assert rc == 0
        assert "campaign smoke: PASS" in capsys.readouterr().out

    def test_unknown_campaign_is_a_config_error(self, capsys):
        rc = main(["verify", "--campaign", "definitely-not-a-campaign"])
        assert rc == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_replay_committed_corpus(self, capsys):
        rc = main(["verify", "--replay", "--corpus-dir", self.CORPUS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        assert "ok   clock_quantization" in out

    def test_list_prints_catalog(self, capsys):
        rc = main(["verify", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaigns:" in out
        assert "smoke" in out
        assert "kernel_reference_identity" in out
