"""Tests for the differential verification subsystem (repro.verify).

Four concerns: the catalog wiring (every campaign probe names a real
strategy and oracle), the committed corpus (every entry replays clean
against the current build), the oracles themselves (they pass on main
over the exported adversarial strategies), and the detection loop (an
injected mutant is caught, shrunk, and serialized to a corpus entry
that replays as a failure while the mutant is live).
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import examples
from hypothesis import given

from repro.errors import ConfigurationError
from repro.verify import (
    BUILDERS,
    CAMPAIGNS,
    ORACLES,
    CaseSpec,
    OracleViolation,
    adversarial_specs,
    build_case,
    check_case,
    iter_corpus,
    replay_corpus,
    run_campaign,
    save_failure,
)
from repro.verify.corpus import replay_entry
from repro.verify.strategies import STRATEGIES

CORPUS_DIR = Path(__file__).parent / "corpus"


class TestCatalog:
    def test_campaign_probes_reference_known_names(self):
        for campaign in CAMPAIGNS.values():
            assert campaign.probes, f"campaign {campaign.name} has no probes"
            for strategy, oracle in campaign.probes:
                assert strategy in STRATEGIES
                assert oracle in ORACLES

    def test_every_oracle_is_documented_and_tagged(self):
        for oracle in ORACLES.values():
            assert oracle.description
            assert oracle.requires, f"oracle {oracle.name} applies to nothing"

    def test_smoke_covers_the_core_invariants(self):
        smoke = {oracle for _, oracle in CAMPAIGNS["smoke"].probes}
        assert {"clock_condition_post_clc", "happened_before_preserved",
                "kernel_reference_identity", "trace_roundtrip"} <= smoke

    def test_unknown_case_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown case kind"):
            build_case(CaseSpec("nope", {}))

    def test_spec_json_roundtrip(self):
        spec = CaseSpec("clock_quantization",
                        {"resolution": 1e-9, "values": [0.0, 15.0]})
        again = CaseSpec.from_json(spec.to_json())
        assert again == spec


class TestBuilders:
    def test_builders_are_deterministic(self):
        spec = CaseSpec("p2p", {
            "nranks": 2,
            "lmin": 1e-6,
            "messages": [[0, 1, 0.0, 0.0], [1, 0, 1e-3, 5e-4]],
            "locals": [[0, 2e-3]],
            "profiles": [
                {"offset": 0.0, "rate": 1e-5, "jumps": [], "steps": []},
                {"offset": -1e-3, "rate": 0.0, "jumps": [[1e-3, 1e-6]],
                 "steps": [[2e-3, -5e-4]]},
            ],
        })
        a, b = build_case(spec), build_case(spec)
        for rank in a.trace.ranks:
            assert np.array_equal(a.trace.logs[rank].timestamps,
                                  b.trace.logs[rank].timestamps)

    def test_backward_step_makes_log_non_monotone(self):
        # The adversarial regime the corpus guards: NTP backward steps
        # must actually produce non-monotone recorded logs.
        spec = CaseSpec("p2p", {
            "nranks": 2, "lmin": 0.0,
            "messages": [], "locals": [[0, 0.0], [0, 1e-6], [0, 2e-6]],
            "profiles": [
                {"offset": 0.0, "rate": 0.0, "jumps": [], "steps": [[5e-7, -1e-3]]},
                {"offset": 0.0, "rate": 0.0, "jumps": [], "steps": []},
            ],
        })
        case = build_case(spec)
        ts = case.trace.logs[0].timestamps
        assert not bool(np.all(np.diff(ts) >= 0))
        assert "monotone" not in case.tags


class TestOraclesOnMain:
    @examples(25)
    @given(spec=adversarial_specs())
    def test_adversarial_cases_satisfy_all_applicable_oracles(self, spec):
        ran = check_case(build_case(spec))
        assert ran  # every trace kind has at least the core oracles

    @examples(15)
    @given(spec=STRATEGIES["quantization"]())
    def test_quantization_oracle_passes(self, spec):
        assert check_case(build_case(spec)) == ["clock_quantization"]

    @examples(10)
    @given(spec=STRATEGIES["pomp"]())
    def test_pomp_cases_run_the_pomp_oracles(self, spec):
        ran = check_case(build_case(spec))
        assert "custom_dependency_identity" in ran


class TestCorpus:
    def test_committed_corpus_replays_clean(self):
        results = replay_corpus(CORPUS_DIR)
        assert len(results) >= 5
        failures = [(e.name, err) for e, err in results if err is not None]
        assert failures == []

    def test_committed_corpus_covers_the_known_regressions(self):
        oracles = {entry.oracle for entry in iter_corpus(CORPUS_DIR)}
        assert {"clock_quantization", "module_type_hints",
                "happened_before_preserved"} <= oracles

    def test_save_and_replay_roundtrip(self, tmp_path):
        spec = CaseSpec("clock_quantization",
                        {"resolution": 1e-9, "values": [0.0, 15.0]})
        entry = save_failure(tmp_path, "clock_quantization", spec, "msg\nrest")
        assert entry.path.exists()
        assert entry.message == "msg"  # first line only
        (loaded,) = iter_corpus(tmp_path)
        assert loaded.oracle == "clock_quantization"
        assert loaded.spec == spec
        replay_entry(loaded)  # passes on main

    def test_golden_trace_divergence_detected(self, tmp_path):
        spec = CaseSpec("p2p", {
            "nranks": 2, "lmin": 0.0, "locals": [],
            "messages": [[0, 1, 0.0, 1e-4]],
            "profiles": [
                {"offset": 0.0, "rate": 0.0, "jumps": [], "steps": []},
                {"offset": 0.0, "rate": 0.0, "jumps": [], "steps": []},
            ],
        })
        entry = save_failure(tmp_path, "trace_roundtrip", spec)
        assert entry.trace_path is not None
        # Tamper with the golden: replay must flag builder drift.
        from repro.tracing.reader import read_trace
        from repro.tracing.writer import write_trace

        golden = read_trace(entry.trace_path)
        golden.logs[0].timestamps[0] += 1e-3
        write_trace(golden, entry.trace_path)
        (loaded,) = iter_corpus(tmp_path)
        with pytest.raises(OracleViolation, match="diverged from the golden"):
            replay_entry(loaded)

    def test_unsupported_schema_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text('{"schema": 99, "oracle": "x"}')
        with pytest.raises(ConfigurationError, match="unsupported corpus schema"):
            iter_corpus(tmp_path)


class TestCampaignRunner:
    def test_smoke_campaign_passes_on_main(self):
        result = run_campaign("smoke", max_examples=5, seed=3)
        assert result.passed, [f.message for f in result.failures]
        assert result.probes_run == len(CAMPAIGNS["smoke"].probes)
        assert result.examples > 0
        assert "PASS" in result.summary()

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            run_campaign("nope")

    def test_bad_max_examples_rejected(self):
        with pytest.raises(ConfigurationError, match="max_examples"):
            run_campaign("smoke", max_examples=0)

    def test_mutant_is_caught_shrunk_and_serialized(self, tmp_path):
        # Neutralize the per-edge latency floor: the clock condition
        # degenerates to recv >= send, which the fuzzer must notice.
        from repro.sync.schedule import CompiledSchedule

        real = CompiledSchedule.edge_lmin

        def zero_lmin(self, lmin):
            return real(self, 0.0)

        with mock.patch.object(CompiledSchedule, "edge_lmin", zero_lmin):
            result = run_campaign(
                "mutation", max_examples=40, corpus_dir=tmp_path, seed=0
            )
            assert not result.passed
            caught = {f.oracle for f in result.failures}
            assert caught & {"clock_condition_post_clc", "kernel_reference_identity"}
            # The shrunken failure was serialized and replays as a
            # failure while the mutant is live.
            entries = iter_corpus(tmp_path)
            assert entries
            live = replay_corpus(tmp_path)
            assert any(err is not None for _, err in live)
        # With the mutant gone the corpus entries describe fixed bugs;
        # goldens were built under the mutant, so only spec replay counts.
        for failure in result.failures:
            assert failure.corpus_path is not None


class TestSharedAssertHelpers:
    def test_assert_traces_identical_reports_rank(self):
        from repro.sync.clc import ControlledLogicalClock
        from repro.verify.oracles import assert_traces_identical
        from test_schedule import random_trace

        trace = random_trace(0)
        a = ControlledLogicalClock().correct(trace, lmin=1e-6)
        b = ControlledLogicalClock().correct(trace, lmin=1e-6)
        assert_traces_identical(a, b, context="self")
        b.trace.logs[2].timestamps[0] += 1e-3
        with pytest.raises(OracleViolation, match="rank 2"):
            assert_traces_identical(a, b, context="self")

    def test_builder_registry_covers_all_strategy_kinds(self):
        # Every strategy draws specs whose kind has a builder.
        assert set(BUILDERS) >= {
            "p2p", "collectives", "pomp", "mixed",
            "clock_quantization", "module_hints", "grid",
        }
