"""Fuzz campaigns: strategies x oracles, with shrinking and serialization.

A :class:`Campaign` is a named bundle of probes; each probe pairs one
spec strategy with one oracle.  :func:`run_campaign` fuzzes every probe
independently (so a failure is attributed to exactly one invariant),
lets hypothesis shrink any counterexample to a minimal spec, and
serializes the shrunken failure into the corpus directory for permanent
replay.  Campaigns are deterministic for a given seed — no example
database is used, so CI and local runs see the same cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import hypothesis
from hypothesis import HealthCheck, Phase, given
from hypothesis import settings as hyp_settings

from repro.errors import ConfigurationError
from repro.verify import strategies as _strategies
from repro.verify.cases import CaseSpec, build_case
from repro.verify.corpus import save_failure
from repro.verify.oracles import ORACLES

__all__ = [
    "Campaign",
    "CAMPAIGNS",
    "CampaignResult",
    "ProbeFailure",
    "run_campaign",
]

#: (strategy name, oracle name) — one fuzz loop per pair.
Probe = tuple[str, str]


@dataclass(frozen=True)
class Campaign:
    """A named bundle of fuzz probes."""

    name: str
    description: str
    probes: tuple[Probe, ...]
    #: Per-probe ceiling on examples regardless of --max-examples
    #: (process-spawning probes like run_grid stay cheap).
    example_cap: int = 1_000_000


def _cross(strategy: str, oracles: tuple[str, ...]) -> tuple[Probe, ...]:
    return tuple((strategy, oracle) for oracle in oracles)


_TRACE_CORE = (
    "clock_condition_post_clc",
    "happened_before_preserved",
    "kernel_reference_identity",
    "trace_roundtrip",
)
# Probes are seeded by position: new ones go last so older ones keep theirs.
_EDGES = (("adversarial", "collective_edges_match_reference"),)

CAMPAIGNS: dict[str, Campaign] = {}


def _campaign(name: str, description: str, probes: tuple[Probe, ...],
              example_cap: int = 1_000_000) -> None:
    CAMPAIGNS[name] = Campaign(name, description, probes, example_cap)


_campaign(
    "smoke",
    "quick cross-section: one probe per invariant family",
    _cross("adversarial", _TRACE_CORE) + (("quantization", "clock_quantization"),)
    + _EDGES + (("adversarial", "message_matching_semantics"),),
)
_campaign(
    "clc",
    "deep CLC invariants: condition, ordering, idempotence, kernels",
    _cross("adversarial", _TRACE_CORE + ("correction_idempotence",))
    + _cross("mixed", ("custom_dependency_identity",))
    + _EDGES + (("amortization", "amortization_matches_dense"),
                ("adversarial", "amortization_matches_dense")),
)
_campaign(
    "interpolation",
    "interpolation exactness and error bounds against ground truth",
    _cross("p2p", ("interpolation_affine_exact", "interpolation_residual_bound",
                   "interpolation_dense_knots_exact")),
)
_campaign(
    "pomp",
    "POMP regions: post-correction semantics and the dense-edge twin",
    _cross("pomp", ("pomp_post_clc", "custom_dependency_identity",
                    "clock_condition_post_clc", "kernel_reference_identity")),
)
_campaign(
    "io",
    "trace serialization round-trips across all three formats",
    _cross("adversarial", ("trace_roundtrip",)),
)
_campaign(
    "clock",
    "timer quantization grid semantics",
    (("quantization", "clock_quantization"),),
)
_campaign(
    "batch",
    "batch trace generator vs the discrete-event engine, bit for bit",
    (("batch", "batch_matches_engine"),),
    # Every example is two full simulator runs; keep the default cheap.
    example_cap=25,
)
_campaign(
    "telemetry",
    "telemetry inertness: recording on vs off is bit-identical",
    (("batch", "telemetry_is_inert"),),
    # Two full simulator runs per example, like the batch campaign.
    example_cap=25,
)
_campaign(
    "streaming",
    "out-of-core sharded-trace kernels vs the in-memory kernels, bit "
    "for bit, plus shard-store round-trips and matching semantics",
    (("streaming", "streamed_matches_inmemory"),
     ("streaming", "sharded_roundtrip"),
     ("streaming", "message_matching_semantics")),
    # Each example corrects its trace some eighty times (two kernel
    # configs and the correct_trace argument grid, on both paths); keep
    # the default commensurate with the batch campaign.
    example_cap=50,
)
_campaign(
    "runner",
    "serial == parallel run_grid identity and typing resolution",
    (("unit", "run_grid_identity"), ("unit", "module_type_hints")),
    example_cap=5,
)
_campaign(
    "stats",
    "repro.stats guarantees: t-CI coverage at the nominal rate, seeded "
    "bootstrap determinism, and batched run_grid identity",
    (("stats", "ci_contains_truth_at_nominal_rate"),
     ("stats", "bootstrap_deterministic_under_seed"),
     ("grid_batched", "grid_identity_batched")),
    # Coverage probes run a few hundred Monte-Carlo trials each and the
    # grid probes spawn worker processes; keep the default modest.
    example_cap=10,
)
_campaign(
    "mutation",
    "probes used by benchmarks/check_oracles.py to catch injected mutants",
    _cross("p2p", ("clock_condition_post_clc", "kernel_reference_identity"))
    + _cross("mixed", ("kernel_reference_identity",))
    + (("quantization", "clock_quantization"),)
    + (("collectives", "collective_edges_match_reference"),)
    + (("pomp", "pomp_post_clc"),)
    + (("walk_window", "kernel_reference_identity"),),
)
_campaign(
    "full",
    "everything: all trace, interpolation, io, clock, runner and stats "
    "probes",
    CAMPAIGNS["clc"].probes
    + CAMPAIGNS["interpolation"].probes
    + CAMPAIGNS["pomp"].probes
    + (("quantization", "clock_quantization"),)
    + CAMPAIGNS["runner"].probes
    + CAMPAIGNS["stats"].probes,
    example_cap=1_000_000,
)


@dataclass
class ProbeFailure:
    """One invariant violation, shrunk to its minimal spec."""

    campaign: str
    strategy: str
    oracle: str
    spec: CaseSpec
    message: str
    corpus_path: Optional[str] = None


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    name: str
    probes_run: int = 0
    examples: int = 0
    checks: int = 0
    failures: list[ProbeFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.failures)} probes)"
        return (
            f"campaign {self.name}: {state} — {self.probes_run} probes, "
            f"{self.examples} examples, {self.checks} oracle checks"
        )


def _fuzz_probe(strategy_name: str, oracle_name: str, max_examples: int,
                seed: int, counters: CampaignResult) -> Optional[tuple[CaseSpec, str]]:
    """Run one (strategy, oracle) fuzz loop; returns the shrunk failure."""
    strategy = _strategies.STRATEGIES[strategy_name]()
    oracle = ORACLES[oracle_name]
    # Hypothesis replays the minimal example last before raising, so the
    # holder ends up with exactly the shrunken spec.
    last: dict[str, CaseSpec] = {}

    @hyp_settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        derandomize=False,
        print_blob=False,
        report_multiple_bugs=False,
        phases=(Phase.generate, Phase.shrink),
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.filter_too_much,
            HealthCheck.data_too_large,
            HealthCheck.large_base_example,
        ],
    )
    @hypothesis.seed(seed)
    @given(spec=strategy)
    def probe(spec: CaseSpec) -> None:
        counters.examples += 1
        last["spec"] = spec
        case = build_case(spec)
        if oracle.run(case):
            counters.checks += 1

    try:
        probe()
    except Exception as exc:
        # Library crashes count as failures too; only a failure of the
        # strategy itself (no spec drawn yet) propagates.
        if "spec" not in last:
            raise
        return last["spec"], f"{type(exc).__name__}: {exc}"
    return None


def run_campaign(
    name: str,
    max_examples: int = 50,
    corpus_dir: Union[str, None] = None,
    seed: int = 0,
    telemetry=None,
) -> CampaignResult:
    """Fuzz every probe of campaign ``name``.

    Failures are shrunk by hypothesis and, when ``corpus_dir`` is given,
    serialized there for permanent replay.  A
    :class:`repro.telemetry.TelemetryRecorder` collects per-probe spans
    plus ``verify.examples`` / ``verify.checks`` / ``verify.failures``
    counters.
    """
    from repro.telemetry import ensure_telemetry

    tele = ensure_telemetry(telemetry)
    try:
        campaign = CAMPAIGNS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign {name!r}; known: {', '.join(sorted(CAMPAIGNS))}"
        ) from None
    if max_examples < 1:
        raise ConfigurationError("max_examples must be >= 1")

    result = CampaignResult(name=name)
    examples = min(max_examples, campaign.example_cap)
    with tele.span("verify.campaign", name=name, probes=len(campaign.probes)):
        for index, (strategy_name, oracle_name) in enumerate(campaign.probes):
            result.probes_run += 1
            with tele.span("verify.probe", strategy=strategy_name, oracle=oracle_name):
                failure = _fuzz_probe(
                    strategy_name, oracle_name, examples, seed + index, result
                )
            if failure is None:
                continue
            spec, message = failure
            record = ProbeFailure(
                campaign=name, strategy=strategy_name, oracle=oracle_name,
                spec=spec, message=message,
            )
            if corpus_dir is not None:
                entry = save_failure(corpus_dir, oracle_name, spec, message)
                record.corpus_path = str(entry.path)
            result.failures.append(record)
    if tele.enabled:
        tele.count("verify.examples", result.examples)
        tele.count("verify.checks", result.checks)
        tele.count("verify.failures", len(result.failures))
    return result
