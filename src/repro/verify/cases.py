"""Deterministic adversarial test-case builders for the verify subsystem.

A :class:`CaseSpec` is a *pure-data* description of one adversarial
scenario — a kind tag plus JSON-able parameters.  Builders turn a spec
into a concrete :class:`TraceCase` (an event trace plus the ground
truth it was generated from) with **no randomness**: the same spec
always produces bit-identical arrays.  That determinism is what makes
shrunken fuzz failures replayable forever from `tests/corpus/`.

The clock model per rank is the paper's error taxonomy in miniature:

* a start offset and a constant drift rate (Section III.a);
* *drift jumps* — rate changes at given true times (temperature
  excursions, Fig. 3's non-constant drifts);
* *NTP-style steps* — instantaneous offset changes, possibly negative,
  which make recorded timestamps non-monotone (the "time adjustments"
  the paper's Section III.c warns about).

Trace kinds compose point-to-point messages, every collective flavor
(including degenerate single-member instances and zero-skew "identical
timestamp" instances), and POMP parallel regions into one stream; true
event times always respect causality (a receive never truly precedes
its send), so the happened-before graph is acyclic by construction and
every clock-condition violation in the *recorded* timestamps is
attributable to the injected clock errors — exactly the situation the
synchronization algorithms exist to repair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.tracing.events import MPI_COLLECTIVES, EventLog, EventType
from repro.tracing.trace import Trace

__all__ = [
    "CaseSpec",
    "TraceCase",
    "BUILDERS",
    "BATCH_WORKLOADS",
    "build_case",
    "clock_error",
    "erase_match_ids",
    "grid_probe_job",
]

#: Instance ids of POMP regions start here so they never collide with
#: collective instance ids inside one builder (cosmetic; the collective
#: table keys POMP constructs apart, see ``tracing.trace.collective_rows``).
_POMP_INSTANCE_BASE = 10_000


@dataclass(frozen=True)
class CaseSpec:
    """One adversarial scenario as pure data (JSON round-trippable)."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "params": self.params}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CaseSpec":
        payload = json.loads(text)
        return cls(kind=payload["kind"], params=payload["params"])


@dataclass
class TraceCase:
    """A built scenario: the trace plus the ground truth behind it.

    Attributes
    ----------
    spec:
        The spec this case was built from.
    trace:
        The event trace (``None`` for unit kinds like quantization).
    true_times:
        Per-rank true event times aligned with each log, when the kind
        has a trace.
    lmin:
        The minimum-latency floor the scenario was generated under.
    tags:
        Capability tags oracles match their preconditions against
        (e.g. ``trace``, ``truth``, ``monotone``, ``affine``, ``pomp``).
    """

    spec: CaseSpec
    trace: Optional[Trace] = None
    true_times: Optional[dict[int, np.ndarray]] = None
    lmin: float = 0.0
    tags: frozenset[str] = frozenset()


# ----------------------------------------------------------------------
# Clock error model
# ----------------------------------------------------------------------
def clock_error(profile: dict[str, Any], t: np.ndarray) -> np.ndarray:
    """Accumulated clock error of one rank at true times ``t``.

    ``profile`` holds ``offset``, ``rate``, ``jumps`` (list of
    ``[t, d_rate]`` drift-rate changes) and ``steps`` (list of
    ``[t, d_offset]`` instantaneous NTP-style steps, sign free).
    """
    t = np.asarray(t, dtype=np.float64)
    err = float(profile.get("offset", 0.0)) + float(profile.get("rate", 0.0)) * t
    for tj, d_rate in profile.get("jumps", []):
        err = err + float(d_rate) * np.maximum(t - float(tj), 0.0)
    for ts_, d_off in profile.get("steps", []):
        err = err + float(d_off) * (t >= float(ts_))
    return err


def _profile_is_affine(profile: dict[str, Any]) -> bool:
    return not profile.get("jumps") and not profile.get("steps")


# ----------------------------------------------------------------------
# Event-stream assembly
# ----------------------------------------------------------------------
class _Stream:
    """Accumulates (true_time, seq, event) tuples per rank.

    The global ``seq`` counter breaks true-time ties deterministically
    and — because constraint sources (sends, collective enters, forks,
    barrier enters) are always appended before the events they
    constrain — guarantees the happened-before graph is acyclic even
    when true latencies are exactly zero.
    """

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ConfigurationError("a trace case needs at least one rank")
        self.events: dict[int, list[tuple[float, int, int, int, int, int, int]]] = {
            r: [] for r in range(nranks)
        }
        self.nranks = nranks
        self._seq = 0

    def add(self, rank: int, t: float, etype: EventType, a=0, b=0, c=0, d=0) -> None:
        rank = int(rank) % self.nranks
        self.events[rank].append(
            (float(t), self._seq, int(etype), int(a), int(b), int(c), int(d))
        )
        self._seq += 1

    def messages(self, messages: list) -> None:
        for mid, entry in enumerate(messages):
            src, dst, t_send, latency = entry
            src = int(src) % self.nranks
            dst = int(dst) % self.nranks
            if src == dst:
                dst = (dst + 1) % self.nranks
            t_send = float(t_send)
            latency = max(float(latency), 0.0)  # true time respects causality
            self.add(src, t_send, EventType.SEND, a=dst, b=0, c=64, d=mid)
            self.add(dst, t_send + latency, EventType.RECV, a=src, b=0, c=64, d=mid)

    def collectives(self, collectives: list) -> None:
        for instance, coll in enumerate(collectives):
            op = int(coll["op"]) % len(MPI_COLLECTIVES)
            members = sorted({int(m) % self.nranks for m in coll["members"]})
            if not members:
                continue
            root = members[int(coll.get("root", 0)) % len(members)]
            enters = [float(x) for x in coll.get("enters", [])]
            exits = [float(x) for x in coll.get("exits", [])]
            # Pad/truncate per-member times to the member count.
            base = enters[0] if enters else 0.0
            enters = (enters + [base] * len(members))[: len(members)]
            exits = (exits + [base] * len(members))[: len(members)]
            # True exits never precede the last true enter: the
            # operation completes only after everyone arrived.
            floor = max(enters)
            size = len(members)
            for rank, t in zip(members, enters):
                self.add(rank, t, EventType.COLL_ENTER, a=op, b=root, c=size, d=instance)
            for rank, t in zip(members, exits):
                self.add(rank, max(t, floor), EventType.COLL_EXIT,
                         a=op, b=root, c=size, d=instance)

    def pomp_regions(self, regions: list) -> None:
        for idx, region in enumerate(regions):
            instance = _POMP_INSTANCE_BASE + idx
            master = int(region["master"]) % self.nranks
            threads = sorted({int(r) % self.nranks for r in region.get("threads", [])} | {master})
            t0 = float(region["t0"])
            span = max(float(region.get("t1", t0)) - t0, 1e-6)
            skews = [float(s) for s in region.get("skews", [])]
            skews = (skews + [0.0] * len(threads))[: len(threads)]

            def stage(base: float, width: float, salt: int) -> list[float]:
                # Deterministic per-thread placement inside a stage
                # window; skew 0 collapses a stage to identical times.
                return [
                    t0 + span * (base + width * ((s * (salt + 1)) % 1.0))
                    for s in skews
                ]

            region_id, team = idx, len(threads)
            self.add(master, t0, EventType.OMP_FORK, a=region_id, b=team, d=instance)
            for rank, t in zip(threads, stage(0.05, 0.20, 0)):
                self.add(rank, t, EventType.OMP_PAR_ENTER, a=region_id, b=team, d=instance)
            if region.get("barrier", True):
                for rank, t in zip(threads, stage(0.30, 0.20, 1)):
                    self.add(rank, t, EventType.OMP_BARRIER_ENTER,
                             a=region_id, b=team, d=instance)
                # Barrier exits start at 0.55*span > every enter
                # (<= 0.50*span): true execution overlaps, Fig. 2c.
                for rank, t in zip(threads, stage(0.55, 0.15, 2)):
                    self.add(rank, t, EventType.OMP_BARRIER_EXIT,
                             a=region_id, b=team, d=instance)
            for rank, t in zip(threads, stage(0.75, 0.15, 3)):
                self.add(rank, t, EventType.OMP_PAR_EXIT, a=region_id, b=team, d=instance)
            self.add(master, t0 + span, EventType.OMP_JOIN, a=region_id, b=team, d=instance)

    def locals_(self, entries: list) -> None:
        for rank, t in entries:
            self.add(rank, t, EventType.ENTER, a=1)


def _assemble(spec: CaseSpec, stream: _Stream, profiles: list, lmin: float,
              base_tags: set[str]) -> TraceCase:
    logs: dict[int, EventLog] = {}
    true_times: dict[int, np.ndarray] = {}
    monotone = True
    for rank in range(stream.nranks):
        rows = sorted(stream.events[rank])  # (true_time, seq) order
        t_true = np.array([r[0] for r in rows], dtype=np.float64)
        profile = profiles[rank % len(profiles)] if profiles else {}
        recorded = t_true + clock_error(profile, t_true)
        cols = np.array([r[2:] for r in rows], dtype=np.int64).reshape(len(rows), 5)
        logs[rank] = EventLog.from_arrays(
            recorded, cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], cols[:, 4]
        )
        true_times[rank] = t_true
        if recorded.size > 1 and np.any(np.diff(recorded) < 0):
            monotone = False
    tags = set(base_tags) | {"trace", "truth"}
    if monotone:
        tags.add("monotone")
    if all(_profile_is_affine(p) for p in profiles):
        tags.add("affine")
    return TraceCase(
        spec=spec,
        trace=Trace(logs, meta={"verify_case": spec.kind}),
        true_times=true_times,
        lmin=float(lmin),
        tags=frozenset(tags),
    )


# ----------------------------------------------------------------------
# Builders (one per spec kind)
# ----------------------------------------------------------------------
def _build_stream_case(spec: CaseSpec) -> TraceCase:
    p = spec.params
    nranks = int(p.get("nranks", 2))
    profiles = p.get("profiles") or [{} for _ in range(nranks)]
    stream = _Stream(nranks)
    stream.messages(p.get("messages", []))
    stream.collectives(p.get("collectives", []))
    stream.pomp_regions(p.get("pomp", []))
    stream.locals_(p.get("locals", []))
    tags = {spec.kind}
    if p.get("messages"):
        tags.add("messages")
    if p.get("collectives"):
        tags.add("collectives")
    if p.get("pomp"):
        tags.add("pomp")
    return _assemble(spec, stream, profiles, float(p.get("lmin", 0.0)), tags)


def erase_match_ids(trace: Trace) -> Trace:
    """``trace`` with every send and receive id erased: it matches by FIFO."""
    logs = {}
    for rank, log in trace.logs.items():
        transfer = (log.etypes == int(EventType.SEND)) | (log.etypes == int(EventType.RECV))
        d = np.where(transfer, -1, log.d)
        logs[rank] = EventLog.from_arrays(log.timestamps, log.etypes, log.a, log.b, log.c, d)
    return Trace(logs, dict(trace.meta))


def _build_streaming_case(spec: CaseSpec) -> TraceCase:
    """Stream-content case; optionally strips match ids (FIFO matching)."""
    case = _build_stream_case(spec)
    if spec.params.get("strip_ids"):
        case.trace = erase_match_ids(case.trace)
    return case


def _build_clock_quantization(spec: CaseSpec) -> TraceCase:
    p = spec.params
    if float(p.get("resolution", 0.0)) < 0:
        raise ConfigurationError("resolution must be non-negative")
    return TraceCase(spec=spec, tags=frozenset({"clock", "unit"}))


def _build_module_hints(spec: CaseSpec) -> TraceCase:
    if "module" not in spec.params or "qualname" not in spec.params:
        raise ConfigurationError("module_hints needs 'module' and 'qualname'")
    return TraceCase(spec=spec, tags=frozenset({"hints", "unit"}))


def _build_grid(spec: CaseSpec) -> TraceCase:
    """``grid`` and ``grid_batched`` cases, tagged by their kind."""
    if not spec.params.get("seeds"):
        raise ConfigurationError(f"{spec.kind} cases need at least one seed")
    return TraceCase(spec=spec, tags=frozenset({spec.kind, "unit"}))


def _build_stats_coverage(spec: CaseSpec) -> TraceCase:
    p = spec.params
    if int(p.get("n", 0)) < 2:
        raise ConfigurationError("stats_coverage needs n >= 2 (t CI is undefined)")
    if int(p.get("trials", 0)) < 1:
        raise ConfigurationError("stats_coverage needs at least one trial")
    if not 0.0 < float(p.get("level", 0.95)) < 1.0:
        raise ConfigurationError("confidence level must be in (0, 1)")
    return TraceCase(spec=spec, tags=frozenset({"stats", "coverage", "unit"}))


def _build_stats_bootstrap(spec: CaseSpec) -> TraceCase:
    p = spec.params
    if not p.get("values"):
        raise ConfigurationError("stats_bootstrap needs at least one value")
    if not 0.0 < float(p.get("level", 0.95)) < 1.0:
        raise ConfigurationError("confidence level must be in (0, 1)")
    return TraceCase(spec=spec, tags=frozenset({"stats", "bootstrap", "unit"}))


#: Built-in workloads whose workers carry a ``batch_key``, so the batch
#: fast path records their plans (see :func:`repro.sim.batch.run_batch`).
BATCH_WORKLOADS = (
    "sparse", "pingpong", "collective_timing", "pop", "smg2000", "sweep3d",
)


def _build_batch(spec: CaseSpec) -> TraceCase:
    p = spec.params
    if p.get("workload") not in BATCH_WORKLOADS:
        raise ConfigurationError(
            f"batch case needs a workload in {BATCH_WORKLOADS}; "
            f"got {p.get('workload')!r}"
        )
    if int(p.get("nranks", 2)) < 2:
        raise ConfigurationError("batch cases need at least two ranks")
    return TraceCase(spec=spec, tags=frozenset({"batch", "unit"}))


def grid_probe_job(seed: int, n: int) -> list[float]:
    """Module-level job for run_grid identity checks (picklable)."""
    from repro.rng import RngFabric

    gen = RngFabric(seed=int(seed)).generator("verify-grid")
    return [float(x) for x in gen.standard_normal(int(n))]


#: Spec kind -> builder.  ``p2p``/``collectives``/``pomp``/``mixed``
#: share one stream builder; the kind tag records the generator family.
BUILDERS: dict[str, Callable[[CaseSpec], TraceCase]] = {
    "p2p": _build_stream_case,
    "collectives": _build_stream_case,
    "pomp": _build_stream_case,
    "mixed": _build_stream_case,
    "streaming": _build_streaming_case,
    "clock_quantization": _build_clock_quantization,
    "module_hints": _build_module_hints,
    "grid": _build_grid,
    "grid_batched": _build_grid,
    "stats_coverage": _build_stats_coverage,
    "stats_bootstrap": _build_stats_bootstrap,
    "batch": _build_batch,
}


def build_case(spec: CaseSpec) -> TraceCase:
    """Deterministically build the :class:`TraceCase` for ``spec``."""
    try:
        builder = BUILDERS[spec.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown case kind {spec.kind!r}; known: {sorted(BUILDERS)}"
        ) from None
    return builder(spec)
